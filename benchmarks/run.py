"""Benchmark entry point.

    python3 benchmarks/run.py --workload transport-ladder --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) from the root of a source
checkout, against the `slub` package in its `src/`.  With --trace 0 it
sets up the workload and runs a pass, again and again until --seconds
have been spent, and reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced pass plus the kernel sweep.
Metric names and units come from BENCHMARK.json.  Human-readable lines
come first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the checkout has no `src/slub`.
"""

from __future__ import annotations

import os

# single-threaded numerics in the workload process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np  # before slub, so setup_s leaves numpy's import out

import kernels
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
KERNEL_ROUNDS = 3  # kernel sweep rounds before the passes; one more per pass pair
clock = time.perf_counter
# end-to-end segments, setups and probes: CPU time of this thread, which
# leaves out the time the guest or the host kept the process off a core
cpu_clock = time.thread_time


def import_slub():
    """A fresh import of slub (and slub.cli) from this checkout."""
    for name in [n for n in sys.modules if n == "slub" or n.startswith("slub.")]:
        del sys.modules[name]
    slub = importlib.import_module("slub")
    importlib.import_module("slub.cli")
    if Path(slub.__file__).resolve().parent != SRC / "slub":
        raise ImportError(f"slub imported from {slub.__file__}, not from {SRC}")
    return slub


def setup(workload: str, timer=clock) -> tuple:
    """(seconds, slub, total steps): a fresh import plus a build of
    every case's grid, time ladder and operators."""
    start = timer()
    slub = import_slub()
    steps = workloads.build_cases(slub, workload)
    return timer() - start, slub, steps


def best_wall(results) -> float:
    """Pass wall time rebuilt from each segment's fastest time.

    A segment is one run or the rest of one case call (see
    workloads.PassTimer), so every piece of the pass is timed once per
    pass; the sum of the minima is the pass as fast as this run saw it.
    """
    best: dict = {}
    for result in results:
        for key, seconds in result.segments.items():
            best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


def ref_time(results) -> float:
    """Pass time at the reference speed (see speed.py).

    Each segment's seconds are read in probe units, REF_S over the
    probe seconds measured around that segment; the median of each
    segment over the run's passes is taken, and the medians are summed.
    """
    per: dict = {}
    for result in results:
        for key, seconds in result.segments.items():
            per.setdefault(key, []).append(seconds * speed.REF_S / result.speeds[key])
    return sum(statistics.median(values) for values in per.values())


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def environment(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


class Tally:
    """Cases attempted and failed over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += len(result.failed)


def _until(deadline: float, loop_times: list) -> bool:
    """Whether another pass of typical length still fits."""
    return clock() + statistics.median(loop_times) <= deadline


def end_to_end(wl, seconds: float, tally: Tally) -> dict:
    """Set up and run a pass, again and again, until --seconds are
    spent, probing the machine's speed around every setup and segment;
    times are CPU seconds read at the reference speed (see speed.py)."""
    deadline = clock() + seconds
    setups, raw_setups, walls, cpus, results, loops = [], [], [], [], [], []
    while not loops or _until(deadline, loops):
        loop_start = clock()
        before = speed.probe(cpu_clock)
        setup_s, slub, steps = setup(wl.name, cpu_clock)
        around = 0.5 * (before + speed.probe(cpu_clock))
        wall_start = clock()
        cpu, result = wl.run_pass(slub, cpu_clock, speed.probe)
        walls.append(clock() - wall_start)
        result.runs.clear()
        tally.add(result)
        setups.append(setup_s * speed.REF_S / around)
        raw_setups.append(setup_s)
        cpus.append(cpu)
        results.append(result)
        loops.append(clock() - loop_start)
    pass_s = ref_time(results)
    probes = sorted(s for r in results for s in r.speeds.values())
    print(f"passes {len(cpus)}  steps/pass {steps}  raw CPU s per pass "
          + " ".join(f"{c:.4f}" for c in cpus)
          + f"  (median {statistics.median(cpus):.4f})  raw setup median "
          f"{statistics.median(raw_setups):.4f}")
    print(f"wall s per pass, probes included: median {statistics.median(walls):.4f}  "
          f"min {min(walls):.4f}  max {max(walls):.4f}")
    print(f"probe ms: median {1e3 * probes[len(probes) // 2]:.4f}  "
          f"min {1e3 * probes[0]:.4f}  max {1e3 * probes[-1]:.4f}  "
          f"(reference {1e3 * speed.REF_S:.4f})")
    return {
        "pass_s": pass_s,
        "us_per_step": 1e6 * pass_s / steps,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _irregular(runs) -> tuple:
    zeros = total = 0
    for res in runs:
        if res.sigma_history is not None:
            steps = res.sigma_history[1:]
            zeros += int(np.count_nonzero(steps == 0))
            total += steps.size
    return zeros, total


def per_layer(wl, seed: int, seconds: float, tally: Tally) -> dict:
    deadline = clock() + seconds
    slub = import_slub()
    sweep = kernels.KernelSweep(slub, seed, clock)
    for _ in range(KERNEL_ROUNDS):
        sweep.round()
    plain, traced, loops = [], [], []
    while not loops or _until(deadline, loops):
        loop_start = clock()
        sweep.round()
        _, result = wl.run_pass(slub, clock)
        result.runs.clear()
        tally.add(result)
        plain.append(result)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.patches(slub)):
            wall, result = wl.run_pass(slub, clock)
        tally.add(result)
        irregular = _irregular(result.runs)
        result.runs.clear()
        traced.append((wall, tracer, result, irregular))
        loops.append(clock() - loop_start)

    metrics = sweep.result()
    traced.sort(key=lambda item: item[0])
    wall, tracer, result, (zeros, total) = traced[(len(traced) - 1) // 2]
    tracer.dump(SPANS_DIR / f"spans_{wl.name}.csv.gz")
    summary = tracing.summarize(tracer, wall)
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for bucket, s in summary["self_s"].items():
        layer_self[bucket.split(".")[0]] += s
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_s"] = s
        metrics[f"{layer}.share"] = s / wall
        metrics[f"{layer}.calls"] = summary["calls"].get(layer, 0)
    for part in ("indicator", "projection", "step"):
        metrics[f"coupled.{part}_self_s"] = summary["self_s"].get(f"coupled.{part}", 0.0)
    metrics["coupled.irregular_frac"] = zeros / total if total else 0.0
    metrics["coupled.fresh_cells"] = tracer.fresh_cells
    metrics["diagnostics.witness_calls"] = summary["spans"].get("diagnostics.witness", 0)
    metrics["problems.exact_calls"] = summary["spans"].get("problems.exact", 0)
    metrics["cli.bytes_written"] = result.bytes_written
    metrics["cli.files_written"] = result.files_written
    metrics["trace.wall_s"] = wall
    metrics["trace.remainder_s"] = summary["remainder_s"]
    untraced = best_wall(plain)
    metrics["trace.overhead_frac"] = best_wall(item[2] for item in traced) / untraced - 1.0
    print(f"passes {len(plain)} untraced + {len(traced)} traced  spans/pass {len(tracer.spans)}  "
          f"layer self times + remainder = {sum(layer_self.values()) + summary['remainder_s']:.6f} s"
          f" of traced wall {wall:.6f} s")
    return metrics


def report(spec: list, values: dict) -> dict:
    """Metrics in BENCHMARK.json order, with their units."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slub" / "__init__.py").is_file():
        print(f"error: no slub package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(workloads.REFERENCES.read_text())
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    tmp_root = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        wl = workloads.Workload(args.workload, args.seed, refs, tmp_root)
        tally = Tally()
        if args.trace:
            values = per_layer(wl, args.seed, args.seconds, tally)
            metrics = report(bench["per_layer"], values)
        else:
            values = end_to_end(wl, args.seconds, tally)
            metrics = report(bench["end_to_end"], values)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {tally.failed / tally.attempted:.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} cases)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
