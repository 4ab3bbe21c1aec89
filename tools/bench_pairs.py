"""Alternating benchmark pairs of two commits, written as BENCH_<label>.json.

Exports the parent and the change with `git archive` into a scratch
directory, then runs `benchmarks/run.py` of each export for every
workload of BENCHMARK.json and every seed, one run at a time,
alternating which side goes first (the parent in the first pair, the
third, and so on).  Each run's last stdout line is kept unedited.  The
summary gives, per workload and end-to-end metric of BENCHMARK.json,
both sides' quartiles (inclusive method), the median change as a
fraction of the parent's median, the parent's IQR and the number of
pairs whose change ran lower.  Optionally one `--trace 1` run
per side is added, for the per-layer readings.

    python3 tools/bench_pairs.py --label 17 --parent HEAD~1 --change HEAD \\
        --seeds 41-50 --seconds 25 --trace-seed 13

`--change` defaults to the tree of the git index (`git write-tree`),
so staged but uncommitted work can be measured against HEAD.  Each run
gets PYTHONDONTWRITEBYTECODE=1 whatever the caller set, so no export
gains a `__pycache__` and every `setup_s` includes compiling slub (a
leftover one read 0.018 s against 0.042 s).  The
script reads `benchmarks/` and never writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The tree of `ref` (a commit or a tree) unpacked into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def parse_seeds(text: str) -> list:
    """'41-50' or '41,43,47' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last stdout line of one benchmark run, parsed."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list, workload: str, seeds: list, metrics: list) -> dict:
    """Per-metric quartiles, median change and pair wins of one workload."""
    by = {(r["seed"], r["side"]): r["result"] for r in runs if r["workload"] == workload}
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "correct_all": all(res["correct"] for res in by.values()),
        "failed": sum(res["failed"] for res in by.values()),
    }
    for name in metrics:
        side = {s: [by[(seed, s)]["metrics"][name]["value"] for seed in seeds]
                for s in ("parent", "change")}
        parent_q, change_q = quartiles(side["parent"]), quartiles(side["change"])
        wins = sum(c < p for p, c in zip(side["parent"], side["change"]))
        out[name] = {
            "parent_q1_median_q3": parent_q,
            "change_q1_median_q3": change_q,
            "change_lower_in_pairs": f"{wins}/{len(seeds)}",
            "median_change_frac": change_q[1] / parent_q[1] - 1.0,
            "parent_iqr": parent_q[2] - parent_q[0],
        }
    return out


def host() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    p.add_argument("--parent", default="HEAD")
    p.add_argument("--change", default=None, help="default: the tree of the git index")
    p.add_argument("--seeds", default="41-50")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace-seed", type=int, default=None,
                   help="add one --trace 1 transport-ladder run per side at this seed")
    p.add_argument("--scratch", default=None, help="directory for the exports (default: a temp dir)")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    seeds = parse_seeds(args.seeds)
    change = args.change or git("write-tree")
    refs = {"parent": args.parent, "change": change}
    record = {
        "what": (f"benchmarks/run.py --workload W --seed N --seconds {args.seconds} --trace 0 "
                 "with PYTHONDONTWRITEBYTECODE=1 (every setup compiles slub from source); "
                 "parent and change each from a fresh `git archive` export, alternating which "
                 "side ran first (the parent in pairs 1, 3, ...); each entry's `result` is the "
                 "last stdout line of run.py, unedited"),
        "parent_commit": git("rev-parse", args.parent),
        "parent_src_tree": git("rev-parse", f"{args.parent}:src"),
        "change_src_tree": git("rev-parse", f"{change}:src"),
        "host": host(),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        checkouts = {side: Path(tmp) / side for side in refs}
        for side, ref in refs.items():
            export(ref, checkouts[side])
        for workload in workloads:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_once(checkouts[side], workload, seed, args.seconds, 0)
                    record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                           "position": position, "result": result})
                    print(workload, seed, side, result["metrics"]["pass_s"]["value"], flush=True)
            record["summary"][workload] = summarize(record["runs"], workload, seeds, metrics)
        if args.trace_seed is not None:
            record["traced"] = {
                "what": (f"one --trace 1 run per side, transport-ladder seed {args.trace_seed}: "
                         "per-layer readings, not gated"),
                "runs": [{"workload": "transport-ladder", "seed": args.trace_seed, "side": side,
                          "result": run_once(checkouts[side], "transport-ladder",
                                             args.trace_seed, args.seconds, 1)}
                         for side in refs],
            }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
