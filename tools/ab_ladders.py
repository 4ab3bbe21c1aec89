"""Paired in-process passes of two commits: a quick A/B reading.

Exports the parent and the change with `git archive`, as
`tools/bench_pairs.py` does, and imports each export's `src/slub` under
its own package name (`slub_parent`, `slub_change`) in this one
process.  It then alternates passes of the workload, the parent first
in pairs 1, 3, ...  A ladder pass is `convergence_table` of every
problem x scheme over each problem's own `m_ladder`: the four advection
problems for `transport`, hj-abs for `erosion`.  A `cli` pass makes the
four calls of the benchmark's cli-artifacts workload through
`slub.cli.main` in a temporary directory: `run` adv-mix coupled at
m = 1600 with 24 snapshots, `run` adv-jump coupled at m = 639, and
`compare` adv-mix at m = 1600 and hj-abs at m = 639.  An `import` pass
drops the side's package from `sys.modules` and imports its `slub` and
`slub.cli` afresh; no bytecode is written (`sys.dont_write_bytecode`),
so each import compiles from source, as the benchmark's setup does.
Each pass is timed by `time.thread_time`, the CPU time of this thread,
after one untimed pass per side.  Prints both sides' median pass, the
median and the quartiles over pairs of change / parent, and the number
of pairs the change ran faster.

    python3 tools/ab_ladders.py --parent HEAD --workload transport --pairs 24

`--change` defaults to the tree of the git index, so staged work can be
read against HEAD.  On a 2-core Xeon host an A/A run (the same tree on
both sides, 16 pairs) read median ratios of 1.02 on transport and 1.00
on erosion, while one `benchmarks/run.py` run per side can swing about
2x there.  So this is a quick reading of a change in progress; a speed
claim still cites the `BENCH_<label>.json` of `tools/bench_pairs.py`.
The script writes nothing under `benchmarks/` and nothing in the repo.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git  # noqa: E402

PROBLEMS = {
    "transport": ("adv-smooth", "adv-jump", "adv-mix", "adv-var"),
    "erosion": ("hj-abs",),
}
# the cli-artifacts calls of benchmarks/workloads.py, 24 snapshots of its pool
CLI_CALLS = (
    ("run", "--problem", "adv-mix", "--scheme", "coupled", "--m", "1600",
     "--snapshots", ",".join(str(k) for k in range(0, 960, 40))),
    ("run", "--problem", "adv-jump", "--scheme", "coupled", "--m", "639"),
    ("compare", "--problem", "adv-mix", "--m", "1600"),
    ("compare", "--problem", "hj-abs", "--m", "639"),
)


def load(src: Path, name: str):
    """The package at src/slub, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "slub" / "__init__.py", submodule_search_locations=[str(src / "slub")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(slub, workload: str) -> float:
    """Thread CPU seconds of one pass: a ladder of every problem x
    scheme, or the cli calls, each into its own directory of a fresh
    temporary one, their printed lines discarded, or a fresh import."""
    if workload == "import":
        name = slub.__name__
        for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
            del sys.modules[key]
        gc.collect()
        start = time.thread_time()
        load(Path(slub.__file__).parents[1], name)
        importlib.import_module(f"{name}.cli")
        return time.thread_time() - start
    gc.collect()
    if workload != "cli":
        start = time.thread_time()
        for name in PROBLEMS[workload]:
            for scheme in slub.harness.SCHEMES:
                slub.harness.convergence_table(name, scheme)
        return time.thread_time() - start
    main = importlib.import_module(f"{slub.__name__}.cli").main
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(io.StringIO()):
        start = time.thread_time()
        for k, argv in enumerate(CLI_CALLS):
            if main([*argv, "--out", f"call{k}"]) != 0:
                raise RuntimeError(f"{slub.__name__}: {' '.join(argv)} failed")
        return time.thread_time() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default=None, help="default: the tree of the git index")
    p.add_argument("--workload", choices=sorted(PROBLEMS) + ["cli", "import"], required=True)
    p.add_argument("--pairs", type=int, default=16)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    refs = {"parent": args.parent, "change": args.change or git("write-tree")}
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, ref in refs.items():
            export(ref, Path(tmp) / side)
            sides[side] = load(Path(tmp) / side / "src", f"slub_{side}")
        for slub in sides.values():
            timed_pass(slub, args.workload)  # warm-up
        times = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(timed_pass(sides[side], args.workload))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1
                 else ratios * 3)
    print(f"{args.workload}: {args.pairs} pairs, thread CPU seconds per pass")
    for side in sides:
        print(f"  {side:6} {refs[side]:>12.12}  median {statistics.median(times[side]):.4f} s")
    print(f"  change / parent: median {statistics.median(ratios):.3f} "
          f"(q1 {q1:.3f}, q3 {q3:.3f}), change faster in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
