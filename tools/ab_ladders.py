"""Paired in-process ladder passes of two commits: a quick A/B reading.

Exports the parent and the change with `git archive`, as
`tools/bench_pairs.py` does, and imports each export's `src/slub` under
its own package name (`slub_parent`, `slub_change`) in this one
process.  It then alternates passes of the workload's ladders, the
parent first in pairs 1, 3, ...  A pass is `convergence_table` of every
problem x scheme over each problem's own `m_ladder`: the four advection
problems for `transport`, hj-abs for `erosion`.  Each pass is timed by
`time.thread_time`, the CPU time of this thread, after one untimed pass
per side.  Prints both sides' median pass, the median over pairs of
change / parent, and the number of pairs the change ran faster.

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
import gc
import importlib.util
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


def load(src: Path, name: str):
    """The package at src/slub, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "slub" / "__init__.py", submodule_search_locations=[str(src / "slub")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(slub, problems) -> float:
    """Thread CPU seconds of one ladder pass of every problem x scheme."""
    gc.collect()
    start = time.thread_time()
    for name in problems:
        for scheme in slub.harness.SCHEMES:
            slub.harness.convergence_table(name, scheme)
    return time.thread_time() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default=None, help="default: the tree of the git index")
    p.add_argument("--workload", choices=sorted(PROBLEMS), required=True)
    p.add_argument("--pairs", type=int, default=16)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    refs = {"parent": args.parent, "change": args.change or git("write-tree")}
    problems = PROBLEMS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, ref in refs.items():
            export(ref, Path(tmp) / side)
            sides[side] = load(Path(tmp) / side / "src", f"slub_{side}")
        for slub in sides.values():
            timed_pass(slub, problems)  # warm-up
        times = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(timed_pass(sides[side], problems))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: {args.pairs} pairs, thread CPU seconds per pass")
    for side in sides:
        print(f"  {side:6} {refs[side]:>12.12}  median {statistics.median(times[side]):.4f} s")
    print(f"  median change / parent {statistics.median(ratios):.3f}, "
          f"change faster in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
