"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/collect.py --seeds 1-10 [--workloads a,b] [--trace 0] [--out FILE]

Runs `run.py` once per (workload, seed), one process at a time, and
prints for each metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
With --out it also writes that summary, with the raw values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = bench["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                             for m in spec[:4]), flush=True)
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
                        for m in spec},
        }
        for m in spec:
            s = summary[workload]["metrics"][m["name"]]
            bound = m.get("bound")
            print(f"  {m['name']:<44} median {s['median']:.6g} {m['unit']}  "
                  f"spread {s['spread']:.4f}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": parse_seeds(args.seeds),
                                        "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
