"""Regenerate references.json, the expected outputs of every case.

    python3 benchmarks/make_references.py

Run it from a source checkout at the commit whose outputs are the
reference.  It records, per ladder case, the four error norms, and per
CLI case, the SHA-256 of each file written (for the seeded adv-mix run:
of every snapshot in the pool, plus its manifest with the snapshot list
left as a token).  A run whose TV check or stability witness fails is
refused, since the benchmark would reject it anyway.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import slub  # noqa: E402
import slub.cli  # noqa: E402

import workloads  # noqa: E402


def ladder_references() -> dict:
    out = {}
    for workload in workloads.LADDER_PROBLEMS:
        for case in workloads.cases(workload):
            res = slub.harness.run_scheme(case.problem, case.schemes[0], case.m)
            if not (res.tv.ok and res.witness_max <= workloads.WITNESS_TOL):
                raise SystemExit(f"{case.key}: TV or stability witness fails")
            e = res.errors
            out[case.key] = {"l1": e.l1, "l2": e.l2, "linf": e.linf, "linf_reg": e.linf_reg}
    return out


def cli_references(tmp_root: Path) -> dict:
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    keys = list(workloads.CLI_CALLS)
    timer = workloads.PassTimer(slub, time.perf_counter)
    _, codes = workloads.run_cli(slub, keys, workloads.SNAPSHOT_POOL, workdir, timer)
    out = {}
    for key in keys:
        if codes[key] != 0:
            raise SystemExit(f"{key}: exit code {codes[key]}")
        files = {p.name: workloads.sha256(p) for p in sorted((workdir / key).iterdir())}
        ref: dict = {}
        if "manifest.txt" in files:
            del files["manifest.txt"]
            lines = (workdir / key / "manifest.txt").read_text().splitlines(keepends=True)
            if key == "run_mix":
                lines = [f"snapshots={workloads.SNAPSHOT_TOKEN}\n"
                         if line.startswith("snapshots=") else line for line in lines]
            ref["manifest"] = "".join(lines)
        if key == "run_mix":
            ref["snapshot_files"] = {n: d for n, d in files.items() if n.startswith(("sol_", "sigma_"))}
            files = {n: d for n, d in files.items() if n not in ref["snapshot_files"]}
        ref["files"] = files
        out[key] = ref
    return out


def main() -> int:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip() or None
    tmp_root = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        refs = {"commit": sha, "runs": ladder_references(), "cli": cli_references(tmp_root)}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES} ({len(refs['runs'])} runs, {len(refs['cli'])} CLI cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
