"""The three benchmark workloads, their passes and their output checks.

Each workload is a closed loop with one client: its cases run one after
another in one process, in an order shuffled by the seed.  A pass runs
every case once; the benchmark times passes and checks each one against
`references.json`.

transport-ladder  convergence_table for sl/ub/coupled on the four
                  advection problems over their ladders.  Cell kernel,
                  witnesses + TV, indicator and projections; the HJ node
                  kernel and the Hopf-Lax oracle never run.
erosion-ladder    the same three schemes on the hj-abs ladder.  The
                  201-control HJ node update and the oracle dominate;
                  the cell kernel does little.
cli-artifacts     in-process `slub.cli.main` runs and compares writing
                  CSV files: the only workload with formatting, file
                  writes and snapshot / sigma-history storage.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import patched

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

SCHEMES = ("sl", "ub", "coupled")
# Ladders pinned to the presets at the commit that defined the
# benchmark, so a later change of a preset cannot change the workload.
LADDERS = {
    "adv-smooth": (19, 39, 79, 159, 319, 639),
    "adv-jump": (19, 39, 79, 159, 319, 639),
    "adv-mix": (100, 200, 400, 800, 1600),
    "adv-var": (19, 39, 79, 159, 319, 639),
    "hj-abs": (19, 39, 79, 159, 319, 639),
}
LADDER_PROBLEMS = {
    "transport-ladder": ("adv-smooth", "adv-jump", "adv-mix", "adv-var"),
    "erosion-ladder": ("hj-abs",),
}

# cli-artifacts: the adv-mix run keeps SNAPSHOT_COUNT snapshots drawn
# by the seed from a fixed pool of steps, so every draw has reference
# files; the adv-mix m=1600 run takes 1280 steps.
SNAPSHOT_POOL = tuple(range(0, 1281, 20))
SNAPSHOT_COUNT = 24
CLI_CALLS = {
    "run_mix": ("run", "--problem", "adv-mix", "--scheme", "coupled", "--m", "1600"),
    "run_jump": ("run", "--problem", "adv-jump", "--scheme", "coupled", "--m", "639"),
    "cmp_mix": ("compare", "--problem", "adv-mix", "--m", "1600"),
    "cmp_hj": ("compare", "--problem", "hj-abs", "--m", "639"),
}
SNAPSHOT_TOKEN = "@SNAPSHOTS@"
WORKLOADS = ("transport-ladder", "erosion-ladder", "cli-artifacts")

ROUNDOFF = 1e-12  # error norms below this only need to stay below it
REL_TOL = 1e-12
WITNESS_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One unit of checked work: a ladder rung or one CLI call."""

    key: str
    problem: str
    schemes: tuple
    m: int


def cases(workload: str) -> list[Case]:
    """Every case of a workload, in canonical order."""
    if workload in LADDER_PROBLEMS:
        return [
            Case(f"{p}/{s}/{m}", p, (s,), m)
            for p in LADDER_PROBLEMS[workload]
            for s in SCHEMES
            for m in LADDERS[p]
        ]
    if workload == "cli-artifacts":
        out = []
        for key, argv in CLI_CALLS.items():
            opts = dict(zip(argv[1::2], argv[2::2]))
            schemes = (opts["--scheme"],) if "--scheme" in opts else SCHEMES
            out.append(Case(key, opts["--problem"], schemes, int(opts["--m"])))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_cases(slub, workload: str) -> int:
    """Build every case's grid, time ladder and operators; return the
    total number of time steps the workload takes."""
    harness = slub.harness
    steps = 0
    for case in cases(workload):
        problem = slub.problems.get_problem(case.problem)
        for _ in case.schemes:
            grid = harness.resolve_grid(problem, case.m)
            dt, n_steps = harness.time_ladder(problem, case.m)
            harness.make_operators(problem, grid, dt)
            steps += n_steps
    return steps


@dataclass
class PassResult:
    """Outcome of one pass: cases attempted and failed, the pass split
    into timed segments, and what the traced run needs (run results,
    files written)."""

    attempted: int
    failed: list
    runs: list
    segments: dict
    speeds: dict
    files_written: int = 0
    bytes_written: int = 0


class PassTimer:
    """Splits a pass's wall time into segments that sum to it.

    Every `run_scheme` call is a segment ("<case>#<i>"), the rest of a
    case call around its runs is another ("<case>"), and the pass time
    outside any case is the segment "".  Segment keys repeat from pass
    to pass, so the same piece of work can be compared across passes.
    With a `probe` (speed.probe), every run and every case entry and
    exit is probed; `speeds` holds the mean probe seconds around each
    segment, and the probes' own time is left out of every segment.
    """

    def __init__(self, slub, clock, probe=None):
        self.slub = slub
        self.clock = clock
        self.probe = probe
        self.probe_s = 0.0  # seconds spent probing, left out of every segment
        self.runs: list = []
        self.run_times: list = []
        self.run_speeds: list = []
        self.segments: dict = {}
        self.speeds: dict = {}  # segment -> probe seconds around it

    def _probe(self) -> float:
        """Probe seconds now (speed.probe), or 1.0 without a probe."""
        if self.probe is None:
            return 1.0
        start = self.clock()
        seconds = self.probe(self.clock)
        self.probe_s += self.clock() - start
        return seconds

    def patches(self):
        """Patches that record each RunResult and its duration."""
        out = []
        for module in (self.slub.harness, self.slub.cli):
            original = module.__dict__["run_scheme"]

            def run_scheme(*args, _original=original, **kwargs):
                before = self._probe()
                start = self.clock()
                res = _original(*args, **kwargs)
                self.run_times.append(self.clock() - start)
                self.run_speeds.append(0.5 * (before + self._probe()))
                self.runs.append(res)
                return res

            run_scheme.__wrapped__ = original
            out.append((module, "run_scheme", run_scheme))
        return out

    @contextlib.contextmanager
    def case(self, key: str):
        first = len(self.run_times)
        probed = self.probe_s
        start = self.clock()
        entry = self._probe()
        try:
            yield
        finally:
            exit_ = self._probe()
            total = self.clock() - start - (self.probe_s - probed)
            own = self.run_times[first:]
            own_speeds = self.run_speeds[first:]
            for i, t in enumerate(own):
                self.segments[f"{key}#{i}"] = t
                self.speeds[f"{key}#{i}"] = own_speeds[i]
            self.segments[key] = total - sum(own)
            around = [entry, exit_, *own_speeds]
            self.speeds[key] = sum(around) / len(around)

    def close(self, elapsed: float) -> float:
        """Close the pass that took `elapsed` seconds in all; return
        its seconds without the probes."""
        elapsed -= self.probe_s
        self.segments[""] = elapsed - sum(self.segments.values())
        speeds = sorted(self.speeds.values()) or [self._probe()]
        self.speeds[""] = speeds[len(speeds) // 2]
        return elapsed


def _close(value: float, ref: float) -> bool:
    if abs(ref) < ROUNDOFF:
        return abs(value) < ROUNDOFF
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_run(res, ref: dict) -> list[str]:
    """Problems with one finished run, empty when it is correct."""
    bad = []
    e = res.errors
    for norm in ("l1", "l2", "linf", "linf_reg"):
        if not _close(getattr(e, norm), ref[norm]):
            bad.append(f"{norm}={getattr(e, norm)!r} reference {ref[norm]!r}")
    if not res.tv.ok:
        bad.append(f"tv not ok: max violation {res.tv.max_violation!r}")
    if not res.witness_max <= WITNESS_TOL:
        bad.append(f"witness_max={res.witness_max!r}")
    return bad


def ladder_pass(slub, order: list, refs: dict, clock, probe=None) -> tuple:
    """Run each (problem, scheme) table in `order`; return (seconds,
    PassResult).  Only the convergence_table calls are timed, without
    the probes."""
    timer = PassTimer(slub, clock, probe)
    tables = []
    with patched(timer.patches()):
        start = clock()
        for problem, scheme in order:
            first = len(timer.runs)
            with timer.case(f"{problem}/{scheme}"):
                try:
                    table = slub.harness.convergence_table(problem, scheme, ms=LADDERS[problem])
                except Exception:  # a broken case counts as failed, the pass goes on
                    traceback.print_exc()
                    table = None
            tables.append((problem, scheme, table, first, len(timer.runs)))
        elapsed = clock() - start
    elapsed = timer.close(elapsed)
    result = PassResult(attempted=0, failed=[], runs=timer.runs, segments=timer.segments,
                        speeds=timer.speeds)
    for problem, scheme, table, first, last in tables:
        ladder = LADDERS[problem]
        for i, m in enumerate(ladder):
            key = f"{problem}/{scheme}/{m}"
            result.attempted += 1
            if table is None or last - first != len(ladder):
                result.failed.append(key)
                continue
            res, row = timer.runs[first + i], table.rows[i]
            bad = check_run(res, refs["runs"][key])
            if (row.m, row.l1, row.l2, row.linf) != (m, res.errors.l1, res.errors.l2, res.errors.linf):
                bad.append("table row differs from its run")
            if bad:
                print(f"check failed: {key}: {'; '.join(bad)}", flush=True)
                result.failed.append(key)
    return elapsed, result


@contextlib.contextmanager
def _inside(path: Path):
    """Work in `path` so the manifests record relative output dirs."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_argv(key: str, snapshots) -> list[str]:
    argv = list(CLI_CALLS[key]) + ["--out", key]
    if key == "run_mix":
        argv += ["--snapshots", ",".join(str(k) for k in snapshots)]
    return argv


def run_cli(slub, keys, snapshots, workdir: Path, timer: PassTimer) -> tuple:
    """Call `slub.cli.main` for each key inside `workdir`, timing each
    call as a case of `timer`; return (seconds, {key: exit code})."""
    codes = {}
    sink = io.StringIO()
    clock = timer.clock
    with _inside(workdir), contextlib.redirect_stdout(sink), patched(timer.patches()):
        start = clock()
        for key in keys:
            with timer.case(key):
                try:
                    codes[key] = slub.cli.main(cli_argv(key, snapshots))
                except Exception:  # a broken case counts as failed, the pass goes on
                    traceback.print_exc()
                    codes[key] = None
        elapsed = clock() - start
    return timer.close(elapsed), codes


def expected_files(key: str, refs: dict, snapshots) -> dict:
    """{file name: sha256} that a CLI case must leave in its out dir."""
    ref = refs["cli"][key]
    files = dict(ref["files"])
    if "snapshot_files" in ref:
        for k in snapshots:
            for name in (f"sol_coupled_step{k}.csv", f"sigma_step{k}.csv"):
                files[name] = ref["snapshot_files"][name]
    if "manifest" in ref:
        text = ref["manifest"].replace(SNAPSHOT_TOKEN, ",".join(str(k) for k in snapshots))
        files["manifest.txt"] = hashlib.sha256(text.encode("ascii")).hexdigest()
    return files


def check_cli_dir(out: Path, expected: dict) -> list[str]:
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    bad = [f"missing {n}" for n in sorted(set(expected) - found)]
    bad += [f"unexpected {n}" for n in sorted(found - set(expected))]
    bad += [
        f"sha256 differs: {n}"
        for n in sorted(set(expected) & found)
        if sha256(out / n) != expected[n]
    ]
    return bad


def replay_manifests(slub, workdir: Path, tmp_root: Path) -> dict:
    """Rerun each `run` case from its written manifest in a fresh
    directory; return {key: problems} where the replay is not byte
    identical to the original output."""
    out = {}
    for key in CLI_CALLS:
        if CLI_CALLS[key][0] != "run" or not (workdir / key / "manifest.txt").is_file():
            continue
        config = slub.cli.parse_manifest((workdir / key / "manifest.txt").read_text())
        replay_dir = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            with _inside(replay_dir):
                try:
                    slub.cli.cmd_run(config)
                except Exception as exc:  # reported as a failed case
                    out[key] = [f"replay raised {exc!r}"]
                    continue
            original = {p.name: p.read_bytes() for p in (workdir / key).iterdir()}
            replayed = {p.name: p.read_bytes() for p in (replay_dir / config.out).iterdir()}
            if original != replayed:
                out[key] = [f"replay differs: {n}" for n in sorted(set(original) | set(replayed))
                            if original.get(n) != replayed.get(n)]
        finally:
            shutil.rmtree(replay_dir)
    return out


def cli_pass(slub, order: list, snapshots, refs: dict, tmp_root: Path, clock,
             replay: bool = False, probe=None) -> tuple:
    """One cli-artifacts pass in a fresh directory; return (seconds,
    PassResult)."""
    timer = PassTimer(slub, clock, probe)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        elapsed, codes = run_cli(slub, order, snapshots, workdir, timer)
        result = PassResult(attempted=len(order), failed=[], runs=timer.runs,
                            segments=timer.segments, speeds=timer.speeds)
        files = [p for p in workdir.rglob("*") if p.is_file()]
        result.files_written = len(files)
        result.bytes_written = sum(p.stat().st_size for p in files)
        replayed = replay_manifests(slub, workdir, tmp_root) if replay else {}
        for key in order:
            bad = [] if codes[key] == 0 else [f"exit code {codes[key]}"]
            bad += check_cli_dir(workdir / key, expected_files(key, refs, snapshots))
            bad += replayed.get(key, [])
            if bad:
                print(f"check failed: {key}: {'; '.join(bad)}", flush=True)
                result.failed.append(key)
    finally:
        shutil.rmtree(workdir)
    return elapsed, result


class Workload:
    """A workload bound to a seed, which fixes the case order of every
    pass and the cli-artifacts snapshot steps."""

    def __init__(self, name: str, seed: int, refs: dict, tmp_root: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.refs = refs
        self.tmp_root = tmp_root
        self.rng = random.Random(seed)
        self.snapshots = tuple(sorted(self.rng.sample(SNAPSHOT_POOL, SNAPSHOT_COUNT)))
        self.replayed = False

    def run_pass(self, slub, clock, probe=None) -> tuple:
        """(seconds, PassResult) of one pass in a fresh shuffled order;
        with `probe` (speed.probe), every segment is probed around."""
        if self.name == "cli-artifacts":
            order = list(CLI_CALLS)
            self.rng.shuffle(order)
            replay, self.replayed = not self.replayed, True
            return cli_pass(slub, order, self.snapshots, self.refs, self.tmp_root,
                            clock, replay=replay, probe=probe)
        order = [(p, s) for p in LADDER_PROBLEMS[self.name] for s in SCHEMES]
        self.rng.shuffle(order)
        return ladder_pass(slub, order, self.refs, clock, probe)
