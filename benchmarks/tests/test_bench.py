"""Tests of the benchmark itself: span arithmetic, wrapper removal,
speed probes, traced/untraced agreement and the output checks.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import slub  # noqa: E402
import slub.cli  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads(workloads.REFERENCES.read_text())


def _tracer_with(spans, names):
    tracer = tracing.Tracer()
    tracer.names = list(names)
    tracer.spans = list(spans)
    return tracer


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (itself holding [2, 3]) and b [5, 9]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_count_overlapping_children_once():
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 3.0, 6.0, 0), (1, 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_buckets_calls_and_remainder():
    names = ["harness:run_scheme", "ultrabee:cell_update", "ultrabee:ub_step_values",
             "coupled.indicator:classify_regularity"]
    spans = [
        (0, 1.0, 9.0, -1),
        (1, 2.0, 5.0, 0),
        (2, 2.5, 3.5, 1),
        (2, 3.5, 4.5, 1),
        (3, 6.0, 7.0, 0),
    ]
    summary = tracing.summarize(_tracer_with(spans, names), wall_s=10.0)
    assert summary["self_s"] == pytest.approx(
        {"harness": 4.0, "ultrabee": 3.0, "coupled.indicator": 1.0})
    # the two ub_step_values spans sit inside cell_update: one entry
    assert summary["calls"] == {"harness": 1, "ultrabee": 1, "coupled": 1}
    assert summary["spans"]["ultrabee"] == 3
    assert summary["remainder_s"] == pytest.approx(2.0)
    total = sum(summary["self_s"].values()) + summary["remainder_s"]
    assert total == pytest.approx(10.0)


def test_wrapped_calls_record_their_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "ultrabee:inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "harness:outer")
    assert outer(1) == 4
    (child_id, c0, c1, child_parent), (root_id, r0, r1, root_parent) = tracer.spans[1], tracer.spans[0]
    assert tracer.names[root_id] == "harness:outer" and root_parent == -1
    assert tracer.names[child_id] == "ultrabee:inner" and child_parent == 0
    assert r0 <= c0 <= c1 <= r1


def _patched_attributes():
    out = {}
    for owner, attr, _ in tracing.PATCHES:
        obj = tracing.resolve_owner(slub, owner)
        out[(owner, attr)] = obj.__dict__.get(attr)
    return out


def _run(order, traced: bool):
    tracer = tracing.Tracer()
    pairs = tracer.patches(slub) if traced else []
    with tracing.patched(pairs):
        _, result = workloads.ladder_pass(slub, order, REFS, time.perf_counter)
    return tracer, result


def test_every_wrapper_is_removed_after_a_traced_pass():
    before = _patched_attributes()
    tracer, result = _run([("adv-jump", "coupled"), ("hj-abs", "ub")], traced=True)
    assert not result.failed and tracer.spans
    assert _patched_attributes() == before
    assert slub.harness.ub_step_values is slub.ultrabee.ub_step_values
    assert slub.harness.run_scheme is slub.cli.run_scheme
    assert slub.harness.resolve_grid is slub.cli.resolve_grid
    assert slub.coupled.classify_regularity.__module__ == "slub.coupled"
    assert not hasattr(slub.coupled.classify_regularity, "__wrapped__")
    assert not hasattr(slub.problems.ProblemSpec.exact, "__wrapped__")
    assert not hasattr(slub.cli.main, "__wrapped__")


def test_names_the_package_lacks_are_skipped(monkeypatch):
    monkeypatch.delattr(slub.harness, "legendre_transform")
    patched_names = {(obj, attr) for obj, attr, _ in tracing.Tracer().patches(slub)}
    assert (slub.harness, "legendre_transform") not in patched_names
    assert (slub.harness, "ub_step_values") in patched_names


def test_wrappers_are_removed_when_the_pass_raises():
    before = _patched_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracing.patched(tracing.Tracer().patches(slub)):
            1 / 0
    assert _patched_attributes() == before


def test_traced_and_untraced_runs_give_identical_error_norms():
    order = [("adv-jump", "coupled"), ("adv-var", "ub"), ("hj-abs", "coupled")]
    _, plain = _run(order, traced=False)
    tracer, traced = _run(order, traced=True)
    assert not plain.failed and not traced.failed
    assert [r.errors for r in plain.runs] == [r.errors for r in traced.runs]
    assert tracer.fresh_cells > 0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_probes_are_left_out_of_segments_and_recorded_as_speeds():
    clock = _Clock()

    def probe(c):  # the machine at half the reference speed
        clock.t += 2 * speed.REF_S
        return 2 * speed.REF_S

    timer = workloads.PassTimer(slub, clock, probe)
    with timer.case("a"):
        clock.t += 1.0
    clock.t += 0.5
    assert timer.close(clock.t) == pytest.approx(1.5)
    assert timer.segments == pytest.approx({"a": 1.0, "": 0.5})
    assert timer.speeds == pytest.approx({"a": 2 * speed.REF_S, "": 2 * speed.REF_S})
    assert timer.probe_s == pytest.approx(4 * speed.REF_S)


def test_ref_time_reads_segments_at_the_reference_speed():
    def result(scale, a, b):
        return workloads.PassResult(
            attempted=0, failed=[], runs=[], segments={"a": scale * a, "b": scale * b},
            speeds={"a": scale * speed.REF_S, "b": scale * speed.REF_S})

    # the same pass on a machine 1.7x slower reads the same; medians per segment
    passes = [result(1.0, 1.0, 2.0), result(1.7, 1.0, 2.0), result(1.0, 3.0, 2.4)]
    assert run.ref_time(passes) == pytest.approx(1.0 + 2.0)


def test_probed_pass_times_every_segment():
    _, result = workloads.ladder_pass(slub, [("adv-jump", "coupled")], REFS,
                                      run.cpu_clock, speed.probe)
    assert not result.failed
    assert set(result.speeds) == set(result.segments)
    assert all(s > 0 for s in result.speeds.values())


def test_a_wrong_reference_fails_the_case():
    refs = json.loads(json.dumps(REFS))
    refs["runs"]["adv-jump/sl/19"]["l1"] *= 1.0 + 1e-9
    _, result = workloads.ladder_pass(slub, [("adv-jump", "sl")], refs, time.perf_counter)
    assert result.failed == ["adv-jump/sl/19"]
    assert result.attempted == len(workloads.LADDERS["adv-jump"])


def test_cli_outputs_match_references_and_replay(tmp_path):
    snapshots = workloads.Workload("cli-artifacts", 3, REFS, tmp_path).snapshots
    timer = workloads.PassTimer(slub, time.perf_counter)
    _, codes = workloads.run_cli(slub, ["run_jump"], snapshots, tmp_path, timer)
    assert codes == {"run_jump": 0}
    expected = workloads.expected_files("run_jump", REFS, snapshots)
    assert workloads.check_cli_dir(tmp_path / "run_jump", expected) == []
    assert workloads.replay_manifests(slub, tmp_path, tmp_path) == {}
    errors = tmp_path / "run_jump" / "errors.csv"
    errors.write_text(errors.read_text().replace("l1,", "l1,9"))
    assert workloads.check_cli_dir(tmp_path / "run_jump", expected) == ["sha256 differs: errors.csv"]


def test_seed_fixes_the_snapshot_draw(tmp_path):
    a = workloads.Workload("cli-artifacts", 7, REFS, tmp_path).snapshots
    b = workloads.Workload("cli-artifacts", 7, REFS, tmp_path).snapshots
    c = workloads.Workload("cli-artifacts", 8, REFS, tmp_path).snapshots
    assert a == b != c
    assert len(a) == workloads.SNAPSHOT_COUNT and set(a) <= set(workloads.SNAPSHOT_POOL)


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "erosion-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
