"""Tests for the command-line interface: manifests, artifact files,
exit codes, and reproducibility."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slub.harness
from slub.cli import (
    RunConfig,
    build_parser,
    cmd_compare,
    cmd_convergence,
    cmd_run,
    format_manifest,
    main,
    parse_manifest,
)
from slub.harness import resolve_grid, time_ladder
from slub.problems import get_problem, problem_names


def _resolved_config(out: str) -> RunConfig:
    return RunConfig(
        problem="adv-jump",
        scheme="coupled",
        m=39,
        nu=0.9,
        T=2.0,
        domain=(-2.0, 4.0),
        delta=0.3,
        epsilon=0.12,
        snapshots=(0, 5),
        out=out,
    )


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip_is_identity(tmp_path: Path) -> None:
    config = _resolved_config(str(tmp_path))
    assert parse_manifest(format_manifest(config)) == config


def test_manifest_preserves_float_precision(tmp_path: Path) -> None:
    config = replace(_resolved_config(str(tmp_path)), nu=0.1 + 0.2)
    back = parse_manifest(format_manifest(config))
    assert back.nu == config.nu  # bit-exact, not just approximately equal


# ---------------------------------------------------------------------------
# run artifacts


def test_cmd_run_writes_expected_files(tmp_path: Path) -> None:
    out = tmp_path / "r"
    config = RunConfig(problem="adv-jump", scheme="coupled", m=39, out=str(out))
    bundle = cmd_run(config)
    _, n_steps = time_ladder(get_problem("adv-jump"), 39)
    names = {p.name for p in bundle.solution_files}
    assert names == {"sol_coupled_step0.csv", f"sol_coupled_step{n_steps}.csv"}
    sigma_names = {p.name for p in bundle.sigma_files}
    assert sigma_names == {"sigma_step0.csv", f"sigma_step{n_steps}.csv"}
    assert bundle.tv_file.name == "tv_trace.csv"
    assert bundle.error_file.name == "errors.csv"
    assert bundle.manifest_file.name == "manifest.txt"
    for path in (
        *bundle.solution_files,
        *bundle.sigma_files,
        bundle.tv_file,
        bundle.error_file,
        bundle.manifest_file,
    ):
        assert path.exists() and path.stat().st_size > 0

    header = bundle.solution_files[0].read_text().splitlines()[0]
    assert header == "x,value"
    assert bundle.tv_file.read_text().splitlines()[0] == "step,tv,bound"
    err_lines = bundle.error_file.read_text().splitlines()
    assert err_lines[0] == "norm,value"
    assert [line.split(",")[0] for line in err_lines[1:]] == [
        "l1",
        "l2",
        "linf",
        "linf_reg",
    ]


def test_cmd_run_node_schemes_write_no_sigma_files(tmp_path: Path) -> None:
    bundle = cmd_run(RunConfig(problem="adv-smooth", scheme="sl", m=19, out=str(tmp_path)))
    assert bundle.sigma_files == ()


def test_cmd_run_rerun_from_manifest_is_byte_identical(tmp_path: Path) -> None:
    """The manifest pins every resolved default, so replaying it
    reproduces all artifacts exactly."""
    first = cmd_run(RunConfig(problem="adv-jump", scheme="coupled", m=39, out=str(tmp_path / "a")))
    config = parse_manifest(first.manifest_file.read_text())
    second = cmd_run(replace(config, out=str(tmp_path / "b")))

    def payload(bundle):
        files = sorted(
            [*bundle.solution_files, *bundle.sigma_files, bundle.tv_file, bundle.error_file],
            key=lambda p: p.name,
        )
        return [(p.name, p.read_bytes()) for p in files]

    assert payload(first) == payload(second)
    # manifests agree except for the output directory itself
    keep = lambda text: [ln for ln in text.splitlines() if not ln.startswith("out=")]
    assert keep(first.manifest_file.read_text()) == keep(second.manifest_file.read_text())


def test_cmd_run_rejects_snapshot_beyond_final_step(tmp_path: Path) -> None:
    config = RunConfig(
        problem="adv-smooth", scheme="sl", m=19, snapshots=(0, 9999), out=str(tmp_path)
    )
    with pytest.raises(ValueError):
        cmd_run(config)


# ---------------------------------------------------------------------------
# convergence and compare artifacts


def test_cmd_convergence_writes_tables(tmp_path: Path) -> None:
    table, txt_path, csv_path = cmd_convergence(
        "adv-jump", "sl", (19, 39), out=str(tmp_path)
    )
    assert txt_path.name == "conv_adv-jump_sl.txt"
    assert csv_path.name == "conv_adv-jump_sl.csv"
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["m", "dt", "dx", "l1", "l2", "linf", "linf_reg", "l1_order"]
    assert len(csv_path.read_text().splitlines()) == 3
    assert "linf_reg" in txt_path.read_text().splitlines()[0]


def test_cmd_convergence_single_row_has_no_order_column(tmp_path: Path) -> None:
    _, _, csv_path = cmd_convergence("adv-smooth", "sl", (19,), out=str(tmp_path))
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["m", "dt", "dx", "l1", "l2", "linf"]


def test_cmd_compare_columns_are_co_sampled(tmp_path: Path) -> None:
    results, sol_path, err_path = cmd_compare(
        "adv-smooth", 19, ("sl", "sl", "coupled"), out=str(tmp_path)
    )
    lines = sol_path.read_text().splitlines()
    assert lines[0] == "x,exact,sl,sl,coupled"
    body = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert body.shape[1] == 5
    # the same scheme run twice yields identical columns
    np.testing.assert_array_equal(body[:, 2], body[:, 3])
    # all columns sampled on the same node coordinates
    assert body.shape[0] == results[0].grid.m + 1
    err_lines = err_path.read_text().splitlines()
    assert err_lines[0] == "scheme,l1,l2,linf,linf_reg"
    assert [ln.split(",")[0] for ln in err_lines[1:]] == ["sl", "sl", "coupled"]


# ---------------------------------------------------------------------------
# parser and exit codes


def test_parser_accepts_documented_flags() -> None:
    parser = build_parser()
    args = parser.parse_args(
        [
            "run",
            "--problem", "adv-smooth",
            "--scheme", "sl",
            "--m", "19",
            "--nu", "0.5",
            "--T", "1.0",
            "--delta", "1e-3",
            "--epsilon", "1e-4",
            "--snapshots", "0,3",
            "--out", "somewhere",
        ]
    )
    assert args.command == "run"
    assert args.snapshots == "0,3"
    conv = parser.parse_args(
        ["convergence", "--problem", "adv-jump", "--scheme", "ub", "--ladder", "ex1"]
    )
    assert conv.ladder == "ex1"
    cmp_args = parser.parse_args(["compare", "--problem", "hj-abs", "--m", "39"])
    assert cmp_args.scheme == "sl,ub,coupled"


def test_main_run_prints_written_paths(tmp_path: Path, capsys) -> None:
    code = main(
        ["run", "--problem", "adv-smooth", "--scheme", "sl", "--m", "19",
         "--out", str(tmp_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(line.endswith("manifest.txt") for line in printed)


def test_main_unknown_problem_exits_nonzero(capsys) -> None:
    assert main(["run", "--problem", "missing", "--scheme", "sl"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_bad_ladder_exits_nonzero(tmp_path: Path, capsys) -> None:
    code = main(
        ["convergence", "--problem", "adv-smooth", "--scheme", "sl",
         "--ladder", "abc", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "bad ladder" in capsys.readouterr().err


def test_main_bad_snapshots_exits_nonzero(tmp_path: Path, capsys) -> None:
    code = main(
        ["run", "--problem", "adv-smooth", "--scheme", "sl",
         "--snapshots", "1,x", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "snapshot" in capsys.readouterr().err


def test_main_unknown_compare_scheme_exits_nonzero(tmp_path: Path, capsys) -> None:
    code = main(
        ["compare", "--problem", "adv-smooth", "--scheme", "sl,warp",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "unknown scheme" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--problem", "adv-smooth", "--scheme", "sl", "--T", "inf"],
         "T must be finite and positive"),
        (["run", "--problem", "adv-smooth", "--scheme", "sl", "--T", "0"],
         "T must be finite and positive"),
        (["convergence", "--problem", "adv-smooth", "--scheme", "sl", "--nu", "0"],
         "nu must lie in (0, 1]"),
        (["compare", "--problem", "adv-smooth", "--nu", "0"], "nu must lie in (0, 1]"),
        (["compare", "--problem", "adv-smooth", "--T", "-0.5"],
         "T must be finite and positive"),
        (["run", "--problem", "adv-smooth", "--scheme", "sl", "--nu", "1e-300"],
         "steps, more than MAX_STEPS"),
        (["convergence", "--problem", "adv-smooth", "--scheme", "sl", "--T", "1e300"],
         "steps, more than MAX_STEPS"),
        (["compare", "--problem", "adv-smooth", "--nu", "1e-300"],
         "steps, more than MAX_STEPS"),
    ],
    ids=["run-T-inf", "run-T-zero", "convergence-nu-zero", "compare-nu-zero",
         "compare-T-negative", "run-nu-tiny", "convergence-T-huge", "compare-nu-tiny"],
)
def test_main_bad_nu_or_horizon_exits_nonzero(
    argv: list, message: str, tmp_path: Path, capsys
) -> None:
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not any(tmp_path.iterdir())


def test_main_run_rejects_a_nan_epsilon(tmp_path: Path, capsys) -> None:
    argv = ["run", "--problem", "adv-jump", "--scheme", "coupled", "--m", "79",
            "--epsilon", "nan"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "need flat_tol >= 0, got nan" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_main_run_with_infinite_delta_writes_a_finite_first_bound(tmp_path: Path) -> None:
    """--delta inf (every node regular by size) writes bound = tv at
    step 0 and inf after it, never nan."""
    argv = ["run", "--problem", "adv-jump", "--scheme", "coupled", "--m", "79",
            "--delta", "inf", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = [line.split(",") for line in (tmp_path / "tv_trace.csv").read_text().splitlines()]
    assert rows[0] == ["step", "tv", "bound"]
    assert rows[1][0] == "0" and rows[1][2] == rows[1][1]
    assert all(row[2] == "inf" for row in rows[2:])
    assert "delta=inf" in (tmp_path / "manifest.txt").read_text()


def test_main_run_exits_nonzero_on_non_finite_step(
    nan_at_step_3: int, tmp_path: Path, capsys
) -> None:
    argv = ["run", "--problem", "adv-jump", "--scheme", "coupled", "--m", "79"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"at step 3: first non-finite value at node {nan_at_step_3}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_main_run_exits_nonzero_on_a_non_finite_step_in_a_later_block(
    poison_step, tmp_path: Path, capsys
) -> None:
    """A NaN or inf at the first step of the second block of diagnostics
    still exits 1 with an `error:` line naming that step and node, emits
    no RuntimeWarning and writes nothing."""
    m = 319
    n = resolve_grid(get_problem("adv-jump"), m).m + 1
    step = max(4, slub.harness._BLOCK_VALUES // n) + 1
    poison_step(step, 5)
    argv = ["run", "--problem", "adv-jump", "--scheme", "coupled", "--m", str(m)]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"at step {step}: first non-finite value at node 5" in err
    assert not any(tmp_path.iterdir())


def test_main_list_problems_shows_registry(capsys) -> None:
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in problem_names():
        assert name in out
    assert set(problem_names()) == {"adv-smooth", "adv-jump", "adv-mix", "adv-var", "hj-abs"}
