"""Tests for the command-line interface: manifests, artifact files,
exit codes, and reproducibility."""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slub.cli
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
from slub.harness import (
    ConvergenceRow,
    ConvergenceTable,
    convergence_table,
    make_operators,
    resolve_grid,
    run_scheme,
    time_ladder,
)
from slub.problems import REGISTRY, get_problem, problem_names

RUNS = Path(__file__).resolve().parents[1] / "runs"


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
    """`run_scheme` checks the steps; a negative one is refused alike."""
    for snapshots in ((0, 9999), (12,), (-1, 11)):
        config = RunConfig(
            problem="adv-smooth", scheme="sl", m=19, snapshots=snapshots, out=str(tmp_path)
        )
        with pytest.raises(ValueError, match=r"snapshot step -?\d+ outside \[0, 11\]"):
            cmd_run(config)
    assert not any(tmp_path.iterdir())


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


def test_convergence_text_and_csv_share_one_row_builder(
    tmp_path: Path, monkeypatch
) -> None:
    """The bytes of both tables, for a table built by hand: the text
    widths and formats, the blank first order, and the CSV numbers."""
    rows = (
        ConvergenceRow(m=19, dx=0.21052631578947367, dt=0.18181818181818182, n_steps=11,
                       l1=0.123456789012345, l2=0.05, linf=0.9, linf_reg=0.25),
        ConvergenceRow(m=39, dx=0.10256410256410256, dt=0.09090909090909091, n_steps=22,
                       l1=0.0625, l2=0.025, linf=0.5, linf_reg=0.125),
        ConvergenceRow(m=79, dx=0.05063291139240506, dt=0.045454545454545456, n_steps=44,
                       l1=0.0625, l2=0.0125, linf=0.5, linf_reg=1e-20),
    )
    table = ConvergenceTable("adv-jump", "sl", rows, has_reg_column=True)
    monkeypatch.setattr(slub.cli, "convergence_table", lambda *args, **kwargs: table)
    _, txt_path, csv_path = cmd_convergence("adv-jump", "sl", (19, 39, 79), out=str(tmp_path))
    assert txt_path.read_text() == (
        " m        dt        dx        l1        l2      linf  linf_reg  l1_order\n"
        "19  0.181818  0.210526  1.23E-01  5.00E-02  9.00E-01  2.50E-01          \n"
        "39  0.090909  0.102564  6.25E-02  2.50E-02  5.00E-01  1.25E-01      0.95\n"
        "79  0.045455  0.050633  6.25E-02  1.25E-02  5.00E-01  1.00E-20      0.00\n"
    )
    assert csv_path.read_text() == (
        "m,dt,dx,l1,l2,linf,linf_reg,l1_order\n"
        "19,0.181818181818,0.210526315789,0.123456789012,0.05,0.9,0.25,\n"
        "39,0.0909090909091,0.102564102564,0.0625,0.025,0.5,0.125,0.946604359498\n"
        "79,0.0454545454545,0.0506329113924,0.0625,0.0125,0.5,1e-20,0\n"
    )


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


def test_tracked_run_files_regenerate_byte_for_byte(tmp_path: Path) -> None:
    """The four files under runs/ come from these two commands."""
    cmd_compare("adv-smooth", 39, ("sl", "ub", "coupled"), out=str(tmp_path))
    cmd_convergence("adv-jump", "coupled", (19, 39, 79), out=str(tmp_path))
    for name in ("compare_adv-smooth_m39.csv", "compare_adv-smooth_m39_errors.csv",
                 "conv_adv-jump_coupled.csv", "conv_adv-jump_coupled.txt"):
        assert (tmp_path / name).read_bytes() == (RUNS / name).read_bytes(), name


def _per_value_lines(header, *columns) -> str:
    """CSV text with every value formatted on its own, as `slub run`
    first wrote it: floats by .12g, integers (steps, sigma) by str."""
    fmt = lambda v: str(v) if isinstance(v, (int, np.integer)) else f"{float(v):.12g}"
    return "\n".join([header] + [",".join(map(fmt, row)) for row in zip(*columns)]) + "\n"


def test_cmd_run_rows_match_per_value_formatting(tmp_path: Path) -> None:
    """Solution, sigma and TV files of three runs with snapshots, one
    after another, against each value formatted separately: coupled
    (sigma on the nodes), ub (solution on the cell centres) and sl on
    another grid (no sigma file). A row template built from the wrong
    coordinates, or kept from an earlier run, fails here."""
    runs = (("adv-jump", "coupled", 79, (0, 3, 8, 20)),
            ("adv-jump", "ub", 79, (0, 5, 20)),
            ("adv-smooth", "sl", 39, (0, 4, 9)))
    for problem, scheme, m, snaps in runs:
        bundle = cmd_run(RunConfig(problem=problem, scheme=scheme, m=m, snapshots=snaps,
                                   out=str(tmp_path / scheme)))
        res = slub.harness.run_scheme(problem, scheme, m, snapshot_steps=snaps)
        assert len(bundle.solution_files) == len(snaps)
        for k, sol in zip(snaps, bundle.solution_files):
            assert sol.read_text() == _per_value_lines("x,value", res.x, res.snapshots[k])
        if scheme == "coupled":
            assert len(bundle.sigma_files) == len(snaps)
            for k, sig in zip(snaps, bundle.sigma_files):
                assert sig.read_text() == _per_value_lines(
                    "x,sigma", res.grid.nodes, res.sigma_history[k]
                )
        else:
            assert bundle.sigma_files == ()
        steps = list(range(res.n_steps + 1))
        assert bundle.tv_file.read_text() == _per_value_lines(
            "step,tv,bound", steps, res.tv.values, res.tv.envelope
        )


def test_csv_rows_format_special_values_as_per_value_formatting() -> None:
    """The row template and its fill, on values whose text is easy to
    get wrong: in the filled columns, in the leading column (formatted
    once, by the template) and in a `{:d}` integer column."""
    x = np.array([-0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                  1e-7, 0.1 + 0.2, 123456789012.5, 1e300])
    k = np.arange(x.size) * 99991
    num = slub.cli._NUM
    rows = slub.cli._rows(slub.cli._row_template(k, num, num), x, x[::-1])
    assert "k,a,b\n" + rows + "\n" == _per_value_lines("k,a,b", k, x, x[::-1])
    lines = rows.split("\n")
    assert lines[0] == "0,-0,1e+300" and lines[1] == "99991,4.94065645841e-324,123456789012"
    rows = slub.cli._rows(slub.cli._row_template(x, num), x[::-1])
    assert "a,b\n" + rows + "\n" == _per_value_lines("a,b", x, x[::-1])
    rows = slub.cli._rows(slub.cli._row_template(x, "{:d}"), k)
    assert "a,k\n" + rows + "\n" == _per_value_lines("a,k", x, k)
    flags = np.arange(x.size) % 3 == 0
    rows = slub.cli._rows(slub.cli._row_template(x[::-1], "{:d}"), flags)
    assert "b,sigma\n" + rows + "\n" == _per_value_lines("b,sigma", x[::-1], flags)


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
        ["convergence", "--problem", "adv-jump", "--scheme", "ub", "--ladder", "19,39"]
    )
    assert conv.ladder == "19,39"
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


def test_main_ladder_takes_no_preset_name(tmp_path: Path, capsys) -> None:
    """A ladder is a comma list of m values; a problem's own ladder is
    the default, so no name stands for one."""
    code = main(
        ["convergence", "--problem", "adv-smooth", "--scheme", "sl",
         "--ladder", "ex1", "--out", str(tmp_path)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad ladder 'ex1'")
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--problem", "adv-smooth", "--scheme", "sl", "--m", "2"],
         "need at least 3 cells (stencil width), got m=2"),
        (["run", "--problem", "adv-smooth", "--scheme", "coupled", "--m", "0",
          "--snapshots", "0"], "got m=0"),
        (["compare", "--problem", "adv-smooth", "--m", "0"], "got m=0"),
        (["compare", "--problem", "adv-jump", "--m", "-5"], "got m=-5"),
        (["convergence", "--problem", "adv-smooth", "--scheme", "sl", "--ladder", "19,1"],
         "got m=1"),
    ],
    ids=["run-m-2", "run-m-0-with-snapshots", "compare-m-0", "compare-m-negative",
         "convergence-m-1"],
)
def test_main_bad_cell_count_exits_nonzero(
    argv: list, message: str, tmp_path: Path, capsys
) -> None:
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["run", "--scheme", "ub"], ["compare"],
                                     ["convergence", "--scheme", "sl"]])
def test_main_reversed_domain_exits_nonzero(
    command: list, tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.setitem(REGISTRY, "adv-smooth", replace(REGISTRY["adv-smooth"], a=2.0, b=-2.0))
    assert main(command + ["--problem", "adv-smooth", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "need a < b, got a=2.0, b=-2.0" in err
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


# ---------------------------------------------------------------------------
# returned records


def _run():
    return run_scheme("adv-var", "coupled", 19)


def _table():
    return convergence_table("adv-jump", "ub", ms=(19, 39))


def _operators():
    problem = get_problem("adv-var")
    return make_operators(problem, resolve_grid(problem, 19), time_ladder(problem, 19)[0])


def _bundle(out: Path):
    return cmd_run(RunConfig(problem="adv-jump", scheme="sl", m=19, out=str(out)))


# name: (a fresh record from fresh calls writing into `out`, whether it holds an array)
RECORDS = {
    "RunResult": (lambda out: _run(), True),
    "RunResult.errors": (lambda out: _run().errors, False),
    "RunResult.tv": (lambda out: _run().tv, True),
    "RunResult.params": (lambda out: _run().params, False),
    "RunResult.grid": (lambda out: _run().grid, False),
    "RunResult.problem": (lambda out: _run().problem, False),
    "ConvergenceTable": (lambda out: _table(), False),
    "ConvergenceRow": (lambda out: _table().rows[1], False),
    "OutputBundle": (_bundle, False),
    "StepOperators": (lambda out: _operators(), True),
    "RunConfig": (lambda out: parse_manifest(_bundle(out).manifest_file.read_text()), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_returned_records_are_immutable_values(name: str, tmp_path: Path) -> None:
    """Every record a run or a CLI call hands back rejects assignment to
    each of its fields and to a new name with AttributeError.  One that
    holds no array compares equal to, and hashes as, the same record
    from repeated calls."""
    make, holds_array = RECORDS[name]
    record = make(tmp_path)
    names = getattr(record, "_fields", None) or [f.name for f in dataclasses.fields(record)]
    for field in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    if not holds_array:
        twin = make(tmp_path)
        assert twin == record and hash(twin) == hash(record)
