"""Tests for grid/time resolution, step-operator assembly, full runs,
and refinement tables."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from slub.grids import Alignment, build_grid
from slub.harness import (
    LADDER_PRESETS,
    MAX_STEPS,
    SCHEMES,
    ConvergenceTable,
    convergence_table,
    make_operators,
    resolve_grid,
    resolve_regularity,
    run_scheme,
    time_ladder,
)
from slub.problems import REGISTRY, get_problem


# ---------------------------------------------------------------------------
# grid and time resolution


def test_ladder_presets_cover_known_studies() -> None:
    assert LADDER_PRESETS["ex1"] == (19, 39, 79, 159, 319, 639)
    assert LADDER_PRESETS["ex2"] == (100, 200, 400, 800, 1600)
    assert LADDER_PRESETS["ex3"] == (19, 39, 79, 159, 319, 639)
    assert LADDER_PRESETS["ex4"] == (19, 39, 79, 159, 319, 639)
    assert SCHEMES == ("sl", "ub", "coupled")


def test_time_ladder_anchors() -> None:
    """Step counts and step sizes for frozen ladder entries."""
    cases = {
        ("adv-smooth", 19): (2.0 / 11.0, 11),
        ("adv-smooth", 79): (2.0 / 44.0, 44),
        ("adv-jump", 639): (2.0 / 355.0, 355),
        ("adv-mix", 100): (0.075, 80),
        ("adv-mix", 400): (0.01875, 320),
        ("adv-var", 19): (1.0 / 32.0, 32),
        ("adv-var", 79): (1.0 / 132.0, 132),
        ("hj-abs", 19): (0.125, 4),
        ("hj-abs", 79): (0.5 / 17.0, 17),
        ("hj-abs", 159): (0.5 / 34.0, 34),
        ("hj-abs", 639): (0.5 / 134.0, 134),
    }
    for (name, m), (dt_want, n_want) in cases.items():
        dt, n = time_ladder(get_problem(name), m)
        assert n == n_want, (name, m)
        assert dt == pytest.approx(dt_want, rel=1e-12), (name, m)
        assert n * dt == pytest.approx(get_problem(name).T, rel=1e-12)


# a positive nu or finite T whose step count could never finish
ENDLESS = {("nu", 1e-300), ("nu", 5e-324), ("T", 1e300)}


@pytest.mark.parametrize(
    "field, value",
    [("nu", 0.0), ("nu", -0.5), ("nu", 1.5), ("nu", float("nan")),
     ("T", 0.0), ("T", -0.5), ("T", float("inf")), ("T", float("nan"))] + sorted(ENDLESS),
)
def test_time_ladder_rejects_bad_nu_and_horizon(field: str, value: float) -> None:
    """One check serves the library and every CLI subcommand."""
    if (field, value) in ENDLESS:
        match = r"would take ([0-9.]+e\+30[01]|inf) steps, more than MAX_STEPS = 10000000"
    elif field == "nu":
        match = r"nu must lie in \(0, 1\]"
    else:
        match = "T must be finite and positive"
    problem = replace(get_problem("adv-smooth"), **{field: value})
    with pytest.raises(ValueError, match=match):
        time_ladder(problem, 19)
    with pytest.raises(ValueError, match=match):
        run_scheme(problem, "sl", 19)


def test_resolve_grid_extends_downstream_for_transport() -> None:
    problem = get_problem("adv-smooth")
    g = resolve_grid(problem, 79)
    # domain grows downstream by whole cells so the moved profile stays inside
    assert g.a == problem.a
    assert g.b == pytest.approx(3.518987341772152)
    assert g.m == 109
    assert g.dx == pytest.approx((problem.b - problem.a) / 79)


def test_resolve_grid_keeps_bounded_domains() -> None:
    problem = get_problem("hj-abs")
    g = resolve_grid(problem, 19)
    assert (g.a, g.b, g.m) == (problem.a, problem.b, 19)
    var = get_problem("adv-var")
    gv = resolve_grid(var, 19)
    assert (gv.a, gv.b, gv.m) == (var.a, var.b, 19)


def test_resolve_grid_rejects_tiny_m() -> None:
    with pytest.raises(ValueError):
        resolve_grid(get_problem("adv-smooth"), 1)
    with pytest.raises(ValueError):
        resolve_grid(get_problem("adv-smooth"), 2)


def test_resolve_regularity_prefers_absolute_overrides() -> None:
    problem = get_problem("adv-jump")
    w0 = np.array([0.0, 0.0, 1.0, 1.0])
    params = resolve_regularity(problem, w0, dx=0.5)
    assert params.delta == pytest.approx(2.0 * problem.delta_factor)
    assert params.flat_tol == pytest.approx(2.0 * problem.flat_frac)
    assert params.guard == problem.guard

    over = resolve_regularity(problem, w0, dx=0.5, delta=7.0, epsilon=0.25, guard=0)
    assert over.delta == 7.0
    assert over.flat_tol == 0.25
    assert over.guard == 0


def test_resolve_regularity_survives_flat_data() -> None:
    params = resolve_regularity(get_problem("adv-smooth"), np.zeros(5), dx=0.1)
    assert params.delta >= 0.0 and np.isfinite(params.delta)


# ---------------------------------------------------------------------------
# operators


def test_make_operators_rejects_unstable_step() -> None:
    for name in ("adv-smooth", "adv-var", "hj-abs"):
        problem = get_problem(name)
        g = resolve_grid(problem, 19)
        dt, _ = time_ladder(problem, 19)
        make_operators(problem, g, dt)
        with pytest.raises(ValueError, match="CFL violated at index .*Courant"):
            make_operators(problem, g, dt * 3.0)


def test_make_operators_var_node_update_traces_feet() -> None:
    """For c(x) = -(x - 1.1) each node reads the interpolant at its foot
    x_j - c(x_j)*dt; the identity profile returns the foot itself, held
    at the end value past the grid."""
    problem = get_problem("adv-var")
    g = build_grid(0.0, 1.0, 40)
    dt = 0.015385
    out = make_operators(problem, g, dt).node_update(g.nodes)
    j = 10
    assert g.nodes[j] == pytest.approx(0.25, abs=1e-12)
    foot = 0.25 - (-(0.25 - 1.1)) * dt
    assert foot == pytest.approx(0.2369227, abs=1e-6)
    assert out[j] == pytest.approx(foot, abs=1e-12)
    feet = g.nodes - problem.velocity_values(g.nodes) * dt
    np.testing.assert_allclose(out, np.clip(feet, g.a, g.b), rtol=0, atol=1e-12)


def test_make_operators_hj_update_draws_on_both_sides() -> None:
    problem = get_problem("hj-abs")
    g = resolve_grid(problem, 19)
    dt, _ = time_ladder(problem, 19)
    ops = make_operators(problem, g, dt)
    assert ops.two_sided


# ---------------------------------------------------------------------------
# full runs


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_run_scheme_smoke(name: str, scheme: str) -> None:
    """Every scheme finishes every problem at the coarsest resolution with
    a clean stability witness and finite errors."""
    res = run_scheme(name, scheme, 19, snapshot_steps=(0,))
    assert res.scheme == scheme
    assert res.witness_max <= 1e-10
    for norm in ("l1", "l2", "linf"):
        assert np.isfinite(getattr(res.errors, norm))
    assert 0 in res.snapshots
    assert res.t_final == pytest.approx(get_problem(name).T, rel=1e-12)
    if scheme == "ub":
        assert res.alignment is Alignment.CELL
        assert res.values.size == res.grid.m
    else:
        assert res.alignment is Alignment.NODE
        assert res.values.size == res.grid.m + 1
    if scheme == "coupled":
        assert res.sigma_history is not None
        assert res.sigma_history.shape == (res.n_steps + 1, res.grid.m + 1)
        # row 0 is the classification of the initial data; the first step
        # uses that same mask
        np.testing.assert_array_equal(res.sigma_history[0], res.sigma_history[1])
    else:
        assert res.sigma_history is None


def test_coupled_run_calls_node_update_once_per_step(monkeypatch) -> None:
    """The coupled step's node candidate feeds the witness; the run
    loop does not evaluate the node update a second time."""
    calls = []

    def counting_make_operators(*args, **kwargs):
        ops = make_operators(*args, **kwargs)

        def counted(v):
            calls.append(1)
            return ops.node_update(v)

        return replace(ops, node_update=counted)

    monkeypatch.setattr("slub.harness.make_operators", counting_make_operators)
    res = run_scheme("adv-jump", "coupled", 79)
    assert len(calls) == res.n_steps


def test_time_ladder_step_cap_is_inclusive() -> None:
    """A horizon of exactly MAX_STEPS steps is allowed, one more is not."""
    problem = get_problem("adv-smooth")
    dt0 = problem.nu * (problem.b - problem.a) / 19 / problem.speed_scale
    assert time_ladder(replace(problem, T=MAX_STEPS * dt0), 19)[1] == MAX_STEPS
    with pytest.raises(ValueError, match="MAX_STEPS"):
        time_ladder(replace(problem, T=(MAX_STEPS + 1) * dt0), 19)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_fails_fast_on_non_finite_values(nan_at_step_3: int, scheme: str) -> None:
    """A NaN that enters at step 3 stops the run there, naming the step
    and the first non-finite node or cell."""
    where = "cell" if scheme == "ub" else "node"
    match = rf"at step 3: first non-finite value at {where} {nan_at_step_3}$"
    with pytest.raises(ValueError, match=match):
        run_scheme("adv-jump", scheme, 79)


def test_run_scheme_rejects_unknown_scheme() -> None:
    with pytest.raises(ValueError):
        run_scheme("adv-smooth", "spectral", 19)


def test_run_scheme_rejects_out_of_range_snapshot() -> None:
    with pytest.raises(ValueError):
        run_scheme("adv-smooth", "sl", 19, snapshot_steps=(500,))


def test_run_scheme_snapshot_keys_and_shapes() -> None:
    res = run_scheme("adv-jump", "coupled", 39, snapshot_steps=(0, 5))
    assert set(res.snapshots) == {0, 5}
    for snap in res.snapshots.values():
        assert snap.shape == res.values.shape
    w0 = res.snapshots[0]
    assert np.isfinite(w0).all()


def test_run_scheme_tv_monitoring_coupled_smooth() -> None:
    res = run_scheme("adv-smooth", "coupled", 39)
    assert res.tv.ok
    assert res.tv.n_violations == 0


def test_run_scheme_pure_schemes_have_zero_allowance() -> None:
    for scheme in ("sl", "ub"):
        res = run_scheme("adv-jump", scheme, 39)
        assert res.tv.ok


# ---------------------------------------------------------------------------
# refinement tables


def test_convergence_table_shapes_and_orders() -> None:
    table = convergence_table("adv-smooth", "sl", ms=(19, 39, 79))
    assert isinstance(table, ConvergenceTable)
    assert [r.m for r in table.rows] == [19, 39, 79]
    orders = table.orders("l1")
    assert orders.size == 2
    assert np.all(orders > 0.5)  # upwind transport of smooth data converges
    assert not table.has_reg_column  # smooth profile has no singular points


def test_convergence_table_reg_column_follows_singularities() -> None:
    jump = convergence_table("adv-jump", "sl", ms=(19, 39))
    assert jump.has_reg_column
    text = jump.format_text()
    assert "linf_reg" in text.splitlines()[0]
    assert "l1_order" in text.splitlines()[0]


def test_convergence_table_single_row_drops_order_column() -> None:
    table = convergence_table("adv-smooth", "sl", ms=(19,))
    header = table.format_text().splitlines()[0]
    assert "l1_order" not in header
    assert len(table.format_text().splitlines()) == 2


def test_convergence_table_rejects_empty_ladder() -> None:
    with pytest.raises(ValueError):
        convergence_table("adv-smooth", "sl", ms=())
