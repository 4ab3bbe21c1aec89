"""Tests for grid/time resolution, step-operator assembly, full runs,
and refinement tables."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import slub.harness
from slub.coupled import coupled_step, init_coupled_state
from slub.diagnostics import stability_witness, three_point_witness, total_variation
from slub.grids import Alignment, build_grid, init_cell_averages, init_point_values
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


def test_make_operators_rejects_a_nan_velocity_naming_its_node() -> None:
    """An advection-var velocity that is NaN at one node fails the CFL
    check there, instead of passing (nan > 1 is False) into the run."""

    def velocity(x):
        c = 1.1 - np.asarray(x, dtype=float)
        c[7] = np.nan
        return c

    problem = replace(get_problem("adv-var"), c=velocity)
    g = resolve_grid(problem, 19)
    dt, _ = time_ladder(problem, 19)
    with pytest.raises(ValueError, match=r"CFL violated at index 7: .* = nan is not finite"):
        make_operators(problem, g, dt)


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


def _stepwise_diagnostics(name: str, scheme: str, m: int) -> tuple:
    """(witnesses, TV series, solution rows) of a run, checked one step
    and one layer at a time with the 1-D witnesses."""
    problem = get_problem(name)
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    ops = make_operators(problem, grid, dt)

    def witness(old, new, nu):
        if ops.two_sided:
            return three_point_witness(old, new).max_violation
        return stability_witness(old, new, nu).max_violation

    if scheme == "coupled":
        w0 = init_point_values(grid, problem.ic).values
        params = resolve_regularity(problem, w0, grid.dx)
        state = init_coupled_state(w0, grid.dx, params)
        tv, rows, values = [total_variation(state.w)], [], [state.w]
        for _ in range(n_steps):
            out = coupled_step(state, grid.dx, params, ops.node_update, ops.cell_update)
            rows.append((witness(state.w, out.node_candidate, ops.nu_node),
                         witness(out.cell_source, out.w_bar, ops.nu_cell)))
            tv.append(total_variation(out.w))
            values.append(out.w)
            state = out
        return np.array(rows), np.array(tv), np.array(values)
    if scheme == "sl":
        v, update, nu = init_point_values(grid, problem.ic).values, ops.node_update, ops.nu_node
    else:
        v, update, nu = init_cell_averages(grid, problem.ic).values, ops.cell_update, ops.nu_cell
    tv, rows, values = [total_variation(v)], [], [v]
    for _ in range(n_steps):
        new = update(v)
        rows.append((witness(v, new, nu),))
        tv.append(total_variation(new))
        values.append(new)
        v = new
    return np.array(rows), np.array(tv), np.array(values)


BLOCK_RUNS = [
    ("adv-smooth", "sl", 19), ("adv-smooth", "ub", 19),  # scalar nu
    ("adv-var", "sl", 19), ("adv-var", "ub", 19),  # one nu per node / cell
    ("hj-abs", "sl", 79), ("hj-abs", "ub", 79),  # three-point bracket
    ("adv-jump", "coupled", 19), ("adv-var", "coupled", 19), ("hj-abs", "coupled", 79),
]


@pytest.mark.parametrize("edge", ["steps-below-K", "steps-equal-K", "steps-K-plus-1", "ragged"])
@pytest.mark.parametrize("name, scheme, m", BLOCK_RUNS)
def test_run_diagnostics_match_a_step_by_step_run(
    monkeypatch, name: str, scheme: str, m: int, edge: str
) -> None:
    """Per-step witnesses (one column per checked layer) equal the 1-D
    witnesses, the TV series is the row-by-row TV to the byte, and
    witness_max is their largest value, and a snapshot of every step is
    the step-by-step solution, with the block size K set so
    that the run has fewer than K, exactly K, K + 1, or a ragged number
    of steps (more than 2K, not a multiple of K)."""
    problem = get_problem(name)
    n_steps = time_ladder(problem, m)[1]
    n = resolve_grid(problem, m).m + (scheme != "ub")
    k = {"steps-below-K": n_steps + 1, "steps-equal-K": n_steps,
         "steps-K-plus-1": n_steps - 1, "ragged": 5}[edge]
    assert k >= 4 and (edge != "ragged" or (n_steps > 2 * k and n_steps % k))
    monkeypatch.setattr(slub.harness, "_BLOCK_VALUES", k * n)
    res = run_scheme(name, scheme, m, snapshot_steps=range(n_steps, -1, -1))
    witnesses, tv, values = _stepwise_diagnostics(name, scheme, m)
    assert res.witnesses.shape == (n_steps, 2 if scheme == "coupled" else 1)
    np.testing.assert_array_equal(res.witnesses, witnesses)
    assert res.tv.values.tobytes() == tv.tobytes()
    assert res.witness_max == max(0.0, float(witnesses.max()))
    assert list(res.snapshots) == list(range(n_steps + 1))
    assert np.array(list(res.snapshots.values())).tobytes() == values.tobytes()
    assert res.values.tobytes() == values[-1].tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["K", "K+1", "n_steps"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_fails_fast_on_a_bad_step_at_a_block_edge(poison_step, scheme: str, where: str) -> None:
    """A NaN or inf at the last step of the first block, the first step
    of the next, or the final step raises the same ValueError, naming
    that step and node or cell, and no RuntimeWarning (warnings are
    errors here)."""
    problem, m = get_problem("adv-jump"), 319
    n_steps = time_ladder(problem, m)[1]
    n = resolve_grid(problem, m).m + (scheme != "ub")
    k = max(4, slub.harness._BLOCK_VALUES // n)
    step = {"K": k, "K+1": k + 1, "n_steps": n_steps}[where]
    assert k + 1 < n_steps
    poison_step(step, 5)
    at = "cell" if scheme == "ub" else "node"
    with pytest.raises(ValueError, match=rf"total variation (nan|inf) at step {step}: first non-finite value at {at} 5$"):
        run_scheme(problem, scheme, m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", [5, 40])
def test_coupled_run_fails_fast_on_a_cell_average_no_node_reads(poison_step, cell: int) -> None:
    """A non-finite cell average stops a coupled run at its step, naming
    the cell, even where no node reads it (the nodes stay finite)."""
    poison_step(3, cell, node=False)
    with pytest.raises(ValueError, match=rf"^non-finite cell average at step 3: first non-finite value at cell {cell}$"):
        run_scheme("adv-jump", "coupled", 79)


def _overflowing_make_operators(calls: list):
    """make_operators whose node update also overflows a throw-away
    product on every call; its output stays the clean one."""

    def patched(*args, **kwargs):
        ops = make_operators(*args, **kwargs)

        def node_update(v):
            calls.append(1)
            np.array([1e308]) * 10.0
            return ops.node_update(v)

        return replace(ops, node_update=node_update)

    return patched


def test_floating_point_errors_before_a_bad_step_are_reported_as_unbatched(monkeypatch) -> None:
    """A step that meets a floating-point error is taken again under the
    caller's numpy settings: it warns, or raises, as a step-by-step run
    does, and the run's results are unchanged.  Ignored errors are not
    trapped, so no step is taken twice."""
    clean = run_scheme("adv-smooth", "sl", 39)
    calls = []
    monkeypatch.setattr(slub.harness, "make_operators", _overflowing_make_operators(calls))
    with pytest.warns(RuntimeWarning, match="overflow"):
        res = run_scheme("adv-smooth", "sl", 39)
    assert res.values.tobytes() == clean.values.tobytes()
    assert res.tv.values.tobytes() == clean.tv.values.tobytes()
    np.testing.assert_array_equal(res.witnesses, clean.witnesses)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        run_scheme("adv-smooth", "sl", 39)
    calls.clear()
    with np.errstate(over="ignore"):
        run_scheme("adv-smooth", "sl", 39)
    assert len(calls) == res.n_steps


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


@pytest.mark.filterwarnings("error")
def test_run_scheme_with_infinite_delta_keeps_a_finite_envelope_start() -> None:
    """delta = +inf gives an infinite TV allowance; the envelope still
    starts at TV(w0) itself, not at TV(w0) + inf*0 = NaN with a warning."""
    res = run_scheme("adv-jump", "coupled", 39, delta=np.inf)
    assert res.tv.envelope[0] == res.tv.values[0]
    assert np.all(res.tv.envelope[1:] == np.inf)
    assert res.tv.ok


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
