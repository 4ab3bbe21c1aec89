"""Tests for grid/time resolution, step-operator assembly, full runs,
and refinement tables."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import slub.harness
from slub.coupled import coupled_step
from slub.diagnostics import total_variation
from slub.grids import Alignment, build_grid, init_cell_averages, init_point_values
from slub.harness import (
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
from slub.problems import REGISTRY, get_problem, ic_mix
from reference import bracket_violations, fresh_coupled_step, initial_level


# ---------------------------------------------------------------------------
# grid and time resolution


def test_schemes_are_the_three_known_ones() -> None:
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
    """One check serves the library and every CLI subcommand: a spec
    with nu outside (0, 1] or a T that is not finite and positive cannot
    be built, and `time_ladder` rejects a run of more than MAX_STEPS."""
    if (field, value) not in ENDLESS:
        match = r"nu must lie in \(0, 1\]" if field == "nu" else "T must be finite and positive"
        with pytest.raises(ValueError, match=match):
            replace(get_problem("adv-smooth"), **{field: value})
        return
    match = r"would take ([0-9.]+e\+30[01]|inf) steps, more than MAX_STEPS = 10000000"
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


# (b, m) of the extended adv-smooth and adv-jump grids (a = -2) as they
# were when the support was found by sampling the initial profile at 20001
# points, before `ProblemSpec.support_t0` declared it.  Every error norm of
# these problems is taken on these grids, so they must not move.  At
# m = 2506 adv-smooth's last nonzero sample (0.9998) still gives the grid
# of the declared edge 1; at some larger m the two differ by one cell.
EXTENDED_GRIDS = {
    19: (3.6842105263157894, 27),
    39: (3.5384615384615383, 54),
    79: (3.518987341772152, 109),
    159: (3.509433962264151, 219),
    319: (3.5047021943573666, 439),
    639: (3.5023474178403755, 879),
    2506: (3.5003990422984836, 3446),
}


@pytest.mark.parametrize("m", sorted(EXTENDED_GRIDS))
@pytest.mark.parametrize("name", ["adv-smooth", "adv-jump"])
def test_extended_grids_are_pinned(name: str, m: int) -> None:
    g = resolve_grid(get_problem(name), m)
    assert (g.a, g.b, g.m) == (-2.0, *EXTENDED_GRIDS[m])


def test_resolve_grid_extends_upstream_for_a_negative_velocity() -> None:
    problem = replace(get_problem("adv-jump"), c=-1.0)
    g = resolve_grid(problem, 79)
    mirrored = resolve_grid(get_problem("adv-jump"), 79)
    assert (g.a, g.b, g.m) == (-mirrored.b, problem.b, mirrored.m)


def test_resolve_grid_extends_each_side_the_support_leaves() -> None:
    """One rule for both sides: a support wider than the window at rest
    grows the grid by the same whole cells on each side."""
    problem = replace(get_problem("adv-jump"), c=0.0, support_t0=(-2.0, 2.0))
    g = resolve_grid(problem, 80)  # dx = 0.05, so the pad of 0.5 takes 10 cells a side
    assert (g.a, g.b, g.m) == (-2.0 - 10 * 0.05, 2.0 + 10 * 0.05, 100)
    assert g.dx == pytest.approx(0.05)


def test_resolve_grid_keeps_bounded_domains() -> None:
    problem = get_problem("hj-abs")
    g = resolve_grid(problem, 19)
    assert (g.a, g.b, g.m) == (problem.a, problem.b, 19)
    var = get_problem("adv-var")
    gv = resolve_grid(var, 19)
    assert (gv.a, gv.b, gv.m) == (var.a, var.b, 19)


def test_resolve_grid_rejects_tiny_m() -> None:
    with pytest.raises(ValueError, match="need at least 3 cells"):
        resolve_grid(get_problem("adv-smooth"), 1)
    with pytest.raises(ValueError, match="need at least 3 cells"):
        resolve_grid(get_problem("adv-smooth"), 2)


@pytest.mark.parametrize(
    "m, domain, match",
    [(2, None, r"need at least 3 cells \(stencil width\), got m=2"),
     (0, None, "need at least 3 cells"),
     (-5, None, "got m=-5"),
     (19, (2.0, -2.0), "need a < b, got a=2.0, b=-2.0"),
     (19, (1.0, 1.0), "need a < b"),
     (19.9, None, r"need an integer cell count, got m=19\.9")],
    ids=["m-2", "m-0", "m-negative", "reversed", "empty", "m-fractional"],
)
def test_time_ladder_rejects_a_bad_grid_as_the_grid_does(m, domain, match) -> None:
    """`Grid1D` is the one check of the cell count and the domain."""
    problem = get_problem("adv-smooth")
    if domain is not None:
        problem = replace(problem, a=domain[0], b=domain[1])
    with pytest.raises(ValueError, match=match):
        time_ladder(problem, m)
    with pytest.raises(ValueError, match=match):
        run_scheme(problem, "coupled", m)


def test_resolve_regularity_prefers_absolute_overrides() -> None:
    problem = get_problem("adv-jump")
    w0 = np.array([0.0, 0.0, 1.0, 1.0])
    params = resolve_regularity(problem, w0, dx=0.5)
    assert params.delta == pytest.approx(2.0 * problem.delta_factor)
    assert params.flat_tol == pytest.approx(2.0 * problem.flat_frac)
    assert params.guard == problem.guard
    # the preset factors scale the largest initial |slope|, 2 here at dx = 1
    scaled = resolve_regularity(replace(problem, delta_factor=0.5, flat_frac=0.1),
                                np.array([0.0, 1.0, 3.0, 3.0]), 1.0)
    assert (scaled.delta, scaled.flat_tol) == (pytest.approx(1.0), pytest.approx(0.2))

    over = resolve_regularity(problem, w0, dx=0.5, delta=7.0, epsilon=0.25)
    assert over.delta == 7.0
    assert over.flat_tol == 0.25
    assert over.guard == problem.guard
    # the guard has no override: it is always the problem's
    with pytest.raises(TypeError):
        run_scheme("adv-jump", "coupled", 39, guard=0)


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
    check there, instead of passing (nan > 1 is False) into the run.
    The grid is a stand-in whose node 7 is NaN, so its velocity is."""
    problem = get_problem("adv-var")
    g = resolve_grid(problem, 19)
    dt, _ = time_ladder(problem, 19)
    nodes = g.nodes.copy()
    nodes[7] = np.nan
    grid = SimpleNamespace(dx=g.dx, nodes=nodes)
    with pytest.raises(ValueError, match=r"CFL violated at index 7: .* = nan is not finite"):
        make_operators(problem, grid, dt)


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
    speeds = -(g.nodes - problem.x_bar)
    feet = g.nodes - speeds * dt
    np.testing.assert_allclose(out, np.clip(feet, g.a, g.b), rtol=0, atol=1e-12)


def test_make_operators_hj_update_draws_on_both_sides() -> None:
    problem = get_problem("hj-abs")
    g = resolve_grid(problem, 19)
    dt, _ = time_ladder(problem, 19)
    ops = make_operators(problem, g, dt)
    assert ops.nu_node is None and ops.nu_cell is None  # the witnesses bracket three points


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


def _count_updates(monkeypatch, layer: str) -> list:
    """Make every run's `layer` ("node_update" or "cell_update") stepper
    append to the returned list on each call."""
    calls = []

    def counting_make_operators(*args, **kwargs):
        ops = make_operators(*args, **kwargs)
        update = getattr(ops, layer)

        def counted(v, out=None):
            calls.append(1)
            return update(v, out=out)

        return replace(ops, **{layer: counted})

    monkeypatch.setattr(slub.harness, "make_operators", counting_make_operators)
    return calls


def test_coupled_run_calls_node_update_once_per_step(monkeypatch) -> None:
    """The coupled step's node candidate feeds the witness; the run
    loop does not evaluate the node update a second time."""
    calls = _count_updates(monkeypatch, "node_update")
    res = run_scheme("adv-jump", "coupled", 79)
    assert len(calls) == res.n_steps


@pytest.mark.parametrize("name, m", [("adv-jump", 79), ("adv-mix", 400), ("hj-abs", 39)])
def test_coupled_run_calls_the_module_coupled_step_once_per_step(monkeypatch, name, m) -> None:
    """A run looks `coupled_step` up in `slub.harness` on every step and
    gets back a state whose fresh-cell count can be read, which is what
    a tracer that wraps that name sees; the run's values do not change."""
    plain = run_scheme(name, "coupled", m)
    counts = []

    def counted(*args):
        state = coupled_step(*args)
        counts.append(state.fresh_cell_count)
        return state

    monkeypatch.setattr(slub.harness, "coupled_step", counted)
    res = run_scheme(name, "coupled", m)
    assert len(counts) == res.n_steps
    assert all(isinstance(c, int) and c >= 0 for c in counts) and sum(counts) > 0
    assert res.values.tobytes() == plain.values.tobytes()
    assert res.sigma_history.tobytes() == plain.sigma_history.tobytes()


def test_a_scalar_only_ic_fails_before_any_node_update(monkeypatch) -> None:
    """The initializers call `ic` on the node array, as the reference
    does, so a scalar-only `ic` fails before the first step instead of
    after the last one."""
    calls = _count_updates(monkeypatch, "node_update")
    problem = replace(get_problem("adv-jump"), ic=lambda x: 1.0 if abs(float(x)) <= 1.0 else 0.0)
    with pytest.raises(TypeError):
        run_scheme(problem, "sl", 79)
    assert calls == []


def test_time_ladder_step_cap_is_inclusive() -> None:
    """A horizon of exactly MAX_STEPS steps is allowed, one more is not."""
    problem = get_problem("adv-smooth")
    dt0 = problem.nu * (problem.b - problem.a) / 19 / abs(problem.c)
    assert time_ladder(replace(problem, T=MAX_STEPS * dt0), 19)[1] == MAX_STEPS
    with pytest.raises(ValueError, match="MAX_STEPS"):
        time_ladder(replace(problem, T=(MAX_STEPS + 1) * dt0), 19)


@pytest.mark.parametrize("name", ["adv-smooth", "adv-mix", "hj-abs"])
def test_time_step_scales_with_the_speed(name: str) -> None:
    """The step is nu*dx/|c|: twice the speed runs at the preset Courant
    number on about twice the steps, and a spec at rest has no CFL bound and
    takes one step of length T, which leaves sl and ub unchanged."""
    problem = get_problem(name)
    dx = build_grid(problem.a, problem.b, 79).dx
    fast = replace(problem, c=2 * problem.c)
    assert time_ladder(fast, 79)[0] <= problem.nu * dx / (2 * abs(problem.c))
    for scheme in SCHEMES:
        assert run_scheme(fast, scheme, 79).witness_max <= 1e-12
    rest = replace(problem, c=0.0)
    assert time_ladder(rest, 79) == (problem.T, 1)
    for scheme in ("sl", "ub"):
        res = run_scheme(rest, scheme, 79, snapshot_steps=(0,))
        assert res.n_steps == 1
        assert np.array_equal(res.values, res.snapshots[0])


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
    and one layer at a time against the bracket written out entry by
    entry."""
    problem = get_problem(name)
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    ops = make_operators(problem, grid, dt)

    def witness(old, new, nu):
        return max(0.0, bracket_violations(old, new, nu).max())

    if scheme == "coupled":
        w0 = init_point_values(grid, problem.ic)
        params = resolve_regularity(problem, w0, grid.dx)
        prev = initial_level(w0)
        tv, rows, values = [total_variation(w0)], [], [w0]
        for _ in range(n_steps):
            out = fresh_coupled_step(prev, grid.dx, params, ops.node_update, ops.cell_update)
            rows.append((witness(prev[0], out.node_candidate, ops.nu_node),
                         witness(out.cell_source, out.w_bar, ops.nu_cell)))
            tv.append(total_variation(out.w))
            values.append(out.w)
            prev = (out.w, out.w_bar, out.owned)
        return np.array(rows), np.array(tv), np.array(values)
    if scheme == "sl":
        v, update, nu = init_point_values(grid, problem.ic), ops.node_update, ops.nu_node
    else:
        v, update, nu = init_cell_averages(grid, problem.ic), ops.cell_update, ops.nu_cell
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
    """Per-step witnesses (one column per checked layer) equal the
    written-out bracket's, the TV series is the row-by-row TV to the byte, and
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


def test_a_run_shorter_than_one_block_checks_one_block_sized_to_the_run(monkeypatch) -> None:
    """Coupled hj-abs at m = 19 takes 4 steps, where max(4, 16384 // n)
    would size its blocks at 819 rows: its checker is built on blocks of
    4 rows, and its witnesses, TV, snapshots and values are those of the
    step-by-step run."""
    name, m = "hj-abs", 19
    n_steps, n = time_ladder(get_problem(name), m)[1], resolve_grid(get_problem(name), m).m + 1
    assert n_steps == 4 and slub.harness._BLOCK_VALUES // n == 819
    built, block_checker = [], slub.harness.block_checker

    def recorded(rows, layers):
        built.append([len(rows)] + [len(block) for old, new, _ in layers for block in (old, new)])
        return block_checker(rows, layers)

    monkeypatch.setattr(slub.harness, "block_checker", recorded)
    res = run_scheme(name, "coupled", m, snapshot_steps=range(n_steps + 1))
    assert built == [[n_steps] * 5]
    witnesses, tv, values = _stepwise_diagnostics(name, "coupled", m)
    assert res.witnesses.tobytes() == witnesses.tobytes()
    assert res.tv.values.tobytes() == tv.tobytes()
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

        def node_update(v, out=None):
            calls.append(1)
            np.array([1e308]) * 10.0
            return ops.node_update(v, out=out)

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


@pytest.mark.parametrize("where", ["2", "K+2"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_trap_on_a_later_step_of_a_block_is_retaken_bit_identically(
    monkeypatch, scheme: str, where: str
) -> None:
    """A floating-point error on step 2 of the first block, or on step
    K + 2 (step 2 of the second), is retaken from the last checked row,
    not from the row being written: the values, the TV bytes and the
    witnesses are those of a run without the error."""
    name, m, k = "adv-smooth", 39, 5
    n = resolve_grid(get_problem(name), m).m + (scheme != "ub")
    monkeypatch.setattr(slub.harness, "_BLOCK_VALUES", k * n)
    clean = run_scheme(name, scheme, m)
    step = {"2": 2, "K+2": k + 2}[where]
    assert step < clean.n_steps
    layer = "cell_update" if scheme == "ub" else "node_update"
    calls = _count_updates(monkeypatch, layer)
    counted = slub.harness.make_operators

    def overflowing_make_operators(*args, **kwargs):
        ops = counted(*args, **kwargs)
        update = getattr(ops, layer)

        def stepped(v, out=None):
            out = update(v, out=out)
            if len(calls) in (step, step + 1):  # the step and its retake
                np.array([1e308]) * 10.0
            return out

        return replace(ops, **{layer: stepped})

    monkeypatch.setattr(slub.harness, "make_operators", overflowing_make_operators)
    with pytest.warns(RuntimeWarning, match="overflow"):
        res = run_scheme(name, scheme, m)
    assert len(calls) == clean.n_steps + 1
    assert res.values.tobytes() == clean.values.tobytes()
    assert res.tv.values.tobytes() == clean.tv.values.tobytes()
    assert res.witnesses.tobytes() == clean.witnesses.tobytes()


@pytest.mark.parametrize("where", ["2", "K+2"])
@pytest.mark.parametrize("layer", ["node_update", "cell_update"])
def test_coupled_cells_carried_across_blocks_and_retaken_steps_are_bit_identical(
    monkeypatch, layer: str, where: str
) -> None:
    """Coupled adv-jump evolves cells on every step, so each flush must
    carry the cell averages and the owned mask forward with the nodes,
    and a retaken step must read all three from row 0.  With blocks of
    K = 5 steps and a floating-point error on step 2 or K + 2 of either
    update, the values, TV, witnesses and sigma history are the bytes of
    a run in one default-size block."""
    name, m, k = "adv-jump", 79, 5
    clean = run_scheme(name, "coupled", m)
    assert clean.n_steps < max(4, slub.harness._BLOCK_VALUES // (m + 1))
    assert (clean.sigma_history[:-1] == 0).any(axis=1).all()  # cells active every step
    monkeypatch.setattr(slub.harness, "_BLOCK_VALUES", k * (m + 1))
    calls = _count_updates(monkeypatch, layer)
    counted = slub.harness.make_operators
    step = {"2": 2, "K+2": k + 2}[where]

    def overflowing_make_operators(*args, **kwargs):
        ops = counted(*args, **kwargs)
        update = getattr(ops, layer)

        def stepped(v, out=None):
            out = update(v, out=out)
            if len(calls) in (step, step + 1):  # the step and its retake
                np.array([1e308]) * 10.0
            return out

        return replace(ops, **{layer: stepped})

    monkeypatch.setattr(slub.harness, "make_operators", overflowing_make_operators)
    with pytest.warns(RuntimeWarning, match="overflow"):
        res = run_scheme(name, "coupled", m)
    assert len(calls) == clean.n_steps + 1
    for field in ("values", "witnesses", "sigma_history"):
        assert getattr(res, field).tobytes() == getattr(clean, field).tobytes(), field
    assert res.tv.values.tobytes() == clean.tv.values.tobytes()


def test_run_scheme_rejects_unknown_scheme() -> None:
    with pytest.raises(ValueError):
        run_scheme("adv-smooth", "spectral", 19)


def test_run_scheme_rejects_out_of_range_snapshot() -> None:
    with pytest.raises(ValueError):
        run_scheme("adv-smooth", "sl", 19, snapshot_steps=(500,))


def test_run_scheme_rejects_a_snapshot_step_that_is_not_an_integer() -> None:
    """A step of 1.7 is rejected, naming it; a numpy integer is a step
    like any other, kept under its int."""
    with pytest.raises(ValueError, match=r"snapshot step 1\.7 is not an integer"):
        run_scheme("adv-jump", "sl", 19, snapshot_steps=(1.7,))
    res = run_scheme("adv-jump", "sl", 19, snapshot_steps=(np.int64(3),))
    assert list(res.snapshots) == [3] and type(list(res.snapshots)[0]) is int
    assert res.snapshots[3].tobytes() == run_scheme(
        "adv-jump", "sl", 19, snapshot_steps=(3,)).snapshots[3].tobytes()


@pytest.mark.parametrize("overrides", [{}, {"delta": 0.7}, {"delta": 0.7, "epsilon": 0.01}],
                         ids=["preset", "delta", "delta-epsilon"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["adv-jump", "hj-abs"])
def test_run_result_params_resolve_from_the_initial_nodes(
    name: str, scheme: str, overrides: dict
) -> None:
    """Every scheme records the thresholds a coupled run would use."""
    problem = get_problem(name)
    grid = resolve_grid(problem, 39)
    w0 = init_point_values(grid, problem.ic)
    want = resolve_regularity(problem, w0, grid.dx, **overrides)
    assert run_scheme(problem, scheme, 39, **overrides).params == want


def test_cell_run_without_an_antiderivative_fails_before_stepping(monkeypatch) -> None:
    """A ub run starts from and is scored against exact cell averages, so
    an ic without `.antiderivative` is rejected before any cell update."""
    calls = _count_updates(monkeypatch, "cell_update")
    problem = get_problem("adv-smooth")

    def ic(x):
        return problem.ic(x)

    with pytest.raises(ValueError, match=r"ic\.antiderivative"):
        run_scheme(replace(problem, ic=ic), "ub", 39)
    assert calls == []
    n_steps = run_scheme(problem, "ub", 39).n_steps
    assert len(calls) == n_steps  # the count sees every step


def test_coupled_runs_evolve_cells_only_on_steps_with_an_active_cell(monkeypatch) -> None:
    """adv-var keeps every node regular on every step, so its coupled run
    never calls the cell update and its cell witness reads exactly 0;
    adv-jump has an active cell on every step and calls it once a step."""
    calls = _count_updates(monkeypatch, "cell_update")
    res = run_scheme("adv-var", "coupled", 79)
    assert calls == []
    assert res.n_steps > 0 and np.all(res.witnesses[:, 1] == 0.0)
    n_steps = run_scheme("adv-jump", "coupled", 79).n_steps
    assert len(calls) == n_steps


def test_hj_run_checks_that_its_reference_covers_the_ic(monkeypatch) -> None:
    """The erosion reference ic(|x| + r) holds for an ic that is even and
    nonincreasing in |x|.  A run checks both on its nodes before its
    first node update, names the first node that fails, and hj-abs
    passes exactly at every rung."""
    hj = get_problem("hj-abs")
    for m in hj.m_ladder:
        nodes = resolve_grid(hj, m).nodes
        slub.harness._check_erosion_ic(hj.ic, nodes, hj.ic(nodes))
    calls = _count_updates(monkeypatch, "node_update")
    # ic_mix is not even; folded onto |x| it is, but rises with |x|
    wide = replace(hj, a=-4.5, b=4.5, T=0.25)
    with pytest.raises(ValueError, match=r"ic\(-x\) == ic\(x\); it fails at node 5 \(x = -3\.93"):
        run_scheme(replace(wide, ic=ic_mix), "sl", 79)
    with pytest.raises(ValueError, match=r"in \|x\|; it fails at node 58 \(x = 2\.10"):
        run_scheme(replace(wide, ic=lambda x: ic_mix(np.abs(x))), "coupled", 79)
    assert calls == []
    n_steps = run_scheme(hj, "sl", 39).n_steps
    assert len(calls) == n_steps > 0  # the count sees every step


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
    assert not res.tv.flags.any()


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


def test_convergence_table_rejects_a_fractional_rung() -> None:
    with pytest.raises(ValueError, match=r"got m=19\.9"):
        convergence_table("adv-jump", "sl", ms=(19.9,))
