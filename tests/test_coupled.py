"""Regularity classification, projections, and the coupled step."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import RegularityParams, classify_regularity, project_to_nodes
from slub.grids import init_point_values
from slub.harness import make_operators, resolve_grid, run_scheme, time_ladder
from slub.problems import REGISTRY, get_problem
from slub.semi_lagrangian import advect_const_stepper, advect_const_values
from slub.ultrabee import ub_step_values, ub_stepper
from reference import (
    active_cells,
    backward_slopes,
    fresh_coupled_step,
    initial_level,
    project_to_cells,
    stepper,
)

NODE_FIELDS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=5, max_value=50),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)

LOOSE = RegularityParams(delta=10.0, flat_tol=1e-12, guard=0)


def test_regularity_params_validation() -> None:
    RegularityParams(delta=0.0, flat_tol=0.0, guard=0)  # degenerate but legal
    with pytest.raises(ValueError):
        RegularityParams(delta=-1.0, flat_tol=0.0, guard=0)
    with pytest.raises(ValueError):
        RegularityParams(delta=1.0, flat_tol=-0.1, guard=0)
    with pytest.raises(ValueError):
        RegularityParams(delta=1.0, flat_tol=0.0, guard=-2)
    # the guard dilation loops over range(guard): numpy integers qualify
    assert RegularityParams(delta=1.0, flat_tol=0.1, guard=np.int64(3)).guard == 3
    for bad in (1.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="need an integer guard >= 0"):
            RegularityParams(delta=1.0, flat_tol=0.1, guard=bad)
    RegularityParams(delta=np.inf, flat_tol=np.inf, guard=0)  # every node regular by size
    for bad in ({"delta": np.nan, "flat_tol": 0.0}, {"delta": 1.0, "flat_tol": np.nan}):
        with pytest.raises(ValueError, match=r"need (delta|flat_tol) >= 0, got nan"):
            RegularityParams(guard=0, **bad)


def test_backward_slopes_pads_with_zeros() -> None:
    v = np.array([0.0, 2.0, 2.0, -1.0])
    s = backward_slopes(v, 0.5)
    np.testing.assert_allclose(s, [0.0, 4.0, 0.0, -6.0, 0.0])


def test_classify_flat_field_is_regular() -> None:
    sigma = classify_regularity(np.zeros(9), 0.1, LOOSE)
    np.testing.assert_array_equal(sigma, 1)
    assert sigma.dtype == np.int8


def test_classify_ramp_within_flat_tolerance_is_regular() -> None:
    v = np.linspace(0.0, 1.0, 11)
    params = RegularityParams(delta=10.0, flat_tol=2.0, guard=0)
    sigma = classify_regularity(v, 0.1, params)
    np.testing.assert_array_equal(sigma, 1)


def test_classify_ramp_onset_reads_as_kink_under_tight_tolerance() -> None:
    """With a tight flat tolerance the jump from zero slope to constant
    slope is an incompatible pair, so the onset nodes are flagged while
    the ramp interior stays regular."""
    v = np.linspace(0.0, 1.0, 11)
    sigma = classify_regularity(v, 0.1, LOOSE)
    # backward slopes: two nodes flagged at the left onset, one at the right
    np.testing.assert_array_equal(sigma[:2], 0)
    assert sigma[-1] == 0
    np.testing.assert_array_equal(sigma[2:-1], 1)


def test_classify_flags_steep_slopes() -> None:
    """Magnitude test: a slope at or above delta marks both end nodes of
    the offending interval."""
    v = np.array([0.0, 0.0, 5.0, 5.0, 5.0])
    params = RegularityParams(delta=3.0, flat_tol=10.0, guard=0)
    sigma = classify_regularity(v, 1.0, params)
    np.testing.assert_array_equal(sigma, [1, 1, 0, 1, 1])


def test_classify_flags_sign_changes_between_steep_slopes() -> None:
    """A peak with a genuine up-down slope pair is irregular even when
    each slope clears the magnitude test."""
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    params = RegularityParams(delta=10.0, flat_tol=0.5, guard=0)
    sigma = classify_regularity(v, 1.0, params)
    np.testing.assert_array_equal(sigma, [0, 0, 0, 0, 1])


def test_classify_zero_slope_next_to_steep_flank_is_irregular() -> None:
    """A flat interval bordered by a steep one fails the pair test: flats
    only excuse each other.  This is what detects a kink sitting between
    two nodes, where symmetry zeroes the straddling slope."""
    v = np.array([3.0, 1.0, 1.0, 3.0])  # valley floor between steep walls
    params = RegularityParams(delta=10.0, flat_tol=0.5, guard=0)
    sigma = classify_regularity(v, 1.0, params)
    np.testing.assert_array_equal(sigma, [0, 0, 0, 0])


def test_classify_both_flat_pair_is_compatible() -> None:
    v = np.array([1.0, 1.0 + 1e-3, 1.0, 1.0 - 1e-3, 1.0])
    params = RegularityParams(delta=1.0, flat_tol=0.1, guard=0)
    sigma = classify_regularity(v, 1.0, params)
    np.testing.assert_array_equal(sigma, 1)


def test_classify_sign_test_does_not_underflow() -> None:
    """Two strictly positive slopes of about 1e-170 share a sign, though
    their product underflows to 0: the flags are those of the same
    profile scaled by 1e150."""
    v = np.array([0.0, 1e-171, 2e-171, 3e-171, 4e-171])
    params = RegularityParams(1.0, 0.0)
    np.testing.assert_array_equal(classify_regularity(v, 0.1, params), [0, 0, 1, 1, 0])
    np.testing.assert_array_equal(classify_regularity(v * 1e150, 0.1, params), [0, 0, 1, 1, 0])


# Dyadic node values, spacings and thresholds: every slope and threshold
# times 2**k, k in [-1000, 1000], is exact and normal.
DYADIC_NODES = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=20),
    elements=st.integers(min_value=-512, max_value=512).map(lambda i: i / 8.0),
)
DYADIC_THRESHOLDS = st.sampled_from([0.0, 0.125, 0.5, 1.0, 3.0, 64.0, np.inf])


@given(v=DYADIC_NODES, dx=st.sampled_from([0.25, 0.5, 1.0, 2.0]), delta=DYADIC_THRESHOLDS,
       flat_tol=DYADIC_THRESHOLDS, guard=st.integers(min_value=0, max_value=2),
       k=st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=300)
def test_classify_is_invariant_under_power_of_two_scaling(
    v: np.ndarray, dx: float, delta: float, flat_tol: float, guard: int, k: int
) -> None:
    """The flags of 2**k * v, with both thresholds scaled by 2**k, are
    those of v: `resolve_regularity` scales the thresholds with the
    largest initial slope, so the amplitude of a profile must not matter."""
    scale = 2.0 ** k
    params = RegularityParams(delta, flat_tol, guard)
    scaled = RegularityParams(delta * scale, flat_tol * scale, guard)
    assert (classify_regularity(v * scale, dx, scaled).tobytes()
            == classify_regularity(v, dx, params).tobytes())


@pytest.mark.parametrize("name", ["adv-smooth", "adv-jump", "adv-mix", "adv-var"])
def test_coupled_run_of_a_tiny_profile_keeps_the_unscaled_indicator(name: str) -> None:
    """A profile times 2**-560 (values near 1e-169, whose slope products
    would underflow) gets the thresholds times 2**-560, so every step
    flags the nodes of the unscaled run."""
    problem = get_problem(name)
    ic, scale = problem.ic, 2.0 ** -560

    def tiny(x):
        return scale * np.asarray(ic(x), dtype=float)

    tiny.antiderivative = lambda x: scale * np.asarray(ic.antiderivative(x), dtype=float)
    m = problem.m_ladder[0]
    plain = run_scheme(problem, "coupled", m)
    scaled = run_scheme(replace(problem, ic=tiny), "coupled", m)
    assert scaled.params.delta == scale * plain.params.delta
    assert scaled.sigma_history.tobytes() == plain.sigma_history.tobytes()
    assert plain.sigma_history.min() == 0  # the indicator did switch


def test_classify_guard_dilates_detections() -> None:
    v = np.zeros(11)
    v[5] = 1.0
    base = RegularityParams(delta=0.5, flat_tol=0.1, guard=0)
    sigma0 = classify_regularity(v, 1.0, base)
    guarded = classify_regularity(v, 1.0, RegularityParams(0.5, 0.1, guard=2))
    hole0 = np.flatnonzero(sigma0 == 0)
    hole2 = np.flatnonzero(guarded == 0)
    assert hole0.min() - hole2.min() == 2
    assert hole2.max() - hole0.max() == 2
    assert set(hole0).issubset(set(hole2))


def test_classify_delta_zero_marks_everything() -> None:
    rng = np.random.default_rng(0)
    v = rng.uniform(-1.0, 1.0, 20)
    sigma = classify_regularity(v, 0.1, RegularityParams(0.0, 0.0, 0))
    np.testing.assert_array_equal(sigma, 0)


@given(v=NODE_FIELDS)
@settings(max_examples=100)
def test_classify_guard_only_removes(v: np.ndarray) -> None:
    p0 = RegularityParams(delta=1.0, flat_tol=0.2, guard=0)
    p3 = RegularityParams(delta=1.0, flat_tol=0.2, guard=3)
    s0 = classify_regularity(v, 0.5, p0)
    s3 = classify_regularity(v, 0.5, p3)
    assert np.all(s3 <= s0)


def test_active_cells_touch_irregular_nodes() -> None:
    sigma = np.array([1, 1, 0, 1, 1, 0], dtype=np.int8)
    act = active_cells(sigma)
    np.testing.assert_array_equal(act, [False, True, True, False, True])


def test_projections_pinned_values() -> None:
    v = np.array([0.0, 2.0, 4.0])
    np.testing.assert_allclose(project_to_cells(v), [1.0, 3.0])
    identity = stepper(np.copy)  # no cell owned: the step's cell source is projected
    state = fresh_coupled_step(initial_level(v), 1.0, LOOSE, identity, identity)
    np.testing.assert_allclose(state.cell_source, [1.0, 3.0])
    np.testing.assert_allclose(project_to_nodes(np.array([1.0, 3.0])), [1.0, 2.0, 3.0])


@given(v=NODE_FIELDS)
@settings(max_examples=100)
def test_project_round_trip_smooths_by_quarter_weights(v: np.ndarray) -> None:
    """Cell-then-node projection is the (1/4, 1/2, 1/4) average in the
    interior; linear profiles pass through unchanged there."""
    rt = project_to_nodes(project_to_cells(v))
    interior = 0.25 * v[:-2] + 0.5 * v[1:-1] + 0.25 * v[2:]
    np.testing.assert_allclose(rt[1:-1], interior, atol=1e-12)


def test_project_round_trip_preserves_linear_interior() -> None:
    x = np.linspace(0.0, 1.0, 12)
    v = 3.0 * x - 1.0
    rt = project_to_nodes(project_to_cells(v))
    np.testing.assert_allclose(rt[1:-1], v[1:-1], atol=1e-14)


# (problem, m, whether its initial nodes are both regular and irregular):
# the one-step run at rest, adv-jump at m = 79 and each registered first rung
INITIAL_LEVEL_RUNS = [(replace(get_problem("adv-mix"), c=0.0), 79, True),
                      (get_problem("adv-jump"), 79, True)] + [
    (problem, problem.m_ladder[0], False) for problem in REGISTRY.values()]


@pytest.mark.parametrize(
    "problem, m, mixed", INITIAL_LEVEL_RUNS,
    ids=["adv-mix-at-rest-79", "adv-jump-79"] + [f"{name}-first" for name in REGISTRY])
def test_coupled_run_starts_from_its_classified_initial_level(problem, m: int,
                                                              mixed: bool) -> None:
    """sigma_history[0] of a coupled run is the indicator of its initial
    nodes, byte for byte.  No step writes it: it is the sigma that step 1
    switched on, taken from that step, the only one of the run at rest."""
    res = run_scheme(problem, "coupled", m, snapshot_steps=(0,))
    w0 = init_point_values(res.grid, problem.ic)
    np.testing.assert_array_equal(res.snapshots[0], w0)
    sigma0 = classify_regularity(w0, res.grid.dx, res.params)
    if mixed:
        assert (sigma0 == 0).any() and (sigma0 == 1).any()
    assert res.sigma_history[0].tobytes() == sigma0.tobytes()


def _counting(update):
    """The stepper update, and the list it appends one entry to per call."""
    calls = []
    return (lambda u, out: calls.append(1) or update(u, out=out)), calls


def test_coupled_step_with_all_regular_matches_node_scheme() -> None:
    """sigma identically 1 must reproduce the node update bit for bit.
    No cell is active, so the cell update is never called and w_bar is
    the cell source; the level read is unwritten."""
    rng = np.random.default_rng(3)
    v = np.concatenate([[0.0], rng.uniform(0, 1, 8), [0.0]])
    params = RegularityParams(delta=np.inf, flat_tol=np.inf, guard=0)
    owned = np.arange(9) % 3 == 0  # carried averages still feed the source
    prev = (v, rng.uniform(0, 1, 9), owned)
    before = [a.tobytes() for a in prev]
    nu = 0.6
    ub, calls = _counting(ub_stepper(nu, v.size - 1))
    out = fresh_coupled_step(prev, 1.0, params, advect_const_stepper(nu, v.size), ub)
    np.testing.assert_array_equal(out.w, advect_const_values(v, nu))
    np.testing.assert_array_equal(out.sigma, 1)
    assert not out.owned.any()
    assert out.fresh_cell_count == 0
    assert calls == []
    np.testing.assert_array_equal(out.w, out.node_candidate)
    assert out.w is not out.node_candidate
    np.testing.assert_array_equal(out.cell_source, np.where(owned, prev[1], project_to_cells(v)))
    np.testing.assert_array_equal(out.w_bar, out.cell_source)
    assert [a.tobytes() for a in prev] == before


def test_coupled_step_with_one_irregular_node_calls_the_cell_update_once() -> None:
    """One slope above delta between flat ones marks one node irregular;
    its two cells are active, and the cell update runs once."""
    v = np.array([0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0])
    params = RegularityParams(delta=3.0, flat_tol=10.0, guard=0)
    np.testing.assert_array_equal(np.flatnonzero(classify_regularity(v, 1.0, params) == 0), [4])
    ub, calls = _counting(ub_stepper(0.5, v.size - 1))
    out = fresh_coupled_step(initial_level(v), 1.0, params, advect_const_stepper(0.5, v.size), ub)
    assert len(calls) == 1
    np.testing.assert_array_equal(np.flatnonzero(out.owned), [3, 4])
    np.testing.assert_array_equal(out.w_bar, ub_step_values(out.cell_source, 0.5))


def test_coupled_step_with_all_irregular_matches_cell_scheme() -> None:
    """sigma identically 0 hands every cell to the average update and
    rebuilds nodes from the fresh averages."""
    rng = np.random.default_rng(4)
    v = rng.uniform(0, 1, 9)
    params = RegularityParams(delta=0.0, flat_tol=0.0, guard=0)
    nu = 0.4
    sl, ub = advect_const_stepper(nu, v.size), ub_stepper(nu, v.size - 1)
    out = fresh_coupled_step(initial_level(v), 1.0, params, sl, ub)
    expected_bar = ub_step_values(project_to_cells(v), nu)
    np.testing.assert_array_equal(out.w_bar, expected_bar)
    np.testing.assert_array_equal(out.w, project_to_nodes(expected_bar))
    assert out.owned.all()
    # second step keeps evolving the owned averages, no re-projection
    out2 = fresh_coupled_step((out.w, out.w_bar, out.owned), 1.0, params, sl, ub)
    np.testing.assert_array_equal(out2.w_bar, ub_step_values(expected_bar, nu))


def test_coupled_step_bookkeeping() -> None:
    v = np.array([0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0])
    params = RegularityParams(delta=2.0, flat_tol=0.5, guard=0)
    prev = initial_level(v)
    sl, ub = advect_const_stepper(0.5, v.size), ub_stepper(0.5, v.size - 1)
    out = fresh_coupled_step(prev, 1.0, params, sl, ub)
    np.testing.assert_array_equal(out.sigma, classify_regularity(v, 1.0, params))
    np.testing.assert_array_equal(out.owned, active_cells(out.sigma))
    assert out.fresh_cell_count == np.count_nonzero(out.owned & ~prev[2])
    # the step hands back the node candidate and the cell source it used
    np.testing.assert_array_equal(out.node_candidate, advect_const_values(v, 0.5))
    np.testing.assert_array_equal(
        out.cell_source, np.where(prev[2], prev[1], project_to_cells(v))
    )
    out2 = fresh_coupled_step((out.w, out.w_bar, out.owned), 1.0, params, sl, ub)
    np.testing.assert_array_equal(out2.node_candidate, advect_const_values(out.w, 0.5))
    np.testing.assert_array_equal(
        out2.cell_source, np.where(out.owned, out.w_bar, project_to_cells(out.w))
    )
    np.testing.assert_array_equal(out2.w_bar, ub_step_values(out2.cell_source, 0.5))


def test_coupled_step_fills_holes_from_adjacent_averages() -> None:
    """At an irregular node the new value is the mean of the two fresh
    neighboring cell averages."""
    v = np.array([0.0, 0.0, 0.0, 3.0, 3.0, 3.0])
    params = RegularityParams(delta=1.0, flat_tol=0.5, guard=0)
    sigma = classify_regularity(v, 1.0, params)
    assert (sigma == 0).any() and (sigma == 1).any()
    nu = 0.5
    out = fresh_coupled_step(initial_level(v), 1.0, params, advect_const_stepper(nu, v.size),
                             ub_stepper(nu, v.size - 1))
    fill = project_to_nodes(out.w_bar)
    holes = np.flatnonzero(sigma == 0)
    np.testing.assert_array_equal(out.w[holes], fill[holes])
    kept = np.flatnonzero(sigma == 1)
    np.testing.assert_array_equal(out.w[kept], advect_const_values(v, nu)[kept])


def test_at_rest_step_takes_the_quarter_weights_at_irregular_nodes() -> None:
    """With identity node and cell updates and every node irregular, one
    step maps the nodes through the cell-then-node projection: interior
    node j becomes (w[j-1] + 2 w[j] + w[j+1])/4, an end node the one cell
    average next to it.  Integer nodes make every sum exact."""
    w = np.array([0.0, 4.0, -8.0, 12.0, 12.0, 0.0, 16.0])
    params = RegularityParams(delta=0.0, flat_tol=0.0, guard=0)
    identity = stepper(np.copy)
    out = fresh_coupled_step(initial_level(w), 1.0, params, identity, identity)
    np.testing.assert_array_equal(out.sigma, 0)
    assert out.fresh_cell_count == w.size - 1
    np.testing.assert_array_equal(out.w[1:-1], (w[:-2] + 2.0 * w[1:-1] + w[2:]) / 4.0)
    assert (out.w[0], out.w[-1]) == ((w[0] + w[1]) / 2.0, (w[-2] + w[-1]) / 2.0)


def test_coupled_run_at_rest_smooths_its_irregular_nodes() -> None:
    """adv-mix at rest takes one step at m = 79.  The node and cell
    schemes keep their data (l1 0.0); coupled keeps its regular nodes and
    gives each irregular node the projection round trip of the initial
    nodes, an l1 error of 0.114 (9/79)."""
    problem = replace(get_problem("adv-mix"), c=0.0)
    for scheme in ("sl", "ub"):
        assert run_scheme(problem, scheme, 79).errors.l1 == 0.0
    res = run_scheme(problem, "coupled", 79, snapshot_steps=(0,))
    assert res.n_steps == 1
    w0, regular = res.snapshots[0], res.sigma_history[0] != 0
    assert not regular.all()
    round_trip = project_to_nodes(project_to_cells(w0))
    assert res.values.tobytes() == np.where(regular, w0, round_trip).tobytes()
    assert res.errors.l1 == pytest.approx(9 / 79, rel=1e-12)


@pytest.mark.parametrize("name, m", [("adv-smooth", 39), ("adv-jump", 79), ("adv-var", 39)])
def test_all_irregular_run_returns_the_projected_cell_scheme_nodes(name: str, m: int) -> None:
    """A run with delta = 0 marks every node irregular on every step
    (sigma identically 0).  After its first step and each later one, its
    nodes are the node projection of the cell scheme started from the
    projected initial nodes, byte for byte."""
    problem = get_problem(name)
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    ops = make_operators(problem, grid, dt)
    res = run_scheme(problem, "coupled", m, delta=0.0, epsilon=0.0,
                     snapshot_steps=range(1, n_steps + 1))
    assert not res.sigma_history.any()
    cells = project_to_cells(init_point_values(grid, problem.ic))
    for k in range(1, n_steps + 1):
        cells = ops.cell_update(cells)
        assert res.snapshots[k].tobytes() == project_to_nodes(cells).tobytes(), k
