"""Regularity classification, projections, and the coupled step."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import (
    CoupledState,
    RegularityParams,
    active_cells,
    backward_slopes,
    classify_regularity,
    coupled_step,
    init_coupled_state,
    project_to_cells,
    project_to_nodes,
)
from slub.harness import resolve_regularity
from slub.problems import get_problem
from slub.semi_lagrangian import advect_const_values
from slub.ultrabee import ub_step_values

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
    RegularityParams(delta=np.inf, flat_tol=np.inf, guard=0)  # every node regular by size
    for bad in ({"delta": np.nan, "flat_tol": 0.0}, {"delta": 1.0, "flat_tol": np.nan}):
        with pytest.raises(ValueError, match=r"need (delta|flat_tol) >= 0, got nan"):
            RegularityParams(guard=0, **bad)


def test_params_from_initial_slope() -> None:
    """resolve_regularity scales the preset factors by the largest
    initial |slope|: 2 here, from the middle pair at dx = 1."""
    problem = replace(get_problem("adv-jump"), delta_factor=0.5, flat_frac=0.1)
    v = np.array([0.0, 1.0, 3.0, 3.0])
    p = resolve_regularity(problem, v, 1.0)
    assert p.delta == pytest.approx(1.0)
    assert p.flat_tol == pytest.approx(0.2)


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
@settings(max_examples=100, deadline=None)
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


# ---------------------------------------------------------------------------
# the indicator against its earlier concatenate / convolve / flatnonzero form


def _classify_reference(values, dx, params):
    """`classify_regularity` as first written: slopes by np.diff, the
    left pair by np.concatenate, the guard by a float convolution."""
    v = np.asarray(values, dtype=float)
    s = np.concatenate([[0.0], np.diff(v) / dx, [0.0]])
    flat = np.abs(s) <= params.flat_tol
    same_sign = s[:-1] * s[1:] > 0.0
    compat = (flat[:-1] & flat[1:]) | same_sign
    small = np.abs(s[:-1]) < params.delta
    left_ok = np.concatenate([[True], compat[:-1]])
    sigma = small & left_ok & compat
    if params.guard > 0 and not sigma.all():
        kernel = np.ones(2 * params.guard + 1)
        hits = np.convolve((~sigma).astype(float), kernel, mode="full")
        sigma = hits[params.guard : params.guard + sigma.size] == 0.0
    return sigma.astype(np.int8)


def _active_reference(sigma):
    n_cells = sigma.size - 1
    act = np.zeros(n_cells, dtype=bool)
    bad = np.flatnonzero(sigma == 0)
    left = bad - 1
    act[left[left >= 0]] = True
    act[bad[bad < n_cells]] = True
    return act


# Node values on a coarse lattice, so slopes land exactly on the
# thresholds below, plus signed zeros and non-finite entries.
SPECIAL_NODES = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=20),
    elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0,
                              np.nan, np.inf, -np.inf]),
)
THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, np.inf])


@given(v=SPECIAL_NODES, dx=st.sampled_from([1.0, 0.5]), delta=THRESHOLDS,
       flat_tol=THRESHOLDS, guard=st.integers(min_value=0, max_value=6))
@example(v=np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]),
         dx=1.0, delta=1.0, flat_tol=0.0, guard=6)
@example(v=np.array([0.0, 3.0]), dx=1.0, delta=3.0, flat_tol=3.0, guard=6)
@settings(max_examples=400, deadline=None)
def test_classify_and_active_cells_match_their_earlier_form(
    v: np.ndarray, dx: float, delta: float, flat_tol: float, guard: int
) -> None:
    """Byte-equal to the concatenate / convolve / flatnonzero code for
    guards 0-6 on 1 to 20 nodes (so some fields are shorter than the
    guard window), with NaN, +-inf and +-0.0 entries and slopes exactly
    at flat_tol and at delta."""
    params = RegularityParams(delta=delta, flat_tol=flat_tol, guard=guard)
    with np.errstate(all="ignore"):  # inf - inf; both forms take the same ops
        sigma = classify_regularity(v, dx, params)
        expected = _classify_reference(v, dx, params)
    assert sigma.dtype == np.int8
    assert sigma.tobytes() == expected.tobytes()
    act = active_cells(sigma)
    assert act.dtype == bool
    assert act.tobytes() == _active_reference(expected).tobytes()


def test_projections_pinned_values() -> None:
    v = np.array([0.0, 2.0, 4.0])
    np.testing.assert_allclose(project_to_cells(v), [1.0, 3.0])
    np.testing.assert_allclose(project_to_nodes(np.array([1.0, 3.0])), [1.0, 2.0, 3.0])


@given(v=NODE_FIELDS)
@settings(max_examples=100, deadline=None)
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


def test_init_coupled_state() -> None:
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    state = init_coupled_state(v, 1.0, LOOSE)
    np.testing.assert_array_equal(state.w, v)
    np.testing.assert_allclose(state.w_bar, project_to_cells(v))
    assert not state.owned.any()
    assert state.step_index == 0
    np.testing.assert_array_equal(state.sigma, state.sigma_prev)


def test_coupled_step_with_all_regular_matches_node_scheme() -> None:
    """sigma identically 1 must reproduce the node update bit for bit."""
    rng = np.random.default_rng(3)
    v = np.concatenate([[0.0], rng.uniform(0, 1, 8), [0.0]])
    params = RegularityParams(delta=np.inf, flat_tol=np.inf, guard=0)
    state = init_coupled_state(v, 1.0, params)
    nu = 0.6
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    out = coupled_step(state, 1.0, params, sl, ub)
    np.testing.assert_array_equal(out.w, sl(v))
    np.testing.assert_array_equal(out.sigma, 1)
    assert not out.owned.any()
    assert out.fresh_cell_count == 0


def test_coupled_step_with_all_irregular_matches_cell_scheme() -> None:
    """sigma identically 0 hands every cell to the average update and
    rebuilds nodes from the fresh averages."""
    rng = np.random.default_rng(4)
    v = rng.uniform(0, 1, 9)
    params = RegularityParams(delta=0.0, flat_tol=0.0, guard=0)
    state = init_coupled_state(v, 1.0, params)
    nu = 0.4
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    out = coupled_step(state, 1.0, params, sl, ub)
    expected_bar = ub(project_to_cells(v))
    np.testing.assert_array_equal(out.w_bar, expected_bar)
    np.testing.assert_array_equal(out.w, project_to_nodes(expected_bar))
    assert out.owned.all()
    # second step keeps evolving the owned averages, no re-projection
    out2 = coupled_step(out, 1.0, params, sl, ub)
    np.testing.assert_array_equal(out2.w_bar, ub(expected_bar))


def test_coupled_step_bookkeeping() -> None:
    v = np.array([0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0])
    params = RegularityParams(delta=2.0, flat_tol=0.5, guard=0)
    state = init_coupled_state(v, 1.0, params)
    sl = lambda u: advect_const_values(u, 0.5)
    ub = lambda u: ub_step_values(u, 0.5)
    out = coupled_step(state, 1.0, params, sl, ub)
    assert out.step_index == 1
    np.testing.assert_array_equal(out.sigma_prev, state.sigma)
    np.testing.assert_array_equal(out.owned, active_cells(out.sigma))
    assert out.fresh_cell_count == np.count_nonzero(out.owned & ~state.owned)
    # the step hands back the node candidate and the cell source it used
    assert state.node_candidate is None and state.cell_source is None
    np.testing.assert_array_equal(out.node_candidate, sl(state.w))
    np.testing.assert_array_equal(
        out.cell_source, np.where(state.owned, state.w_bar, project_to_cells(state.w))
    )
    out2 = coupled_step(out, 1.0, params, sl, ub)
    np.testing.assert_array_equal(out2.node_candidate, sl(out.w))
    np.testing.assert_array_equal(
        out2.cell_source, np.where(out.owned, out.w_bar, project_to_cells(out.w))
    )
    np.testing.assert_array_equal(out2.w_bar, ub(out2.cell_source))


def test_coupled_step_fills_holes_from_adjacent_averages() -> None:
    """At an irregular node the new value is the mean of the two fresh
    neighboring cell averages."""
    v = np.array([0.0, 0.0, 0.0, 3.0, 3.0, 3.0])
    params = RegularityParams(delta=1.0, flat_tol=0.5, guard=0)
    state = init_coupled_state(v, 1.0, params)
    sigma = classify_regularity(v, 1.0, params)
    assert (sigma == 0).any() and (sigma == 1).any()
    nu = 0.5
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    out = coupled_step(state, 1.0, params, sl, ub)
    fill = project_to_nodes(out.w_bar)
    holes = np.flatnonzero(sigma == 0)
    np.testing.assert_array_equal(out.w[holes], fill[holes])
    kept = np.flatnonzero(sigma == 1)
    np.testing.assert_array_equal(out.w[kept], sl(v)[kept])
