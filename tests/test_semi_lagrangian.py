"""Node-value transport updates: constant-velocity upwind and the
closed-form Hopf-Lax step."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.grids import Alignment, Field, build_grid
from slub.harness import make_operators, resolve_grid, time_ladder
from slub.problems import get_problem
from slub.semi_lagrangian import advect_const_values, hj_update_values, p1_interpolate

FIELDS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=3, max_value=60),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
COURANTS = st.floats(min_value=-1.0, max_value=1.0)


def test_advect_const_convex_combination() -> None:
    v = np.array([0.0, 1.0, 0.0, 2.0])
    out = advect_const_values(v, 0.25)
    np.testing.assert_allclose(out, [0.0, 0.75, 0.25, 1.5])
    out_neg = advect_const_values(v, -0.25)
    np.testing.assert_allclose(out_neg, [0.25, 0.75, 0.5, 2.0])


def test_advect_const_unit_courant_shifts_exactly() -> None:
    v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    np.testing.assert_array_equal(advect_const_values(v, 1.0), [3.0, 3.0, 1.0, 4.0, 1.0])
    np.testing.assert_array_equal(advect_const_values(v, -1.0), [1.0, 4.0, 1.0, 5.0, 5.0])
    np.testing.assert_array_equal(advect_const_values(v, 0.0), v)


def test_advect_const_rejects_cfl_violation() -> None:
    with pytest.raises(ValueError, match="Courant"):
        advect_const_values(np.zeros(4), 1.5)


@given(v=FIELDS, nu=COURANTS)
@settings(max_examples=200, deadline=None)
def test_advect_const_is_monotone_and_tvd(v: np.ndarray, nu: float) -> None:
    """Each output lies in the hull of its two upwind inputs; total
    variation does not grow."""
    out = advect_const_values(v, nu)
    p = np.pad(v, 1, mode="edge")
    other = p[:-2] if nu >= 0 else p[2:]
    lo = np.minimum(v, other) - 1e-12
    hi = np.maximum(v, other) + 1e-12
    assert np.all(out >= lo) and np.all(out <= hi)
    tv = lambda u: np.sum(np.abs(np.diff(u)))
    assert tv(out) <= tv(v) + 1e-10 * (1.0 + tv(v))


def test_sl_advection_step_wraps_field() -> None:
    """The node kernel acts on a node field's values; the one remaining
    Field entry point, p1_interpolate, refuses cell-aligned data."""
    g = build_grid(0.0, 1.0, 4)
    f = Field(g, Alignment.NODE, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    out = advect_const_values(f.values, 0.5)
    np.testing.assert_allclose(out, [0.0, 0.5, 0.5, 0.0, 0.0])
    cell_field = Field(g, Alignment.CELL, np.zeros(4))
    with pytest.raises(ValueError, match="node-aligned"):
        p1_interpolate(cell_field, 0.5)


def test_sl_advection_step_var_rejects_cfl_violation() -> None:
    """A variable velocity of 10 on dx = 0.25 with dt = 1 is refused
    when the node update is built."""
    problem = replace(
        get_problem("adv-var"), c=lambda x: np.full_like(np.asarray(x, dtype=float), 10.0)
    )
    with pytest.raises(ValueError, match="CFL"):
        make_operators(problem, build_grid(0.0, 1.0, 4), 1.0)


def test_p1_interpolate_clamps_outside() -> None:
    g = build_grid(0.0, 1.5, 3)
    f = Field(g, Alignment.NODE, np.array([1.0, 3.0, 2.0, 4.0]))
    assert p1_interpolate(f, 0.25) == pytest.approx(2.0)
    assert p1_interpolate(f, -5.0) == 1.0
    assert p1_interpolate(f, 5.0) == 4.0
    np.testing.assert_allclose(p1_interpolate(f, np.array([0.0, 0.75])), [1.0, 2.5])


def _brute_force_hj(v, nodes, f_min, f_max, dt):
    """Minimum of the P1 interpolant over the feet x_j - a*dt of 201
    controls a sampled uniformly on [f_min, f_max]."""
    best = np.full(v.shape, np.inf)
    for a in np.linspace(f_min, f_max, 201):
        np.minimum(best, np.interp(nodes - a * dt, nodes, v), out=best)
    return best


def test_hj_update_matches_direct_minimization() -> None:
    """The closed form equals a brute-force minimum over 201 sampled
    controls, on random data at every hj-abs rung."""
    problem = get_problem("hj-abs")
    rng = np.random.default_rng(7)
    for m in problem.m_ladder:
        nodes = resolve_grid(problem, m).nodes
        dt, _ = time_ladder(problem, m)
        for trial in range(12):
            v = rng.standard_normal(nodes.size)
            if trial % 3 == 0:
                v[rng.random(nodes.size) < 0.5] = 0.0  # flat stretches and ties
            out = hj_update_values(v, nodes, problem.f_min, problem.f_max, dt)
            brute = _brute_force_hj(v, nodes, problem.f_min, problem.f_max, dt)
            assert np.array_equal(out, brute), (m, trial)


def test_hj_update_with_single_control_is_advection() -> None:
    """f_min = f_max leaves one control; the Hopf-Lax update degenerates
    to plain transport."""
    g = build_grid(0.0, 1.0, 20)
    v = np.sin(2 * np.pi * g.nodes)
    dt = 0.02
    for c in (0.7, -0.4, 0.0):
        out = hj_update_values(v, g.nodes, c, c, dt)
        np.testing.assert_allclose(out, advect_const_values(v, c * dt / g.dx), atol=1e-13)


def test_hj_update_rejects_all_infeasible() -> None:
    """f_min > f_max leaves no control."""
    with pytest.raises(ValueError, match="f_min <= f_max"):
        hj_update_values(np.zeros(4), np.arange(4.0), 1.0, -1.0, 0.1)


@given(v=FIELDS)
@settings(max_examples=100, deadline=None)
def test_hj_update_never_exceeds_local_max(v: np.ndarray) -> None:
    """An erosion step with zero running cost can only decrease values
    and never dips below the window minimum."""
    nodes = np.arange(v.size, dtype=float)
    out = hj_update_values(v, nodes, -1.0, 1.0, 0.5)
    assert np.all(out <= v + 1e-12)
    assert np.all(out >= v.min() - 1e-12)


@given(
    v=FIELDS,
    bump=hnp.arrays(np.float64, 60, elements=st.floats(min_value=0.0, max_value=5.0)),
    bounds=st.tuples(COURANTS, COURANTS),
)
@settings(max_examples=200, deadline=None)
def test_hj_update_is_monotone_and_tvd(v: np.ndarray, bump: np.ndarray, bounds) -> None:
    """Raising the data never lowers the update, and total variation
    does not grow, for any control interval within one cell."""
    f_min, f_max = sorted(bounds)
    nodes = np.arange(v.size, dtype=float)
    out = hj_update_values(v, nodes, f_min, f_max, 1.0)
    higher = hj_update_values(v + bump[: v.size], nodes, f_min, f_max, 1.0)
    assert np.all(higher >= out - 1e-12)
    tv = lambda u: np.sum(np.abs(np.diff(u)))
    assert tv(out) <= tv(v) + 1e-10 * (1.0 + tv(v))
