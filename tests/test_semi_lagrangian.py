"""Node-value transport updates: constant-velocity upwind and the
closed-form Hopf-Lax step."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.grids import build_grid, init_point_values
from slub.harness import make_operators, resolve_grid, time_ladder
from slub.problems import get_problem
from slub.semi_lagrangian import advect_const_values, hj_stepper

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
    """The node kernel acts on the raw node field that
    `init_point_values` samples, and leaves it unwritten."""
    g = build_grid(0.0, 1.0, 4)
    f = init_point_values(g, lambda x: np.where(x == 0.25, 1.0, 0.0))
    out = advect_const_values(f, 0.5)
    np.testing.assert_allclose(out, [0.0, 0.5, 0.5, 0.0, 0.0])
    np.testing.assert_array_equal(f, [0.0, 1.0, 0.0, 0.0, 0.0])


def test_sl_advection_step_var_rejects_cfl_violation() -> None:
    """The adv-var velocity -(x - x_bar), of 0.1 to 1.1 on [0, 1] with
    x_bar = 1.1, on dx = 0.25 with dt = 1 (Courant numbers up to 4.4) is
    refused when the node update is built.  A spec whose own nu runs
    above 1, such as x_bar = 11 at nu 0.6, is refused before that, when
    it is built (see `test_problems`)."""
    with pytest.raises(ValueError, match="CFL"):
        make_operators(get_problem("adv-var"), build_grid(0.0, 1.0, 4), 1.0)
    with pytest.raises(ValueError, match="x_bar=11.0"):
        replace(get_problem("adv-var"), x_bar=11.0)


def _brute_force_hj(v, nodes, c, dt):
    """Minimum of the P1 interpolant over the feet x_j - a*dt of 201
    controls a sampled uniformly on [-c, c]."""
    best = np.full(v.shape, np.inf)
    for a in np.linspace(-c, c, 201):
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
            out = hj_stepper(nodes, problem.c * dt)(v)
            brute = _brute_force_hj(v, nodes, problem.c, dt)
            assert np.array_equal(out, brute), (m, trial)


@given(v=FIELDS)
@settings(max_examples=100, deadline=None)
def test_hj_update_never_exceeds_local_max(v: np.ndarray) -> None:
    """An erosion step with zero running cost can only decrease values
    and never dips below the window minimum."""
    nodes = np.arange(v.size, dtype=float)
    out = hj_stepper(nodes, 0.5)(v)
    assert np.all(out <= v + 1e-12)
    assert np.all(out >= v.min() - 1e-12)


@given(
    v=FIELDS,
    bump=hnp.arrays(np.float64, 60, elements=st.floats(min_value=0.0, max_value=5.0)),
    r=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_hj_update_is_monotone_and_tvd(v: np.ndarray, bump: np.ndarray, r: float) -> None:
    """Raising the data never lowers the update, and total variation
    does not grow, for any control interval [-r, r] within one cell."""
    nodes = np.arange(v.size, dtype=float)
    update = hj_stepper(nodes, r)
    out = update(v)
    higher = update(v + bump[: v.size])
    assert np.all(higher >= out - 1e-12)
    tv = lambda u: np.sum(np.abs(np.diff(u)))
    assert tv(out) <= tv(v) + 1e-10 * (1.0 + tv(v))


def test_hj_stepper_rejects_a_control_interval_wider_than_a_cell() -> None:
    """Beyond r = dx the closed form misses nodes inside [x_j - r, x_j + r]:
    at r = 1.5 node 1 would read 0.5, not the minimum 0 at node 2."""
    with pytest.raises(ValueError, match="CFL violated"):
        hj_stepper(np.arange(5.0), 1.5)(np.array([1, 1, 0, 1, 1.0]))
    hj_stepper(np.arange(5.0), 1.0)  # r = dx is allowed
