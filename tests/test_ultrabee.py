"""Anti-dissipative cell-average updates and their flux algebra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.grids import Alignment, Field, build_grid, edge_pad, init_cell_averages
from slub.harness import make_operators
from slub.problems import get_problem, ic_jump
from slub.semi_lagrangian import advect_const_values
from slub.ultrabee import ub_flux_left, ub_flux_right, ub_step_values

TRIPLES = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
CELLS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=4, max_value=60),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


def test_flux_left_pinned_values() -> None:
    assert ub_flux_left(0.0, 1.0, 1.0, 0.5) == 1.0
    assert ub_flux_left(0.0, 0.0, 1.0, 0.5) == 0.0
    # downwind value clamps to the steep interpolating bracket
    assert ub_flux_left(0.0, 1.0, 5.0, 0.5) == 2.0
    # at rest: pass the downwind value through unless the cell is flat
    assert ub_flux_left(0.0, 1.0, 5.0, 0.0) == 5.0
    assert ub_flux_left(1.0, 1.0, 5.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        ub_flux_left(0.0, 1.0, 1.0, -0.5)


def test_flux_right_pinned_values() -> None:
    assert ub_flux_right(5.0, 1.0, 0.0, -0.5) == 2.0
    assert ub_flux_right(1.0, 0.0, 0.0, -0.5) == 0.0
    with pytest.raises(ValueError):
        ub_flux_right(0.0, 1.0, 1.0, 0.5)


@given(triple=TRIPLES, nu=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_flux_brackets_interpolating_pair(triple, nu: float) -> None:
    """Either flux stays between the two cell values it interpolates
    (the cell and its downwind neighbor)."""
    prev, cur, nxt = triple
    f = ub_flux_left(prev, cur, nxt, nu)
    assert min(cur, nxt) - 1e-12 <= f <= max(cur, nxt) + 1e-12
    g = ub_flux_right(nxt, cur, prev, -nu)
    assert min(cur, nxt) - 1e-12 <= g <= max(cur, nxt) + 1e-12


@given(
    v=CELLS,
    nu=st.floats(min_value=0.0, max_value=1.0),
    kernel=st.sampled_from([ub_step_values, advect_const_values]),
)
@settings(max_examples=200, deadline=None)
def test_step_mirror_symmetry(v: np.ndarray, nu: float, kernel) -> None:
    """Reversing space and negating the velocity commute with the step,
    exactly: both signs evaluate the same arithmetic at |nu|."""
    forward = kernel(v, nu)
    mirrored = kernel(v[::-1], -nu)[::-1]
    np.testing.assert_array_equal(forward, mirrored)


@given(v=CELLS, nu=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_step_is_tvd_and_conservative(v: np.ndarray, nu: float) -> None:
    v = np.concatenate([[0.0, 0.0], v, [0.0, 0.0]])  # compact support
    out = ub_step_values(v, nu)
    tv = lambda u: np.sum(np.abs(np.diff(u)))
    assert tv(out) <= tv(v) + 1e-10 * (1.0 + tv(v))
    assert out.sum() == pytest.approx(v.sum(), abs=1e-9 * (1.0 + np.abs(v).sum()))


def test_step_transports_interface_aligned_jump_exactly() -> None:
    """Cell averages of a step profile translate without smearing for any
    admissible Courant number."""
    g = build_grid(-2.0, 4.0, 60)  # room downstream so the box stays interior
    nu = 0.7
    steps = 20
    v = init_cell_averages(g, ic_jump).values
    for _ in range(steps):
        v = ub_step_values(v, nu)
    shift = nu * steps * g.dx
    prim = ic_jump.antiderivative
    exact = np.diff(prim(g.nodes - shift)) / g.dx
    np.testing.assert_allclose(v, exact, atol=1e-13)


def test_step_rejects_cfl_violation() -> None:
    with pytest.raises(ValueError, match="CFL"):
        ub_step_values(np.zeros(6), 1.2)


def test_step_accepts_per_cell_courant_numbers() -> None:
    v = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    nus = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(ub_step_values(v, nus), ub_step_values(v, 0.5))


def test_step_cell_depends_only_on_its_own_courant_number() -> None:
    """With mixed-sign per-cell Courant numbers, cell j is updated as if
    every cell had nu_j: its sign picks the upwind side, including the
    signed zeros and the |nu| < 1e-14 at-rest branch."""
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-15, -1e-15, 1.0, -1.0])
    for _ in range(20):
        n = int(rng.integers(6, 40))
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = 0.0  # flat pairs exercise the at-rest branch
        nus = rng.uniform(-1.0, 1.0, n)
        picks = rng.random(n) < 0.4
        nus[picks] = rng.choice(special, int(picks.sum()))
        out = ub_step_values(v, nus)
        for j in range(n):
            assert np.array_equal(out[j], ub_step_values(v, nus[j])[j]), (j, nus[j])


SIGNED_ZEROS = np.array([0.0, -0.0, 1.0, 0.0, 0.0])


@given(v=CELLS, nu=st.floats(min_value=-1.0, max_value=1.0))
@example(v=SIGNED_ZEROS, nu=0.0)
@example(v=SIGNED_ZEROS, nu=-0.0)
@example(v=SIGNED_ZEROS, nu=1e-15)
@example(v=SIGNED_ZEROS, nu=-1e-15)
@example(v=SIGNED_ZEROS, nu=1.0)
@example(v=SIGNED_ZEROS, nu=-1.0)
@settings(max_examples=200, deadline=None)
def test_scalar_courant_number_matches_per_cell_form(v: np.ndarray, nu: float) -> None:
    """The interface-flux form for one scalar nu (mirrored for nu < 0)
    is byte-equal to the per-cell form on an array filled with nu."""
    per_cell = ub_step_values(v, np.full(v.size, nu))
    assert ub_step_values(v, nu).tobytes() == per_cell.tobytes()


def _flux_pos_reference(prev, cur, nxt, nu):
    """The flux for an array nu >= 0 as first written: every entry goes
    through the |nu| < 1e-14 test and both branches."""
    big, small = np.maximum(cur, prev), np.minimum(cur, prev)
    tiny = nu < 1e-14
    safe = np.where(tiny, 1.0, nu)
    clamped = np.minimum(np.maximum(nxt, big + (cur - big) / safe), small + (cur - small) / safe)
    return np.where(tiny, np.where(cur != prev, nxt, cur), clamped)


def _per_cell_reference(v: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """The per-cell `ub_step_values` as first written: the stencil is
    always read through three np.where calls on the sign of nu."""
    p = np.pad(v, 2, mode="edge")
    pos = nus >= 0.0
    up1 = np.where(pos, p[1:-3], p[3:-1])
    up2 = np.where(pos, p[:-4], p[4:])
    down = np.where(pos, p[3:-1], p[1:-3])
    a = np.abs(nus)
    return v - a * (_flux_pos_reference(up1, v, down, a) - _flux_pos_reference(up2, up1, v, a))


@given(
    v=CELLS,
    signs=st.sampled_from(["positive", "negative", "mixed", "tiny"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_per_cell_step_matches_its_three_where_form(v: np.ndarray, signs: str, seed: int) -> None:
    """Byte-equal to the three-np.where form for per-cell Courant numbers
    all positive (the stencil read by slices, adv-var's case), all
    negative and of mixed sign (np.where), and with some |nu| below
    1e-14 (the at-rest branch), signed zeros included."""
    rng = np.random.default_rng(seed)
    nus = rng.uniform(-1.0, 1.0, v.size)
    if signs == "positive":
        nus = np.abs(nus)
    elif signs == "negative":
        nus = -np.abs(nus)
    elif signs == "tiny":
        picks = rng.random(v.size) < 0.4
        nus[picks] = rng.choice([0.0, -0.0, 1e-15, -1e-15, 1e-300], int(picks.sum()))
    assert ub_step_values(v, nus).tobytes() == _per_cell_reference(v, nus).tobytes()


def test_two_velocity_step_is_min_of_singles() -> None:
    """The hj cell update is the pointwise min of the two single-velocity
    kernel calls, at Courant numbers f_min*dt/dx and f_max*dt/dx."""
    problem = get_problem("hj-abs")
    g = build_grid(-2.0, 2.0, 20)
    dt = 0.1
    v = init_cell_averages(g, ic_jump).values
    out = make_operators(problem, g, dt).cell_update(v)
    lo = ub_step_values(v, problem.f_min * dt / g.dx)
    hi = ub_step_values(v, problem.f_max * dt / g.dx)
    np.testing.assert_array_equal(out, np.minimum(lo, hi))


@dataclass(frozen=True)
class LimiterState:
    """Slope ratio and limiter value behind a limited flux.

    fell_back marks fluxes where the limited formula was unusable
    (phi = 0 on a slope change, or a value outside the local range)
    and the clamp-form flux was returned instead.
    """

    r: float
    phi: float
    fell_back: bool = False


def ub_flux_limited(field: Field, j: int, nu: float) -> tuple[float, LimiterState]:
    """Limited-slope form of the interface flux right of cell j.

    Cross-validation reference for ub_flux_left: flux =
    u_j + ((1-nu)/phi)(u_{j+1} - u_j) with
    phi = max(0, min(2r/nu, 2/(1-nu))), r the upwind slope ratio.
    The formula degenerates as r -> 0+ and on slope-sign changes; those
    cases fall back to the clamp-form flux and are flagged.
    """
    if field.alignment is not Alignment.CELL:
        raise ValueError("ub_flux_limited needs a cell-aligned field")
    if not (0.0 < nu < 1.0):
        raise ValueError(f"limited flux needs 0 < nu < 1, got {nu}")
    v = edge_pad(field.values, 1)
    u_prev, u_cur, u_next = v[j], v[j + 1], v[j + 2]
    d_plus = u_next - u_cur
    if d_plus == 0.0:
        return float(u_cur), LimiterState(r=np.nan, phi=0.0)
    r = (u_cur - u_prev) / d_plus
    phi = max(0.0, min(2.0 * r / nu, 2.0 / (1.0 - nu)))
    if phi == 0.0:
        flux = ub_flux_left(u_prev, u_cur, u_next, nu)
        return flux, LimiterState(r=r, phi=phi, fell_back=True)
    flux = u_cur + (1.0 - nu) / phi * d_plus
    lo = min(u_prev, u_cur, u_next)
    hi = max(u_prev, u_cur, u_next)
    if not (lo <= flux <= hi):
        flux = ub_flux_left(u_prev, u_cur, u_next, nu)
        return flux, LimiterState(r=r, phi=phi, fell_back=True)
    return float(flux), LimiterState(r=r, phi=phi)


def test_limited_flux_matches_clamp_form_on_monotone_data() -> None:
    """On the monotone triple (0, 1, 2) with nu = 1/2 the limited form
    gives 1 + (1/2)/phi with phi = 2/(1-nu)... = 1.125."""
    g = build_grid(0.0, 1.0, 3)
    f = Field(g, Alignment.CELL, np.array([0.0, 1.0, 2.0]))
    flux, state = ub_flux_limited(f, 1, 0.5)
    assert flux == pytest.approx(1.125)
    assert not state.fell_back and state.r == pytest.approx(1.0)
    clamp = ub_flux_left(0.0, 1.0, 2.0, 0.5)
    assert min(1.0, 2.0) <= flux <= max(1.0, 2.0)
    assert min(1.0, 2.0) <= clamp <= max(1.0, 2.0)


def test_limited_flux_flags_degenerate_cases() -> None:
    g = build_grid(0.0, 1.0, 3)
    # flat downwind difference: r undefined, flux = cell value
    flux, state = ub_flux_limited(Field(g, Alignment.CELL, np.array([0.0, 1.0, 1.0])), 1, 0.5)
    assert flux == 1.0 and state.phi == 0.0
    # slope-sign change: phi = 0, falls back to the clamp form
    f = Field(g, Alignment.CELL, np.array([2.0, 1.0, 3.0]))
    flux, state = ub_flux_limited(f, 1, 0.5)
    assert state.fell_back
    assert flux == ub_flux_left(2.0, 1.0, 3.0, 0.5)
    with pytest.raises(ValueError):
        ub_flux_limited(f, 1, 0.0)


@given(triple=TRIPLES, nu=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_limited_flux_always_in_local_range(triple, nu: float) -> None:
    """Whether the limited formula or the fallback fires, the returned
    flux stays within the three-cell range."""
    g = build_grid(0.0, 1.0, 3)
    f = Field(g, Alignment.CELL, np.array(triple, dtype=float))
    flux, state = ub_flux_limited(f, 1, nu)
    prev, cur, nxt = triple
    lo = min(cur, nxt) - 1e-12
    hi = max(cur, nxt) + 1e-12
    if not state.fell_back and not np.isnan(state.r):
        lo = min(prev, cur, nxt) - 1e-12
        hi = max(prev, cur, nxt) + 1e-12
    assert lo <= flux <= hi
