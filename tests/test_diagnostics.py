"""Tests for total-variation monitoring, the incremental form through the
witness bracket, stability witnesses (`block_checker` on one-step
blocks, against the bracket written out in `reference.py`), block
diagnostics, and error norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.diagnostics import (
    block_checker,
    convergence_orders,
    error_norms,
    total_variation,
    tv_monitor,
    tvb_allowance,
)
from slub.coupled import RegularityParams
from slub.grids import build_grid
from slub.harness import run_scheme
from slub.semi_lagrangian import advect_const_values
from slub.ultrabee import ub_step_values
from reference import bracket_violations, step_witness

TOL = 1e-12  # a step passes when its witness is at most this


# ---------------------------------------------------------------------------
# total variation and TV monitoring


def test_total_variation_pinned() -> None:
    assert total_variation(np.array([0.0, 2.0, 1.0, 1.0])) == 3.0
    assert total_variation(np.array([5.0])) == 0.0
    assert total_variation(np.zeros(7)) == 0.0


def test_tvb_allowance_scales_with_domain() -> None:
    grid = build_grid(1.0, 3.0, 8)
    assert tvb_allowance(RegularityParams(0.5, 0.1, 0), grid) == pytest.approx(1.0)
    assert tvb_allowance(RegularityParams(0.0, 0.1, 0), grid) == 0.0


def test_tv_monitor_accepts_nonincreasing_series() -> None:
    series = tv_monitor(np.array([4.0, 4.0, 3.5, 3.5, 2.0]), allowance=0.0)
    assert series.ok
    assert not series.flags.any()


def test_tv_monitor_flags_growth() -> None:
    series = tv_monitor(np.array([1.0, 1.5, 1.2]), allowance=0.0)
    assert not series.ok
    assert series.flags.tolist() == [False, True, False]


def test_tv_monitor_allowance_excuses_bounded_growth() -> None:
    values = np.array([1.0, 1.3, 1.1, 1.35])
    assert not tv_monitor(values, allowance=0.0).ok
    assert tv_monitor(values, allowance=0.5).ok


def test_tv_monitor_short_series_is_ok() -> None:
    assert tv_monitor(np.array([2.0]), allowance=0.0).ok
    assert tv_monitor(np.array([]), allowance=0.0).ok


@pytest.mark.parametrize("tv, flags", [
    ([1.0, np.nan], [False, True]),
    ([np.nan, 1.0], [False, True]),
    ([1.0, 0.5, np.nan, 0.4], [False, False, True, True]),
])
def test_tv_monitor_flags_a_nan_total_variation(tv, flags) -> None:
    """A step with a NaN TV on either side is not within the limit.
    These series used to pass, because nan > limit is False."""
    series = tv_monitor(tv, 0.0)
    assert not series.ok
    assert series.flags.tolist() == flags


def _tv_flags_before(tv, allowance):
    """`tv_monitor`'s flags as first written: growth > limit."""
    tv = np.asarray(tv, dtype=float)
    if tv.size < 2:
        return np.zeros(tv.size, dtype=bool)
    limit = allowance + 1e-12 * (1.0 + np.abs(tv[:-1]))
    return np.concatenate([[False], np.diff(tv) > limit])


def test_tv_monitor_keeps_the_flags_of_finite_series() -> None:
    """On finite series, the infinite allowance of a delta = inf run
    included, the flags are byte for byte those of the first form; the
    noisy series straddle the roundoff margin."""
    rng = np.random.default_rng(5)
    series = [[], [2.0], [1.0, 1.5, 1.2], [1.0, 1.3, 1.1, 1.35], [4.0, 4.0, 3.5, 3.5, 2.0]]
    series += [3.0 + np.cumsum(rng.normal(0.0, 4e-12, 50)) for _ in range(4)]
    for tv in series:
        for allowance in (0.0, 1e-12, 0.3, np.inf):
            flags = tv_monitor(tv, allowance).flags
            assert flags.tobytes() == _tv_flags_before(tv, allowance).tobytes()
    noisy = [_tv_flags_before(tv, 0.0)[1:] for tv in series[5:]]
    assert any(flags.any() and not flags.all() for flags in noisy)
    res = run_scheme("adv-jump", "coupled", 39, delta=np.inf)
    assert res.tv.flags.tobytes() == _tv_flags_before(res.tv.values, np.inf).tobytes()


@pytest.mark.filterwarnings("error")
def test_tv_monitor_envelope_starts_at_the_first_tv() -> None:
    """envelope[0] is TV(w0) exactly, also for an infinite allowance
    (inf * 0 would make it NaN and warn); later entries are
    TV(w0) + k*allowance, as one broadcast expression computes them."""
    tv = np.array([2.0, 1.5, 1.75, 1.0])
    for allowance in (0.0, 0.3, 1e300, np.inf):
        env = tv_monitor(tv, allowance).envelope
        assert env[0] == 2.0
        assert env[1:].tobytes() == (2.0 + allowance * np.arange(1.0, 4.0)).tobytes()
    assert tv_monitor(tv, np.inf).ok
    assert tv_monitor(np.array([]), np.inf).envelope.size == 0


# ---------------------------------------------------------------------------
# incremental form, stated through the witness bracket
#
# Harten's one-coefficient form u_new[j] = u[j] - C[j]*(u[j] - u[j-1])
# has C[j] in [0, 1] and no residual exactly when u_new[j] lies between
# u[j-1] and u[j], the two-point bracket of the witness for nu >= 0.


def _incremental_form(u: np.ndarray, new: np.ndarray) -> tuple:
    """Coefficients C and residual of a right-going step (flat ghost left
    of node 0); a flat interface gets C = 0 and leaves the update in the
    residual."""
    up = np.concatenate([u[:1], u[:-1]])
    jump, delta = u - up, u - new
    flat = jump == 0.0
    return np.where(flat, 0.0, delta / np.where(flat, 1.0, jump)), np.where(flat, delta, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_form_agrees_with_witness_bracket(seed: int) -> None:
    """C in [0, 1] with zero residual on every node iff the witness
    accepts the step, and a rejected step's worst node is outside the
    form; on random upwind steps, half of them with nodes pushed by
    1e-6..1, some interfaces flat."""
    rng = np.random.default_rng(seed)
    for trial in range(100):
        n = int(rng.integers(3, 60))
        u = rng.standard_normal(n)
        u[rng.random(n) < 0.2] = 0.0
        new = advect_const_values(u, rng.random())
        if trial % 2:
            push = rng.random(n) < 0.2
            new = np.where(push, new + rng.choice([-1.0, 1.0], n) * rng.uniform(1e-6, 1.0, n), new)
        coeff, residual = _incremental_form(u, new)
        in_form = (coeff >= -1e-12) & (coeff <= 1.0 + 1e-12) & (np.abs(residual) <= 1e-12)
        ok = step_witness(u, new, 0.5) <= TOL
        assert ok == bool(in_form.all())
        if not ok:
            assert not in_form[np.argmax(bracket_violations(u, new, 0.5))]


def test_extract_incremental_on_upwind_step() -> None:
    """An upwind step has every incremental coefficient in [0, 1]: each
    new value lies in its two-point bracket."""
    rng = np.random.default_rng(7)
    u = rng.standard_normal(24)
    out = advect_const_values(u, 0.4)
    assert step_witness(u, out, 0.4) <= 1e-14


def test_extract_incremental_on_antidiffusive_step() -> None:
    """The Ultra-Bee step is TVD in incremental form too: each new
    average stays in its upwind bracket."""
    rng = np.random.default_rng(11)
    u = rng.standard_normal(30)
    out = ub_step_values(u, 0.6)
    assert step_witness(u, out, 0.6) <= TOL


def test_extract_incremental_flat_interfaces_get_zero_coefficients() -> None:
    """Behind a flat interface the bracket is one point: the step leaves
    those nodes as they were, and any change there is flagged."""
    u = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
    out = advect_const_values(u, 0.25)
    assert step_witness(u, out, 0.25) <= TOL
    np.testing.assert_array_equal(out[:2], u[:2])
    for j in (0, 1):
        moved = out.copy()
        moved[j] += 1e-9
        assert step_witness(u, moved, 0.25) > TOL
        assert np.argmax(bracket_violations(u, moved, 0.25)) == j


def test_extract_incremental_detects_unstable_update() -> None:
    u = np.array([0.0, 1.0, 0.0, 0.0])
    bad = np.array([0.0, 2.5, -1.0, 0.0])  # overshoot no 2-point form explains
    assert step_witness(u, bad, 1.0) == 1.5
    assert np.argmax(bracket_violations(u, bad, 1.0)) == 1


# ---------------------------------------------------------------------------
# stability witnesses


def test_stability_witness_passes_convex_combination() -> None:
    rng = np.random.default_rng(3)
    u = rng.standard_normal(40)
    out = advect_const_values(u, 0.8)
    assert step_witness(u, out, 0.8) <= 1e-14


def test_stability_witness_flags_overshoot() -> None:
    u = np.array([0.0, 0.0, 1.0, 1.0])
    out = np.array([0.0, 0.0, 1.2, 1.0])  # exceeds the local upwind bracket
    assert step_witness(u, out, 0.5) == pytest.approx(0.2)


def test_stability_witness_mirrors_for_negative_courant() -> None:
    rng = np.random.default_rng(5)
    u = rng.standard_normal(40)
    out = advect_const_values(u, -0.6)
    assert step_witness(u, out, -0.6) <= TOL


@pytest.mark.parametrize("nu", [0.0, -0.0, 1e-15, -1e-15, 0.7, -0.7, 1.0, -1.0])
def test_stability_witness_scalar_matches_per_entry_courant_numbers(nu: float) -> None:
    """One scalar nu gives the same witness as an array filled with it,
    the bracket written out, on updates that pass and on updates that
    break the bracket; the worst entries agree too."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        u = rng.standard_normal(n)
        out = advect_const_values(u, nu) + rng.normal(0.0, 0.1, n) * (rng.random(n) < 0.3)
        scalar, array = bracket_violations(u, out, nu), bracket_violations(u, out, np.full(n, nu))
        assert step_witness(u, out, nu) == step_witness(u, out, np.full(n, nu))
        assert step_witness(u, out, nu) == max(0.0, scalar.max())
        assert np.argmax(scalar) == np.argmax(array)


def test_three_point_witness_brackets_min_combined_update() -> None:
    rng = np.random.default_rng(9)
    u = rng.standard_normal(40)
    fwd = ub_step_values(u, 0.5)
    bwd = ub_step_values(u, -0.5)
    out = np.minimum(fwd, bwd)
    assert step_witness(u, out, None) <= 1e-14


def test_three_point_witness_flags_values_outside_hull() -> None:
    u = np.array([0.0, 0.0, 0.0, 0.0])
    out = np.array([0.0, 1.0, 0.0, 0.0])
    assert step_witness(u, out, None) == 1.0


# ---------------------------------------------------------------------------
# block diagnostics: `block_checker`

# nu one scalar of either sign, >= 0 or < 0; one per entry of mixed sign
# or >= 0; None (two-sided); and a coupled block of two layers
BLOCK_CASES = ("scalar", "per-entry", "two-sided", "coupled", "scalar+", "scalar-", "per-entry+")


def _random_block(rng, case: str, k: int, n: int, signed_zeros: bool = False) -> tuple:
    """(rows, layers) of a random k-step block of one of the cases, with
    about a tenth of the values pushed off their update; with
    `signed_zeros`, about a third of every block's values are then set
    to 0.0 or -0.0."""

    def noisy(a):
        a = a + rng.normal(0.0, 0.1, a.shape) * (rng.random(a.shape) < 0.1)
        if signed_zeros:
            zero = np.copysign(0.0, rng.choice([-1.0, 1.0], a.shape))
            a = np.where(rng.random(a.shape) < 0.35, zero, a)
        return a

    nu = {"scalar": float(rng.uniform(-1.0, 1.0)), "per-entry": rng.uniform(-1.0, 1.0, n),
          "two-sided": None, "coupled": float(rng.uniform(-1.0, 1.0)),
          "scalar+": float(rng.uniform(0.0, 1.0)), "scalar-": float(rng.uniform(-1.0, -1e-3)),
          "per-entry+": rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)}[case]
    if case == "two-sided":
        def update(v):
            return np.minimum(ub_step_values(v, 0.5), ub_step_values(v, -0.5))
    else:
        def update(v):
            return ub_step_values(v, nu)
    rows = np.empty((k + 1, n))
    rows[0] = noisy(rng.standard_normal(n))
    for i in range(k):
        rows[i + 1] = noisy(update(rows[i]))
    if case != "coupled":
        return rows, [(rows[:-1], rows[1:], nu)]
    cand = noisy(np.array([advect_const_values(r, nu) for r in rows[:-1]]).reshape(k, n))
    src = noisy(rng.standard_normal((k, n - 1)))
    bar = noisy(np.array([ub_step_values(r, nu) for r in src]).reshape(k, n - 1))
    return rows, [(rows[:-1], cand, nu), (src, bar, nu)]


def _check(rows, layers, count=None) -> tuple:
    """(witness, tv, first bad) of a `block_checker` built on the block
    of rows[1:] (rows[0] is the solution before it) and `layers`, for
    its first `count` steps (all of them by default).  The checker
    writes into the middle of larger histories, and nothing else of
    them may change."""
    count = len(rows) - 1 if count is None else count
    tv = np.full(count + 2, -7.0)
    witness = np.full((count + 2, len(layers)), -7.0)
    bad = block_checker(rows[1:], layers)(count, tv[1:-1], witness[1:-1])
    assert (tv[[0, -1]] == -7.0).all() and (witness[[0, -1]] == -7.0).all()
    return witness[1:-1], tv[1:-1], bad


@settings(max_examples=200)
@given(
    case=st.sampled_from(BLOCK_CASES),
    k=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=3, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    partial=st.integers(min_value=0, max_value=12),
    signed_zeros=st.booleans(),
)
def test_block_diagnostics_match_the_row_by_row_checks(
    case: str, k: int, n: int, seed: int, partial: int, signed_zeros: bool
) -> None:
    """Each step's witness equals its layer's largest violation of the
    bracket written out entry by entry (at least 0), each TV is
    `total_variation` of its row to the byte, and nothing is flagged
    non-finite: for every bracket kind (nu None, one scalar >= 0 or of
    either sign, one per entry >= 0 or of mixed sign, and a coupled
    block of two layers), on the full block and on its first `partial`
    steps (none at all included), with and without values of 0.0 and
    -0.0 in old and new, where a max over the two depends on the operand
    order (`test_step_kernels` holds those bytes to the earlier form)."""
    rows, layers = _random_block(np.random.default_rng(seed), case, k, n, signed_zeros)
    count = min(partial, k)
    for steps in (k, count):
        witness, tv, bad = _check(rows, layers, steps)
        assert witness.shape == (steps, len(layers)) and bad is None
        assert tv.tobytes() == np.array([total_variation(r) for r in rows[1:steps + 1]]).tobytes()
        for col, (old, new, nu) in enumerate(layers):
            assert list(witness[:, col]) == [max(0.0, bracket_violations(old[i], new[i], nu).max())
                                             for i in range(steps)]


@pytest.mark.parametrize("n", [4, 129, 1601, 5000])
def test_block_total_variation_is_bitwise_row_by_row_on_long_rows(n: int) -> None:
    """The pairwise sum along C-contiguous rows adds in the same order as
    on one row, also past numpy's 8- and 128-element summation blocks,
    and so does the checker's."""
    rows = np.random.default_rng(n).standard_normal((6, n)) * 10.0 ** np.arange(-3, 3)[:, None]
    by_row = np.array([total_variation(r) for r in rows]).tobytes()
    assert total_variation(rows).tobytes() == by_row
    assert _check(np.vstack([rows[:1], rows]), [])[1].tobytes() == by_row


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_diagnostics_locate_non_finite_values_without_warnings(case: str, bad: float) -> None:
    """The checker names the first step that holds a non-finite value,
    the first solution row or layer output of that step that holds one
    (0 for the solution, 1 + l for layer l) and its first non-finite
    index; a one-step checker of one row, with the solution alone or
    with one layer, names that index for every row and layer output; the
    TV and witness of every spoilt row are not finite; no floating-point
    warning is raised, however many rows are spoilt."""
    rng = np.random.default_rng(3)
    k, n = 9, 12
    rows, layers = _random_block(rng, case, k, n)
    blocks = [rows[1:]] + [new for _, new, _ in layers]
    for block in blocks:
        for i in rng.choice(k, 4, replace=False):
            block[i, rng.choice(block.shape[1], 2, replace=False)] = bad
    spoilt = [[np.flatnonzero(~np.isfinite(block[i])) for block in blocks] for i in range(k)]
    witness, tv, found = _check(rows, layers)
    first = next(i for i in range(k) if any(idx.size for idx in spoilt[i]))
    col = next(c for c, idx in enumerate(spoilt[first]) if idx.size)
    assert found == (first, col, spoilt[first][col][0])
    for i in range(k):
        for col, idx in enumerate(spoilt[i]):
            if col == 0:
                one = _check(rows[i:i + 2], [])
            else:
                old, new, nu = layers[col - 1]
                one = _check(np.zeros((2, 1)), [(old[i:i + 1], new[i:i + 1], nu)])
            assert one[2] == ((0, min(col, 1), idx[0]) if idx.size else None)
            if idx.size and col == 0:
                assert not np.isfinite(tv[i])
            if idx.size and col > 0:
                assert not np.isfinite(witness[i, col - 1])


@pytest.mark.filterwarnings("error")
def test_block_checker_reports_an_overflowing_variation_of_finite_values() -> None:
    """A step whose values are finite but whose TV overflows is named
    with index -1; an earlier step whose witness alone is not finite
    (old values 1e308 apart) is not flagged, nor is a block of it alone."""
    rows = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e308, -1e308, 1e308], [1.0, 1.0, 1.0]])
    old = np.array([[1e308, -1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    new = np.array([[-1e308, 1e308, -1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    witness, tv, found = _check(rows, [(old, new, 0.5)])
    assert witness[0, 0] == np.inf and tv[0] == 0.0 and tv[1] == np.inf
    assert found == (1, 0, -1)
    assert _check(rows[:2], [(old[:1], new[:1], 0.5)])[2] is None


def _loop_witness(old: np.ndarray, new: np.ndarray, nu, j: int, left: float, right: float) -> float:
    """How far new[j] lies outside its bracket, by the rule written out:
    old[j-1..j+1] for nu None, else old[j] and its upwind neighbour by
    the sign of nu at j; `left` and `right` are old[j]'s neighbours."""
    if nu is None:
        bracket = (left, old[j], right)
    else:
        bracket = (old[j], left if (nu if np.ndim(nu) == 0 else nu[j]) >= 0.0 else right)
    return max(min(bracket) - new[j], new[j] - max(bracket))


ROW_END_NUS = {"three-point": None, "scalar+": 0.5, "scalar-": -0.5,
               "per-entry+": np.full(7, 0.5), "per-entry-": np.full(7, -0.5),
               "per-entry-mixed": np.array([0.5, -0.5, 0.5, 0.5, -0.5, 0.5, -0.5])}


@pytest.mark.parametrize("case", sorted(ROW_END_NUS))
def test_block_witness_at_the_row_ends_matches_a_written_out_loop(case: str) -> None:
    """Each row's worst violation sits at an end whose bracket takes a
    ghost (its first entry when it reads its left neighbour, its last
    when it reads its right one), and the flat neighbour in the row
    before or after would widen that bracket and hide the violation.
    Every block witness equals the written-out loop's, which brackets
    each entry within its own row."""
    nu = ROW_END_NUS[case]
    rng = np.random.default_rng(5)
    k, n = 6, 7
    old = rng.uniform(0.0, 1.0, (k, n))
    old[:, 0], old[:, -1] = -5.0, 5.0  # the flat neighbours across each row boundary
    new = old.copy()
    signs = np.broadcast_to(1.0 if nu is None else np.asarray(nu), n)
    reads_left, reads_right = signs[0] >= 0.0, nu is None or signs[-1] < 0.0
    ends = []
    for i in range(k):
        # alternate between the ends that read across, where there is a row to read
        usable = [j for j, ok in ((0, reads_left and i > 0), (n - 1, reads_right and i < k - 1)) if ok]
        ends.append(usable[i % len(usable)] if usable else 0 if reads_left else n - 1)
        new[i, ends[-1]] = 3.0 if ends[-1] == 0 else -3.0  # outside its own bracket
    rows = np.vstack([old[:1], new])  # the solution layer: rows[i] -> rows[i + 1]
    layers = [(old, new, nu), (rows[:-1], rows[1:], nu)]
    witness, _, _ = _check(rows, layers)
    flat, flat_nu = old.ravel(), nu if np.ndim(nu) == 0 else np.tile(nu, k)
    for col, (o, w, _) in enumerate(layers):
        for i in range(k):
            own = [_loop_witness(o[i], w[i], nu, j, o[i, max(j - 1, 0)], o[i, min(j + 1, n - 1)])
                   for j in range(n)]
            assert witness[i, col] == max(0.0, max(own)), (col, i)
    for i, j in enumerate(ends):
        own = _loop_witness(old[i], new[i], nu, j, old[i, max(j - 1, 0)], old[i, min(j + 1, n - 1)])
        assert own == witness[i, 0] > 1.0
        f = i * n + j  # the same entry, bracketed across the row boundary
        if 0 < f < flat.size - 1:
            assert _loop_witness(flat, new.ravel(), flat_nu, f, flat[f - 1], flat[f + 1]) < own


def test_total_variation_acts_on_the_last_axis() -> None:
    rows = np.array([[0.0, 2.0, 1.0, 1.0], [5.0, 5.0, 5.0, 5.0], [1.0, -1.0, 1.0, -1.0]])
    np.testing.assert_array_equal(total_variation(rows), [3.0, 0.0, 6.0])
    assert isinstance(total_variation(rows[0]), float)


# ---------------------------------------------------------------------------
# error norms and convergence orders


def test_error_norms_pinned_values() -> None:
    approx = np.array([1.0, 2.0, 3.0])
    exact = np.array([1.0, 1.5, 3.5])
    rep = error_norms(approx, exact, 0.5, np.array([0.0, 0.5, 1.0]), ())
    assert rep.l1 == pytest.approx(0.5 * (0.0 + 0.5 + 0.5))
    assert rep.l2 == pytest.approx(np.sqrt(0.5 * (0.25 + 0.25)))
    assert rep.linf == pytest.approx(0.5)
    # with no singular point the regular norm is the full one
    assert rep.linf_reg == rep.linf


def test_error_norms_excludes_singular_neighborhoods() -> None:
    x = np.linspace(0.0, 1.0, 11)
    approx = np.zeros(11)
    exact = np.zeros(11)
    exact[5] = 1.0  # spike at x = 0.5
    rep = error_norms(approx, exact, dx=0.1, x=x, singular_points=(0.5,))
    assert rep.linf == pytest.approx(1.0)
    # default exclusion radius of three spacings removes the spike
    assert rep.linf_reg == pytest.approx(0.0)


def test_error_norms_regular_part_never_exceeds_full_norm() -> None:
    rng = np.random.default_rng(21)
    x = np.linspace(-1.0, 1.0, 41)
    approx = rng.standard_normal(41)
    exact = rng.standard_normal(41)
    rep = error_norms(approx, exact, dx=x[1] - x[0], x=x, singular_points=(0.0,))
    assert rep.linf_reg is not None
    assert rep.linf_reg <= rep.linf + 1e-15


def test_error_norms_shape_mismatch_raises() -> None:
    with pytest.raises(ValueError):
        error_norms(np.zeros(3), np.zeros(4), 0.1, np.zeros(4), ())


def test_convergence_orders_recovers_power_law() -> None:
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    errors = 3.0 * h**2
    orders = convergence_orders(errors, h)
    np.testing.assert_allclose(orders, 2.0, rtol=1e-12)
    assert orders.size == 3


def test_convergence_orders_validates_lengths() -> None:
    with pytest.raises(ValueError):
        convergence_orders(np.array([1.0, 0.5]), np.array([0.1]))


@settings(max_examples=50)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=2, max_value=30),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
    st.floats(0.05, 1.0),
)
def test_upwind_step_never_increases_total_variation(u: np.ndarray, nu: float) -> None:
    out = advect_const_values(u, nu)
    assert total_variation(out) <= total_variation(u) + 1e-10 * (1 + total_variation(u))
