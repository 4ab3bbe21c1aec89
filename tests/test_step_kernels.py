"""The step path's kernels against their earlier numpy expressions.

Each kernel of a coupled step writes into fresh temporaries in place
instead of padding, re-selecting with np.where or allocating one array
per term.  These tests keep the earlier expressions, written out here,
and require of each kernel, on values that include NaN, infinities,
signed zeros and overflowing magnitudes:
- the same bytes, every NaN read as one NaN: numpy gives a NaN from two
  NaN operands the sign of one or the other by its position in a
  vectorized loop, so splitting a loop differently may flip it;
- the same kinds of floating-point warning, and the same overflow
  error under np.errstate(over="raise");
- its input left unwritten, contiguous or a reversed view.

The prepared steppers (`ub_stepper`, `ub_min_stepper`,
`advect_const_stepper` and those of `make_operators`) are held to the
same, called as a run calls them: into one row of a block, given
another row of it, and writing no entry outside the row.  The witness
bracket of a negative nu is held to the bytes of its earlier
right-neighbour form, and `block_checker` to the bytes of the earlier
one-call `block_diagnostics`.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import (
    CoupledState,
    RegularityParams,
    active_cells,
    classify_regularity,
    coupled_step,
    project_to_cells,
    project_to_nodes,
)
from slub.diagnostics import _bracket_violation, block_checker, total_variation
from slub.grids import build_grid
from slub.harness import make_operators, time_ladder
from slub.problems import REGISTRY, get_problem
from slub.semi_lagrangian import advect_const_stepper, advect_const_values
from slub.ultrabee import ub_min_stepper, ub_step_values, ub_stepper
from reference import coupled_out, flux_left, flux_right, stepper

# NaN of both signs, infinities, signed zeros, a subnormal, values whose
# sums or quotients overflow, and a few plain ones.
LATTICE = st.sampled_from(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300,
     1.0, -1.0, 0.5, -2.5, 3.0, 1e308, -1e308]
)
SPECIAL_NU = [0.0, -0.0, 1e-15, -1e-15, 1.0, -1.0]
SCALAR_NU = st.sampled_from(SPECIAL_NU) | st.floats(min_value=-1.0, max_value=1.0)
PER_CELL_NU = {
    "positive": st.floats(min_value=0.01, max_value=1.0),
    "mixed": st.floats(min_value=-1.0, max_value=1.0),
    "tiny": st.sampled_from(SPECIAL_NU + [1e-300, 0.5, -0.5]),
}


def _values(min_size: int = 1, max_size: int = 24):
    return hnp.arrays(np.float64, st.integers(min_size, max_size), elements=LATTICE)


# ---------------------------------------------------------------------------
# the earlier expressions


def _pad(v, k):
    return np.pad(v, k, mode="edge")


def _old_flux_pos(prev, cur, nxt, nu):
    big = np.maximum(cur, prev)
    small = np.minimum(cur, prev)
    if (nu if isinstance(nu, float) else np.min(nu, initial=np.inf)) >= 1e-14:
        b = big + (cur - big) / nu
        return np.minimum(np.maximum(nxt, b), small + (cur - small) / nu)
    nu = np.asarray(nu, dtype=float)
    tiny = nu < 1e-14
    safe = np.where(tiny, 1.0, nu)
    b = big + (cur - big) / safe
    B = small + (cur - small) / safe
    clamped = np.minimum(np.maximum(nxt, b), B)
    at_rest = np.where(cur != prev, nxt, cur)
    return np.where(tiny, at_rest, clamped)


def _old_ub_step_values(values, nus):
    v = np.asarray(values, dtype=float)
    if np.ndim(nus) == 0:
        if nus < 0.0:
            return _old_ub_step_values(v[::-1], -nus)[::-1]
        a = abs(float(nus))
        p = _pad(v, 2)
        F = _old_flux_pos(p[:-3], p[1:-2], p[2:-1], a)
        return v - a * (F[1:] - F[:-1])
    p = _pad(v, 2)
    nu = np.asarray(nus, dtype=float)
    pos = nu >= 0.0
    if pos.all():
        up1, up2, down = p[1:-3], p[:-4], p[3:-1]
    else:
        up1 = np.where(pos, p[1:-3], p[3:-1])
        up2 = np.where(pos, p[:-4], p[4:])
        down = np.where(pos, p[3:-1], p[1:-3])
    a = np.abs(nu)
    return v - a * (_old_flux_pos(up1, v, down, a) - _old_flux_pos(up2, up1, v, a))


def _old_advect_const_values(values, nu):
    v = np.asarray(values, dtype=float)
    padded = _pad(v, 1)
    up = padded[:-2] if nu >= 0.0 else padded[2:]
    a = abs(nu)
    return a * up + (1.0 - a) * v


def _old_project_to_cells(v):
    return 0.5 * (v[:-1] + v[1:])


def _old_project_to_nodes(c):
    p = _pad(c, 1)
    return 0.5 * (p[:-1] + p[1:])


def _old_classify_regularity(v, dx, params):
    """The guard-free indicator with its earlier sign test, the product
    of two slopes, which underflows to 0 below about 1e-162."""
    s = np.concatenate([[0.0], np.diff(v) / dx, [0.0]])
    mag = np.abs(s)
    flat = mag <= params.flat_tol
    compat = (flat[:-1] & flat[1:]) | (s[:-1] * s[1:] > 0.0)
    sigma = (mag[:-1] < params.delta) & compat
    sigma[1:] &= compat[:-1]
    return sigma.view(np.int8)


def _old_coupled_step(prev, dx, params, sl_update, ub_update):
    w, w_bar, owned = prev
    sigma = classify_regularity(w, dx, params)
    act = active_cells(sigma)
    source = np.where(owned, w_bar, _old_project_to_cells(w))
    # with no active cell, every node is regular and the cells stay as sourced
    new_bar = ub_update(source) if act.any() else source
    new_w_nodes = sl_update(w)
    fill = _old_project_to_nodes(new_bar)
    w_next = np.where(sigma == 1, new_w_nodes, fill)
    return CoupledState(
        w=w_next,
        w_bar=new_bar,
        owned=act,
        sigma=sigma,
        fresh_cell_count=int(np.count_nonzero(act & ~owned)),
        node_candidate=new_w_nodes,
        cell_source=source,
    )


def _old_right_bracket_violation(u_old, u_new):
    """The witness bracket of a negative nu everywhere, by u_old[j] and
    u_old[j+1]: one slice op per bound over the flat values, and each
    row's last entry bracketed by its own value."""
    old = np.ascontiguousarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    o = old.reshape(-1)
    bounds = []
    for op in (np.minimum, np.maximum):
        b = np.empty_like(old)
        op(o[:-1], o[1:], out=b.reshape(-1)[:-1])
        b[..., -1] = old[..., -1]
        bounds.append(b)
    lo, hi = bounds
    np.subtract(lo, new, out=lo)
    return np.maximum(lo, np.subtract(new, hi, out=hi), out=lo)


def _old_bracket_violation(u_old, u_new, nu):
    """The witness bracket's violation per entry: edge padding for a
    negative nu, else one slice op per bound over the flat values."""
    old = np.ascontiguousarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    o = old.reshape(-1)
    pos = None if nu is None else np.asarray(nu, dtype=float) >= 0.0
    if pos is not None and not pos.all():
        p = _pad(old, ((0, 0), (1, 1)))
        other = np.where(pos, p[..., :-2], p[..., 2:])
    bounds = []
    for op in (np.minimum, np.maximum):
        b = np.empty_like(old)
        f = b.reshape(-1)
        if pos is None:
            op(o[:-1], o[1:], out=f[1:])
            b[..., 0] = old[..., 0]
            last = op(b[..., -1], old[..., -1])
            op(f[:-1], o[1:], out=f[:-1])
            b[..., -1] = last
        elif pos.all():
            op(o[1:], o[:-1], out=f[1:])
            b[..., 0] = old[..., 0]
        else:
            op(old, other, out=b)
        bounds.append(b)
    lo, hi = bounds
    np.subtract(lo, new, out=lo)
    return np.maximum(lo, np.subtract(new, hi, out=hi), out=lo)


def _old_block_diagnostics(rows, layers):
    """(witness, tv, first_bad) of a block by the earlier one-call form,
    which allocated each array per call: each layer's witness, at least
    0, the TV of rows[1:], and the first non-finite index (-1 if none)
    of each solution row and layer output."""
    with np.errstate(all="ignore"):
        tv = total_variation(rows[1:])
        witness = np.stack([
            np.maximum(np.max(_old_bracket_violation(old, new, nu), axis=-1), 0.0)
            for old, new, nu in layers
        ], axis=-1)
    first_bad = np.full((tv.size, 1 + len(layers)), -1)
    blocks = [rows[1:]] + [new for _, new, _ in layers]
    for i, col in zip(*np.nonzero(~np.isfinite(np.column_stack([tv, witness])))):
        bad = np.flatnonzero(~np.isfinite(blocks[col][i]))
        if bad.size:
            first_bad[i, col] = bad[0]
    return witness, tv, first_bad


# ---------------------------------------------------------------------------
# comparison helpers


def _bytes(x) -> bytes:
    """The bytes of x, with every NaN the same NaN."""
    x = np.asarray(x)
    return (np.where(np.isnan(x), np.nan, x) if x.dtype.kind == "f" else x).tobytes()


def _kind(message) -> str:
    """'overflow' of 'overflow encountered in (scalar) add', and so on."""
    return str(message).split(" encountered")[0]


def _outcome(fn, *args):
    """(result bytes, kinds of floating-point warning, kind of the
    overflow error or None) of fn(*args): first under numpy's default
    error handling, then with overflow raising."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(
        divide="warn", over="warn", invalid="warn", under="ignore"
    ):
        warnings.simplefilter("always")
        out = _bytes(fn(*args))
        raised = None
        with np.errstate(over="raise"):
            try:
                fn(*args)
            except FloatingPointError as exc:
                raised = _kind(exc)
    return out, {_kind(w.message) for w in caught}, raised


def _assert_same_and_unwritten(new, old, values, *args) -> None:
    """new(x, *args) matches old(x, *args) for x = `values` and for a
    reversed view, and writes into neither."""
    base = values.copy()
    for x in (values, base[::-1]):
        before = x.tobytes()
        assert _outcome(new, x, *args) == _outcome(old, x, *args)
        assert x.tobytes() == before


def _assert_stepper_matches(update, old, values) -> None:
    """update(x, out=row) gives old(x) as `_assert_same_and_unwritten`
    requires, for x a row of a block and a reversed view of that row; it
    returns `row` itself and writes no entry of the block outside `row`.
    update(x) without `out` gives the same bytes."""
    n = values.size
    for flip in (False, True):
        block = np.full((3, n), 0.375)
        block[0] = values
        x, row = (block[0][::-1] if flip else block[0]), block[1]
        others = np.delete(block, 1, axis=0).tobytes()

        def into_row(v):
            out = update(v, out=row)
            assert out is row
            return out

        assert _outcome(into_row, x) == _outcome(old, x)
        assert np.delete(block, 1, axis=0).tobytes() == others
        assert _outcome(update, x) == _outcome(old, x)


# ---------------------------------------------------------------------------
# the kernels


@given(v=_values(), nu=SCALAR_NU)
@settings(max_examples=200, deadline=None)
def test_scalar_ub_step_matches_its_earlier_form(v: np.ndarray, nu: float) -> None:
    _assert_same_and_unwritten(ub_step_values, _old_ub_step_values, v, nu)


@given(v=_values(), kind=st.sampled_from(sorted(PER_CELL_NU)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_per_cell_ub_step_matches_its_earlier_form(
    v: np.ndarray, kind: str, data
) -> None:
    """Per-cell Courant numbers all positive (stencil by slices, no
    at-rest entry), of mixed sign, or with zero and tiny entries."""
    nus = data.draw(hnp.arrays(np.float64, v.size, elements=PER_CELL_NU[kind]))
    _assert_same_and_unwritten(ub_step_values, _old_ub_step_values, v, nus)


@given(
    triple=st.tuples(LATTICE, LATTICE, LATTICE),
    nu=st.sampled_from([0.0, 1e-15, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_reference_fluxes_match_the_earlier_scalar_flux(triple, nu: float) -> None:
    """The reference fluxes run the array flux on one interface;
    their value is the scalar evaluation of the earlier flux."""
    prev, cur, nxt = triple
    with np.errstate(all="ignore"):
        left = float(_old_flux_pos(prev, cur, nxt, nu))
        right = float(_old_flux_pos(nxt, cur, prev, nu))
        assert _bytes(flux_left(prev, cur, nxt, nu)) == _bytes(left)
        assert _bytes(flux_right(prev, cur, nxt, -nu)) == _bytes(right)


@given(v=_values(), nu=SCALAR_NU)
@settings(max_examples=200, deadline=None)
def test_advect_const_matches_its_earlier_form(v: np.ndarray, nu: float) -> None:
    """n = 1, 2, 3 and up: the ghost entry is the end value."""
    _assert_same_and_unwritten(advect_const_values, _old_advect_const_values, v, nu)


@given(c=_values())
@settings(max_examples=200, deadline=None)
def test_projections_match_their_earlier_form(c: np.ndarray) -> None:
    _assert_same_and_unwritten(project_to_nodes, _old_project_to_nodes, c)
    _assert_same_and_unwritten(project_to_cells, _old_project_to_cells, c)


@given(
    w=_values(min_size=4),
    data=st.data(),
    nu=SCALAR_NU,
    thresholds=st.sampled_from([(0.5, 0.1, 0), (2.0, 0.5, 1), (np.inf, np.inf, 0), (0.0, 0.0, 0)]),
)
@settings(max_examples=200, deadline=None)
def test_coupled_step_matches_its_np_where_form(
    w: np.ndarray, data, nu: float, thresholds
) -> None:
    """Both masks picked by np.copyto give the np.where form's state,
    field by field, into six separate arrays with the one-call kernels
    as steppers, and the level read stays as it was.  Both forms keep
    the cell source as w_bar on a step with no active cell, which the
    (inf, inf, 0) thresholds give on every draw whose slopes are finite."""
    n = w.size
    w_bar = data.draw(hnp.arrays(np.float64, n - 1, elements=LATTICE))
    owned = data.draw(hnp.arrays(np.bool_, n - 1))
    params = RegularityParams(*thresholds)
    before = [a.tobytes() for a in (w, w_bar, owned)]
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    with np.errstate(all="ignore"):
        new = coupled_step((w, w_bar, owned), 0.5, params, stepper(sl), stepper(ub),
                           coupled_out(n))
        old = _old_coupled_step((w, w_bar, owned), 0.5, params, sl, ub)
    for name in ("w", "w_bar", "owned", "sigma", "node_candidate", "cell_source"):
        assert _bytes(getattr(new, name)) == _bytes(getattr(old, name)), name
    assert new.fresh_cell_count == old.fresh_cell_count
    assert [a.tobytes() for a in (w, w_bar, owned)] == before


@given(
    w=_values(min_size=4),
    data=st.data(),
    nu=SCALAR_NU,
    thresholds=st.sampled_from([(0.5, 0.1, 0), (2.0, 0.5, 1), (np.inf, np.inf, 0), (0.0, 0.0, 0)]),
)
@settings(max_examples=200, deadline=None)
def test_coupled_step_writes_the_np_where_form_into_block_rows(
    w: np.ndarray, data, nu: float, thresholds
) -> None:
    """The coupled step as a run calls it: it reads row 0 of the node,
    cell-average and owned blocks and writes row 1 of all six blocks,
    with the run's prepared node and cell steppers.  Row 1 holds the
    np.where form's state, field by field, the returned state views
    row 1, and no other row is written."""
    n = w.size
    w_bar = data.draw(hnp.arrays(np.float64, n - 1, elements=LATTICE))
    owned = data.draw(hnp.arrays(np.bool_, n - 1))
    params = RegularityParams(*thresholds)
    rows, cand = np.full((2, 3, n), 0.375)
    src, bar = np.full((2, 3, n - 1), 0.375)
    own, sig = np.zeros((3, n - 1), bool), np.full((3, n), 7, np.int8)
    rows[0], bar[0], own[0] = w, w_bar, owned
    blocks = (rows, bar, own, sig, cand, src)  # the order of CoupledState
    others = [np.delete(b, 1, axis=0).tobytes() for b in blocks]
    with np.errstate(all="ignore"):
        new = coupled_step((rows[0], bar[0], own[0]), 0.5, params, advect_const_stepper(nu),
                           ub_stepper(nu), tuple(b[1] for b in blocks))
        old = _old_coupled_step((w, w_bar, owned), 0.5, params,
                                lambda u: advect_const_values(u, nu),
                                lambda u: ub_step_values(u, nu))
    for name, b in zip(("w", "w_bar", "owned", "sigma", "node_candidate", "cell_source"), blocks):
        assert _bytes(b[1]) == _bytes(getattr(old, name)), name
        assert np.shares_memory(getattr(new, name), b[1]), name
    assert new.fresh_cell_count == old.fresh_cell_count
    assert [np.delete(b, 1, axis=0).tobytes() for b in blocks] == others


TINY_FREE = st.sampled_from(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e308, -1e308]
)


@given(
    v=hnp.arrays(np.float64, st.integers(1, 24), elements=TINY_FREE),
    dx=st.sampled_from([1.0, 0.5, 1e-3]),
    delta=st.sampled_from([0.0, 0.5, 1.0, 4.0, np.inf]),
    flat_tol=st.sampled_from([0.0, 0.5, 1.0, 4.0, np.inf]),
)
@settings(max_examples=300, deadline=None)
def test_sign_test_matches_the_product_form_where_it_does_not_underflow(
    v: np.ndarray, dx: float, delta: float, flat_tol: float
) -> None:
    """On slopes whose pairwise products do not underflow, NaN, infinities,
    signed zeros and overflowing magnitudes included, comparing signs
    gives the flags of the product form.  It warns of nothing the product
    form does not: the product's own overflow and inf * 0 are gone."""
    params = RegularityParams(delta, flat_tol)
    new = _outcome(classify_regularity, v, dx, params)
    old = _outcome(_old_classify_regularity, v, dx, params)
    assert new[0] == old[0]
    assert new[1] <= old[1]


NEGATIVE_NU = st.sampled_from([-1e-15, -0.5, -1.0]) | st.floats(min_value=-1.0, max_value=-5e-324)


def _violation(old, new, nu):
    """The checker's bracket violation per entry for a nu of which some
    entry is negative, into fresh scratch."""
    negative = np.broadcast_to(~(np.asarray(nu, dtype=float) >= 0.0), old.shape[-1])
    return _bracket_violation(old, new, negative, np.empty(old.shape), np.empty(old.shape))


@given(
    block=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                     elements=LATTICE),
    nu=NEGATIVE_NU,
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_negative_nu_bracket_matches_the_right_neighbour_form(block, nu: float, data) -> None:
    """A negative nu, one scalar or one per entry, takes the bracket of
    mixed signs (the left one, then the right one where nu < 0), and
    gives the bytes of the right-neighbour bracket, each row's last entry
    included; u_old is left unwritten."""
    new = data.draw(hnp.arrays(np.float64, block.shape, elements=LATTICE))
    per_entry = data.draw(hnp.arrays(np.float64, block.shape[-1], elements=NEGATIVE_NU))
    old_bytes = block.tobytes()
    for nus in (nu, per_entry):
        assert (_outcome(_violation, block, new, nus)
                == _outcome(_old_right_bracket_violation, block, new))
        with np.errstate(all="ignore"):
            last = _violation(block, new, nus)[:, -1]
            own = np.maximum(block[:, -1] - new[:, -1], new[:, -1] - block[:, -1])
        assert _bytes(last) == _bytes(own)
    assert block.tobytes() == old_bytes


def _nus(width: int):
    """A layer's Courant numbers: None, one scalar, or one per entry."""
    return st.none() | SCALAR_NU | hnp.arrays(
        np.float64, width, elements=PER_CELL_NU["tiny"] | PER_CELL_NU["mixed"])


@pytest.mark.filterwarnings("error")
@given(
    block=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 12)),
                     elements=LATTICE),
    two_layers=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_block_checker_matches_the_earlier_block_diagnostics(block, two_layers: bool, data) -> None:
    """The checker writes the bytes of the earlier one-call form, each TV
    and each witness, for every bracket kind (nu None, one scalar and one
    per entry of either sign or mixed sign), with one layer or two of
    different widths, for the first `count` steps of the block (none
    included).  It names the step, column and index of the first step
    the earlier form flags, and warns of nothing."""
    k, n = block.shape
    rows = np.vstack([data.draw(hnp.arrays(np.float64, n, elements=LATTICE)), block])
    layers = [(rows[:-1], data.draw(hnp.arrays(np.float64, (k, n), elements=LATTICE)),
               data.draw(_nus(n)))]
    if two_layers:
        old, new = (data.draw(hnp.arrays(np.float64, (k, n - 1), elements=LATTICE))
                    for _ in range(2))
        layers.append((old, new, data.draw(_nus(n - 1))))
    count = data.draw(st.integers(0, k))
    witness, tv = np.empty((count, len(layers))), np.empty(count)
    found = block_checker(rows[1:], layers)(count, tv, witness)
    old_witness, old_tv, first_bad = _old_block_diagnostics(
        rows[:count + 1], [(o[:count], w[:count], nu) for o, w, nu in layers])
    assert _bytes(witness) == _bytes(old_witness.reshape(count, len(layers)))
    assert _bytes(tv) == _bytes(old_tv)
    bad = ~np.isfinite(old_tv) | np.any(first_bad >= 0, axis=1)
    if not bad.any():
        assert found is None
    else:
        i = int(np.argmax(bad))
        col = int(np.argmax(first_bad[i] >= 0))
        assert found == (i, col, first_bad[i, col])


@pytest.mark.parametrize("nu", [None, 0.5, -0.5, np.array([0.5, -0.5, 0.5])],
                         ids=["three-point", "scalar+", "scalar-", "mixed"])
def test_block_checker_keeps_the_zero_signs_of_the_earlier_form(nu) -> None:
    """Old and new rows of three entries, each 0.0 or -0.0, all 64 pairs
    as the steps of one block: the checker's witnesses and TV have
    the bytes of the earlier form.  A min or max of 0.0 and -0.0 returns
    one operand or the other by their order, so each op keeps its
    operand order; here some rows' largest violation is -0.0, which the
    clamp at 0 makes 0.0."""
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=6)))
    old, new = zeros[:, :3].copy(), zeros[:, 3:].copy()
    rows = np.vstack([np.zeros((1, 3)), new])
    layers = [(old, new, nu), (rows[:-1], rows[1:], nu)]
    witness, tv = np.empty((len(new), 2)), np.empty(len(new))
    assert block_checker(rows[1:], layers)(len(new), tv, witness) is None
    old_witness, old_tv, _ = _old_block_diagnostics(rows, layers)
    assert witness.tobytes() == old_witness.tobytes() and tv.tobytes() == old_tv.tobytes()
    with np.errstate(all="ignore"):
        row_max = np.max(_old_bracket_violation(old, new, nu), axis=-1)
    assert np.signbit(row_max[row_max == 0.0]).any()


# ---------------------------------------------------------------------------
# the prepared steppers


@given(v=_values(), nu=SCALAR_NU)
@settings(max_examples=200, deadline=None)
def test_scalar_ub_stepper_matches_the_earlier_kernel(v: np.ndarray, nu: float) -> None:
    """A negative nu takes the mirrored stencil on the forward padding,
    not the reversed call of the earlier form."""
    _assert_stepper_matches(ub_stepper(nu), lambda x: _old_ub_step_values(x, nu), v)


@given(v=_values(), kind=st.sampled_from(sorted(PER_CELL_NU)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_per_cell_ub_stepper_matches_the_earlier_kernel(v: np.ndarray, kind: str, data) -> None:
    nus = data.draw(hnp.arrays(np.float64, v.size, elements=PER_CELL_NU[kind]))
    _assert_stepper_matches(ub_stepper(nus), lambda x: _old_ub_step_values(x, nus), v)


@given(v=_values(), nu=SCALAR_NU)
@settings(max_examples=200, deadline=None)
def test_two_velocity_stepper_is_the_minimum_of_two_earlier_kernels(
    v: np.ndarray, nu: float
) -> None:
    """One padding, the updates at -|nu| and |nu|, then np.minimum in
    that order, as the checked one-call kernel and the earlier one give
    it; for nu > 0, nu < 0 (the same pair) and nu = 0, -0.0 too."""
    for n in (nu, -nu, 0.0, -0.0):
        for kernel in (ub_step_values, _old_ub_step_values):
            old = lambda x: np.minimum(kernel(x, -abs(n)), kernel(x, abs(n)))
            _assert_stepper_matches(ub_min_stepper(n), old, v)


@given(v=_values(), nu=SCALAR_NU)
@settings(max_examples=200, deadline=None)
def test_advect_const_stepper_matches_its_earlier_form(v: np.ndarray, nu: float) -> None:
    _assert_stepper_matches(
        advect_const_stepper(nu), lambda x: _old_advect_const_values(x, nu), v
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_run_steppers_write_into_the_row_what_they_return_fresh(name: str) -> None:
    """Every problem's node and cell steppers, on its own grid, and on
    values with NaN, infinities and signed zeros: writing into a row gives
    the bytes and warnings of the fresh call."""
    problem = get_problem(name)
    m = problem.m_ladder[0]
    grid = build_grid(problem.a, problem.b, m)
    ops = make_operators(problem, grid, time_ladder(problem, m)[0])
    rng = np.random.default_rng(m)
    for update, n in ((ops.node_update, m + 1), (ops.cell_update, m)):
        v = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, 1e308], n)
        v[rng.random(n) < 0.5] = 0.5
        _assert_stepper_matches(update, update, v)
