"""The step path's kernels against their earlier numpy expressions.

Each kernel of a coupled step writes into fresh temporaries in place
instead of padding, re-selecting with np.where or allocating one array
per term.  Each is held to its one earlier form in `tests/reference.py`
by one check, `_assert_prepared_matches`, which calls a kernel prepared
once for n cells or nodes on 1 to 4 inputs of one length, each as given
and as a reversed view, into a row of a block (its input another row of
it) and into a fresh array, and between those calls one of its kind
prepared for another length; where the kernel has a one-call entry
(`ub_step_values`, `advect_const_values`, `classify_regularity`), the
entry takes the same inputs.  Each step kernel has one property test
through it: the scalar, per-cell and erosion Ultra-Bee steppers, the
constant-velocity and erosion node steppers, the adv-var node closure
of `make_operators` (held to np.interp at the feet it closes over) and
the prepared indicator.  The fixed Courant numbers and profiles that a
test must always meet are its `@example`s.  On values that include NaN,
infinities, signed zeros and overflowing magnitudes, each call gives:
- the same bytes, every NaN read as one NaN: numpy gives a NaN from two
  NaN operands the sign of one or the other by its position in a
  vectorized loop, so splitting a loop differently may flip it;
- the same kinds of floating-point warning, and the same overflow
  error under np.errstate(over="raise");
- its input and every other row of the block unwritten, and every fresh
  result returned before it unchanged.

The indicator's guard is also held to its window written out node by
node, and `project_to_nodes` and `classify_regularity` on their own to
their forms.  The coupled step is held to its np.where form into fresh
arrays, and prepared as a run prepares it (one `CoupledState` per pair
of block rows) across a block boundary and through a retaken step.  The
witness bracket of a negative nu is held to the earlier form's
right-neighbour bracket, and `block_checker` to the bytes of the earlier
one-call `block_diagnostics`.
"""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import (
    CoupledState,
    RegularityParams,
    _indicator,
    classify_regularity,
    coupled_step,
    project_to_nodes,
)
from slub.diagnostics import _bracket_violation, block_checker, total_variation
from slub.grids import build_grid
from slub.harness import make_operators, time_ladder
from slub.problems import REGISTRY, get_problem
from slub.semi_lagrangian import advect_const_stepper, advect_const_values, hj_stepper
from slub.ultrabee import ub_min_stepper, ub_step_values, ub_stepper
from reference import (
    classify_reference,
    dilate_by_loop,
    flux_left,
    flux_right,
    fresh_coupled_step,
    old_advect_const_values,
    old_coupled_step,
    old_flux_pos,
    old_hj_step,
    old_project_to_nodes,
    old_ub_step_values,
    stepper,
)

# NaN of both signs, infinities, signed zeros, a subnormal, values whose
# sums or quotients overflow, and node values on a coarse lattice, so
# that slopes land exactly on the indicator's thresholds.
LATTICE_VALUES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300,
                  1.0, -1.0, 0.5, -0.5, 2.0, -2.5, 3.0, 1e308, -1e308]
LATTICE = st.sampled_from(LATTICE_VALUES)
SPECIAL_NU = [0.0, -0.0, 1e-15, -1e-15, 1.0, -1.0]
SCALAR_NU = st.sampled_from(SPECIAL_NU) | st.floats(min_value=-1.0, max_value=1.0)
PER_CELL_NU = {
    "positive": st.floats(min_value=0.01, max_value=1.0),
    "negative": st.floats(min_value=-1.0, max_value=-0.01),
    "mixed": st.floats(min_value=-1.0, max_value=1.0),
    "tiny": st.sampled_from(SPECIAL_NU + [1e-300, 0.5, -0.5]),
}
NEGATIVE_NU = st.sampled_from([-1e-15, -0.5, -1.0]) | st.floats(min_value=-1.0, max_value=-5e-324)
THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, np.inf])
# the lattice, or any float in [-10, 10]
VALUES = LATTICE | st.floats(min_value=-10.0, max_value=10.0)


def _values(min_size: int = 1, max_size: int = 60):
    return hnp.arrays(np.float64, st.integers(min_size, max_size), elements=VALUES)


# for each least length k: (1 to 4 rows of one length from k to 60, the
# rows of one block; an input of another length)
INPUTS = {k: (hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(k, 60)),
                         elements=VALUES), _values(k)) for k in (1, 2, 4)}


@functools.cache
def _per_cell(sign: str, n: int):
    return hnp.arrays(np.float64, n, elements=PER_CELL_NU[sign])


@st.composite
def _per_cell_case(draw):
    """(inputs, other, per-cell Courant numbers of one sign kind for each)."""
    sign = draw(st.sampled_from(sorted(PER_CELL_NU)))
    inputs, other = draw(INPUTS[1][0]), draw(INPUTS[1][1])
    return inputs, other, draw(_per_cell(sign, inputs.shape[1])), draw(_per_cell(sign, other.size))


# the fixed cases' rows: plateaus, jumps, signed zeros and tiny values,
# and the lattice; then 5 values for the second kernel
FIXED_INPUTS = np.array([[0.0, 0.0, 1.0, 1.0, 3.0, 2.5, -1.0, -1.0, 0.5, -0.0, 0.0, 2.0, 2.0,
                          -2.5, 1e-300, 5e-324, 0.0], LATTICE_VALUES])
FIXED_OTHER = np.array([1.0, -0.0, 3.0, 3.0, 1e308])
FIXED_MIXED_NU = [0.4, -0.4, 0.9, -1.0, 0.25, -0.6]


# ---------------------------------------------------------------------------
# the earlier forms of the witness


def _old_bracket_violation(u_old, u_new, nu):
    """The witness bracket's violation per entry: edge padding for a
    negative nu, else one slice op per bound over the flat values."""
    old = np.ascontiguousarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    o = old.reshape(-1)
    pos = None if nu is None else np.asarray(nu, dtype=float) >= 0.0
    if pos is not None and not pos.all():
        p = np.pad(old, ((0, 0), (1, 1)), mode="edge")
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


def _into(new, row):
    """new(v, out=row) as a function of v, which must write into `row`."""
    def call(v):
        assert np.shares_memory(new(v, out=row), row)
        return row
    return call


def _assert_prepared_matches(kernel, inputs, second=None, dtype=np.float64) -> None:
    """`kernel` is (new, old, entry): `new` prepared for the length of
    the rows of `inputs`, its earlier form, and its one-call entry or
    None.  `new` serves each row as given and as a reversed view, each
    into row 1 of a block of `dtype` (the input being row 0 of it, or of
    a float block beside it for another dtype) and as a fresh array, and
    `entry` takes the same two views; each row's calls are followed by a
    call of `second` = (new, old, x), one of its kind prepared for the
    length of x, into a row and fresh by turns.  Each call matches old on
    its input by `_outcome`, and writes neither its input nor any other
    row.  Each fresh result of a prepared kernel is then filled with its
    call's index, and keeps those bytes through every later call, so
    that no two results, and no result and a kernel's scratch, share
    memory."""
    steps = []
    for k, x in enumerate(inputs):
        steps += [(kernel, x, flip, (False, True)) for flip in (False, True)]
        if second is not None:
            steps.append(((*second[:2], None), second[2], False, (k % 2 == 1,)))
    kept_fresh, i = [], 0
    for (fn, form, entry), x, flip, modes in steps:
        expected = _outcome(form, x[::-1] if flip else x)
        if entry is not None:
            before = x.tobytes()
            assert _outcome(entry, x[::-1] if flip else x) == expected, ("entry", flip)
            assert x.tobytes() == before
        for fresh in modes:
            if fresh:
                src, call, unwritten = x, fn, [x]
            else:
                block = np.full((3, x.size), 7, dtype)
                level = block if block.dtype == x.dtype else np.full((2, x.size), 7.0)
                level[0] = x
                src, call = level[0], _into(fn, block[1])
                unwritten = [block[0], block[2]] + ([] if level is block else [level])
            kept = [(a, a.tobytes()) for a in unwritten]
            v = src[::-1] if flip else src
            assert _outcome(call, v) == expected, (i, flip)
            if fresh:
                with np.errstate(all="ignore"):
                    result = fn(v)
                result[...] = i  # no later call may see this
                kept_fresh.append((result, result.tobytes()))
            for a, before in kept + kept_fresh:
                assert a.tobytes() == before, i
            i += 1


def _assert_entry_matches(entry, old, values) -> None:
    """The one-call entry(x) matches old(x) by `_outcome` for x =
    `values` and a reversed view, and writes into neither."""
    for x in (values, values[::-1]):
        before = x.tobytes()
        assert _outcome(entry, x) == _outcome(old, x)
        assert x.tobytes() == before


# ---------------------------------------------------------------------------
# the steppers


# Each kind below gives (its stepper prepared for length n, the earlier
# form, the one-call entry or None) at one parameter.


def _ub(nus, n: int):
    return (ub_stepper(nus, n), lambda x: old_ub_step_values(x, nus),
            lambda x: ub_step_values(x, nus))


def _erosion_ub(nu, n: int):
    def old(x):
        return np.minimum(old_ub_step_values(x, -abs(nu)), old_ub_step_values(x, abs(nu)))

    return ub_min_stepper(nu, n), old, None


def _advect_const(nu, n: int):
    return (advect_const_stepper(nu, n), lambda x: old_advect_const_values(x, nu),
            lambda x: advect_const_values(x, nu))


def _hj(frac: float, n: int):
    nodes = np.linspace(-2.0, 2.0, n)
    r = frac * (nodes[1] - nodes[0])
    return hj_stepper(nodes, r), lambda v: old_hj_step(nodes, r, v), None


def _adv_var(problem, n: int):
    """The adv-var node stepper of `make_operators` on n nodes of a grid
    of the problem's window, held to np.interp at the feet
    x_j + (x_j - x_bar)*dt that it closes over."""
    grid, dt = build_grid(problem.a, problem.b, n - 1), time_ladder(problem, n - 1)[0]
    nodes = grid.nodes
    feet = nodes + (nodes - problem.x_bar) * dt
    return make_operators(problem, grid, dt).node_update, lambda v: np.interp(feet, nodes, v), None


def _check(kind, param, inputs, other, other_param=None) -> None:
    """`_assert_prepared_matches` of kind(param, n) on `inputs` of length
    n, with kind(other_param, or param, m) on `other` of length m."""
    second = kind(param if other_param is None else other_param, other.size)[:2]
    _assert_prepared_matches(kind(param, inputs.shape[1]), inputs, (*second, other))


@given(nu=SCALAR_NU, inputs=INPUTS[1][0], other=INPUTS[1][1])
@example(nu=0.4, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@example(nu=-0.4, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@example(nu=-0.0, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@example(nu=-1e-15, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@settings(max_examples=300)
def test_scalar_ub_stepper_matches_the_earlier_kernel(nu: float, inputs, other) -> None:
    """`ub_stepper` and `ub_step_values` at one Courant number of either
    sign, -0.0, 0 and +-1e-15 at rest included.  A negative nu takes the
    mirrored stencil on the forward padding, not the reversed call of the
    earlier form."""
    _check(_ub, nu, inputs, other)


@given(case=_per_cell_case())
@example(case=(FIXED_INPUTS, FIXED_OTHER, np.resize(FIXED_MIXED_NU, FIXED_INPUTS.shape[1]),
               np.resize(FIXED_MIXED_NU, FIXED_OTHER.size)))
@settings(max_examples=300)
def test_per_cell_ub_stepper_matches_the_earlier_kernel(case) -> None:
    """Per-cell Courant numbers fix the length, and the earlier form
    reads the stencil by three np.where calls on their sign: all
    positive (the stencil read by slices, adv-var's case, no at-rest
    entry), all negative or of mixed sign (gathered), or with zero and
    tiny entries (the at-rest branch), signed zeros included."""
    inputs, other, nus, other_nus = case
    _check(_ub, nus, inputs, other, other_nus)


@given(nu=SCALAR_NU, inputs=INPUTS[1][0], other=INPUTS[1][1])
@example(nu=0.4, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@example(nu=0.0, inputs=FIXED_INPUTS, other=FIXED_OTHER)
@settings(max_examples=300)
def test_two_velocity_stepper_is_the_minimum_of_two_earlier_kernels(nu, inputs, other) -> None:
    """One padding, the updates at -|nu| and |nu|, then np.minimum in
    that order, as the earlier form gives it; for nu > 0, nu < 0 (the
    same pair) and nu = 0, -0.0 too."""
    _check(_erosion_ub, nu, inputs, other)


@given(nu=SCALAR_NU, inputs=INPUTS[1][0], other=INPUTS[1][1])
@settings(max_examples=300)
def test_advect_const_stepper_matches_its_earlier_form(nu: float, inputs, other) -> None:
    """`advect_const_stepper` and `advect_const_values`: the padded upwind
    values are scaled in the workspace sized when the stepper is built;
    n = 1, 2, 3 and up, the ghost entry being the end value; nu of either
    sign, zero and tiny ones included."""
    _check(_advect_const, nu, inputs, other)


@given(frac=st.sampled_from([0.0, 0.25, 1.0]), inputs=INPUTS[2][0], other=INPUTS[2][1])
@settings(max_examples=300)
def test_hj_stepper_reuses_its_feet(frac: float, inputs, other) -> None:
    """The feet taken once per stepper give the bits of the expression
    it replaced, which took them on every call; r is 0, 1/4 or 1 cell,
    within the CFL bound."""
    _check(_hj, frac, inputs, other)


@given(inputs=INPUTS[4][0], other=INPUTS[4][1])
@settings(max_examples=100)
def test_adv_var_node_stepper_matches_np_interp(inputs, other) -> None:
    """The closure `make_operators` builds for adv-var, which interpolates
    into a fresh array and copies it into `out`; 4 to 60 nodes."""
    _check(_adv_var, get_problem("adv-var"), inputs, other)


@given(
    triple=st.tuples(LATTICE, LATTICE, LATTICE),
    nu=st.sampled_from([0.0, 1e-15, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_reference_fluxes_match_the_earlier_scalar_flux(triple, nu: float) -> None:
    """The reference fluxes run the array flux on one interface;
    their value is the scalar evaluation of the earlier flux."""
    prev, cur, nxt = triple
    with np.errstate(all="ignore"):
        left = float(old_flux_pos(prev, cur, nxt, nu))
        right = float(old_flux_pos(nxt, cur, prev, nu))
        assert _bytes(flux_left(prev, cur, nxt, nu)) == _bytes(left)
        assert _bytes(flux_right(prev, cur, nxt, -nu)) == _bytes(right)


# ---------------------------------------------------------------------------
# the indicator, the projection and the coupled step

def _flags(indicate):
    """A prepared indicator as a kernel of the node values,
    flags(v, out=None), with its int8 flags written into `out`."""
    def flags(v, out=None):
        return indicate(v[1:], v[:-1], None if out is None else out.view(bool)).view(np.int8)
    return flags


@given(
    dx=st.sampled_from([1.0, 0.5, 1e-3]),
    params=st.builds(RegularityParams, THRESHOLDS, THRESHOLDS, st.integers(0, 8)),
    thresholds=st.tuples(THRESHOLDS, THRESHOLDS),
    inputs=INPUTS[1][0],
    other=INPUTS[1][1],
)
@example(dx=1.0, params=RegularityParams(1.0, 0.0, 6), thresholds=(0.5, 0.5),
         inputs=np.array([[0.0, 0.0] + [1.0] * 12 + [2.0]]), other=FIXED_OTHER)
@example(dx=1.0, params=RegularityParams(3.0, 3.0, 6), thresholds=(0.5, 0.5),
         inputs=np.array([[0.0, 3.0]]), other=FIXED_OTHER)
@settings(max_examples=400)
def test_prepared_indicator_reuses_its_workspace(dx, params, thresholds, inputs, other) -> None:
    """An indicator prepared for one length serves 1 to 4 inputs, between
    calls of one prepared for another length at other thresholds and the
    same guard, and gives each call, as `classify_regularity` does, the
    earlier form's flags: guards 0-8 on 1 to 60 nodes (so some fields
    are shorter than the guard window), slopes exactly at flat_tol and at
    delta.  The fixed cases are a flat run of 12 nodes at guard 6, and two
    nodes whose one slope is delta = flat_tol."""
    def build(n, p):
        return (_flags(_indicator(n, dx, p)), lambda v: classify_reference(v, dx, p),
                lambda v: classify_regularity(v, dx, p))

    second = (*build(other.size, RegularityParams(*thresholds, params.guard))[:2], other)
    _assert_prepared_matches(build(inputs.shape[1], params), inputs, second, np.int8)


@given(flags=hnp.arrays(np.bool_, st.integers(1, 60)), guard=st.integers(0, 8))
@settings(max_examples=300)
def test_guard_windows_dilate_as_the_shifted_ands_do(flags: np.ndarray, guard: int) -> None:
    """Node values that rise by 4 at each False of a random pattern give
    varied regular flags; each guard ANDs the window of 2*guard + 1 flags
    around each node, in the prepared indicator, its earlier form and
    the window written out node by node."""
    v = np.cumsum(np.where(flags, 0.0, 4.0))
    params = RegularityParams(1.0, 0.5, guard)
    base = classify_reference(v, 1.0, RegularityParams(1.0, 0.5, 0))
    new = _flags(_indicator(v.size, 1.0, params))(v)
    assert new.tobytes() == classify_reference(v, 1.0, params).tobytes()
    assert new.tobytes() == dilate_by_loop(base, guard).tobytes()


@given(
    v=hnp.arrays(np.float64, st.integers(1, 60), elements=LATTICE),
    dx=st.sampled_from([1.0, 0.5, 1e-3]),
    delta=THRESHOLDS,
    flat_tol=THRESHOLDS,
)
@settings(max_examples=300)
def test_sign_test_matches_the_product_form_where_it_does_not_underflow(
    v: np.ndarray, dx: float, delta: float, flat_tol: float
) -> None:
    """On slopes whose pairwise products underflow (5e-324, 1e-300) or
    overflow (1e308), NaN, infinities and signed zeros included,
    comparing signs gives the flags and warnings of the product of the
    slopes' signs, which no product underflows."""
    params = RegularityParams(delta, flat_tol)
    _assert_entry_matches(lambda x: classify_regularity(x, dx, params),
                          lambda x: classify_reference(x, dx, params), v)


@given(c=INPUTS[1][1])
@settings(max_examples=200)
def test_projections_match_their_earlier_form(c: np.ndarray) -> None:
    """`project_to_nodes`; the cell projection is held to
    `project_to_cells` through the coupled step's cell source."""
    _assert_entry_matches(project_to_nodes, old_project_to_nodes, c)


COUPLED_THRESHOLDS = st.sampled_from(
    [(0.5, 0.1, 0), (2.0, 0.5, 1), (np.inf, np.inf, 0), (0.0, 0.0, 0)])
FIELDS = ("w", "w_bar", "owned", "sigma", "node_candidate", "cell_source")


def _draw_level(w, data) -> tuple:
    """(w, w_bar, owned) with drawn averages and owned cells."""
    n = w.size
    return (w, data.draw(hnp.arrays(np.float64, n - 1, elements=LATTICE)),
            data.draw(hnp.arrays(np.bool_, n - 1)))


def _blocks(level, k: int) -> tuple:
    """Six blocks of k rows in the field order of `CoupledState`, the
    level in row 0 of the first three and filler elsewhere."""
    n = level[0].size
    rows, cand = np.full((2, k, n), 0.375)
    src, bar = np.full((2, k, n - 1), 0.375)
    own, sig = np.zeros((k, n - 1), bool), np.full((k, n), 7, np.int8)
    rows[0], bar[0], own[0] = level
    return rows, bar, own, sig, cand, src


def _assert_state_matches(new, old, where) -> None:
    for name in FIELDS:
        assert _bytes(getattr(new, name)) == _bytes(getattr(old, name)), (where, name)
    assert new.fresh_cell_count == old.fresh_cell_count


@given(w=_values(min_size=4, max_size=24), data=st.data(), nu=SCALAR_NU,
       thresholds=COUPLED_THRESHOLDS)
@settings(max_examples=200)
def test_coupled_step_matches_its_np_where_form(w: np.ndarray, data, nu: float, thresholds) -> None:
    """Both masks picked by np.copyto give the np.where form's state,
    field by field, into six fresh arrays with the one-call kernels as
    steppers, and the level read stays as it was.  Both forms keep the
    cell source as w_bar on a step with no active cell, which the
    (inf, inf, 0) thresholds give on every draw whose slopes are finite."""
    level = _draw_level(w, data)
    params = RegularityParams(*thresholds)
    before = [a.tobytes() for a in level]
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    with np.errstate(all="ignore"):
        new = fresh_coupled_step(level, 0.5, params, stepper(sl), stepper(ub))
        old = old_coupled_step(level, 0.5, params, sl, ub)
    _assert_state_matches(new, old, "fresh")
    assert [a.tobytes() for a in level] == before


# (step index, compared with the np.where form) or ("carry", row)
RUN_SCHEDULE = [(1, True), (2, True), (3, True), ("carry", 3), (1, True), (2, False),
                ("carry", 1), (1, True), (2, True)]


@given(w=_values(min_size=4, max_size=24), data=st.data(), nu=SCALAR_NU,
       thresholds=COUPLED_THRESHOLDS)
@settings(max_examples=200)
def test_prepared_coupled_step_across_a_block_boundary_and_a_retake(
    w: np.ndarray, data, nu: float, thresholds
) -> None:
    """The coupled step as a run prepares it: blocks of three rows past
    row 0, one `CoupledState` per pair of rows, built once, and one
    prepared indicator.  Steps 1-3 fill the
    block and row 3 is carried into row 0; the next step goes into row 1,
    the one after into row 2 as if it trapped, and after row 1 is carried
    it is retaken from row 0.  Every step returns its prebuilt state,
    whose six fields view its row of the six blocks, writes no other row,
    and writes the np.where form's level, field by field, with the same
    fresh cell count read after the step."""
    level = _draw_level(w, data)
    n, params = w.size, RegularityParams(*thresholds)
    blocks = _blocks(level, 4)
    rows, bar, own = blocks[:3]
    indicate = _indicator(n, 0.5, params)
    node, cell = advect_const_stepper(nu, n), ub_stepper(nu, n - 1)
    states = [CoupledState(prev, out)
              for prev, out in zip(zip(rows, bar, own), zip(*(b[1:] for b in blocks)))]
    sl = lambda u: advect_const_values(u, nu)
    ub = lambda u: ub_step_values(u, nu)
    level = tuple(a.copy() for a in level)
    with np.errstate(all="ignore"):
        for i, compared in RUN_SCHEDULE:
            if i == "carry":
                for block in (rows, bar, own):
                    block[0] = block[compared]
                continue
            others = [np.delete(b, i, axis=0).tobytes() for b in blocks]
            new = coupled_step(states[i - 1], node, cell, indicate)
            assert new is states[i - 1]
            for name, b in zip(FIELDS, blocks):
                assert np.shares_memory(getattr(new, name), b[i]), (i, name)
            assert [np.delete(b, i, axis=0).tobytes() for b in blocks] == others, i
            if not compared:
                continue
            old = old_coupled_step(level, 0.5, params, sl, ub)
            _assert_state_matches(new, old, i)
            level = (old.w, old.w_bar, old.owned)


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
@settings(max_examples=200)
def test_negative_nu_bracket_matches_the_right_neighbour_form(block, nu: float, data) -> None:
    """A negative nu, one scalar or one per entry, takes the bracket of
    mixed signs (the left one, then the right one where nu < 0), and
    gives the bytes of the earlier form's right-neighbour bracket, each
    row's last entry bracketed by its own value; u_old is left
    unwritten."""
    new = data.draw(hnp.arrays(np.float64, block.shape, elements=LATTICE))
    per_entry = data.draw(hnp.arrays(np.float64, block.shape[-1], elements=NEGATIVE_NU))
    old_bytes = block.tobytes()
    for nus in (nu, per_entry):
        assert (_outcome(_violation, block, new, nus)
                == _outcome(_old_bracket_violation, block, new, nus))
        with np.errstate(all="ignore"):
            last = _violation(block, new, nus)[:, -1]
            own = np.maximum(block[:, -1] - new[:, -1], new[:, -1] - block[:, -1])
        assert _bytes(last) == _bytes(own)
    assert block.tobytes() == old_bytes


@functools.cache
def _lattice(shape):
    return hnp.arrays(np.float64, shape, elements=LATTICE)


@functools.cache
def _nus(width: int):
    """A layer's Courant numbers: None, one scalar, or one per entry,
    mixed, with zero and tiny entries, or all negative."""
    return st.none() | SCALAR_NU | hnp.arrays(
        np.float64, width, elements=PER_CELL_NU["tiny"] | PER_CELL_NU["mixed"]) | hnp.arrays(
        np.float64, width, elements=NEGATIVE_NU)


@pytest.mark.filterwarnings("error")
@given(
    block=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 12)),
                     elements=LATTICE),
    two_layers=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300)
def test_block_checker_matches_the_earlier_block_diagnostics(block, two_layers: bool, data) -> None:
    """The checker writes the bytes of the earlier one-call form, each TV
    and each witness, for every bracket kind (nu None, one scalar and one
    per entry of either sign or mixed sign), with one layer or two of
    different widths, for the first `count` steps of the block (none
    included).  It names the step, column and index of the first step
    the earlier form flags, writes none of its inputs and warns of
    nothing."""
    k, n = block.shape
    rows = np.vstack([data.draw(_lattice(n)), block])
    layers = [(rows[:-1], data.draw(_lattice((k, n))), data.draw(_nus(n)))]
    if two_layers:
        old, new = (data.draw(_lattice((k, n - 1))) for _ in range(2))
        layers.append((old, new, data.draw(_nus(n - 1))))
    before = [a.tobytes() for layer in layers for a in layer[:2]] + [rows.tobytes()]
    count = data.draw(st.integers(0, k))
    witness, tv = np.empty((count, len(layers))), np.empty(count)
    found = block_checker(rows[1:], layers)(count, tv, witness)
    assert [a.tobytes() for layer in layers for a in layer[:2]] + [rows.tobytes()] == before
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
        _assert_prepared_matches((update, update, None), v[None])
