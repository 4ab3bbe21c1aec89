"""Prepared steppers and the prepared indicator reuse one workspace.

Each cell stepper (`ub_stepper` at a scalar nu of either sign or at
per-cell numbers, and `ub_min_stepper`), the erosion node stepper
`hj_stepper` and the regularity indicator `_indicator`, each built for
one length as a run builds it, keep their scratch arrays from call to
call.  Fed a sequence of inputs, the kernels built for their lengths
must give on every call what the earlier forms of `test_step_kernels.py`
give on that input alone: the same bytes, the same kinds of
floating-point warning, and its input unwritten.  A result returned
without `out` is fresh: writing into it changes no later call, and no
later call changes it.

The guard of the indicator is one AND over its 2*guard + 1 shifted
windows; it is held to the earlier form, 2*guard shifted in-place ANDs,
for every guard from 0 to 8.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import RegularityParams, _indicator
from slub.semi_lagrangian import hj_stepper
from slub.ultrabee import ub_min_stepper, ub_stepper
from test_step_kernels import (
    LATTICE,
    PER_CELL_NU,
    SCALAR_NU,
    _bytes,
    _old_ub_step_values,
    _outcome,
)


def _sequence(sizes):
    """A list of 1 to 4 lattice arrays, each of a length drawn from sizes."""
    return st.lists(hnp.arrays(np.float64, sizes, elements=LATTICE), min_size=1, max_size=4)


def _flags(indicate):
    """A prepared indicator as a kernel of the node values,
    flags(v, out=None), with its int8 flags written into `out`."""
    def flags(v, out=None):
        return indicate(v[1:], v[:-1], None if out is None else out.view(bool)).view(np.int8)
    return flags


def _shift_form_classify(v, dx, params):
    """The indicator with its earlier guard: the regular flags, then 2*guard
    shifted in-place ANDs against a copy of them."""
    s = np.concatenate([[0.0], np.diff(v) / dx, [0.0]])
    mag = np.abs(s)
    flat = mag <= params.flat_tol
    compat = (flat[:-1] & flat[1:]) | (np.sign(s[:-1]) == np.sign(s[1:]))
    sigma = (mag[:-1] < params.delta) & compat
    sigma[1:] &= compat[:-1]
    regular = sigma.copy()
    for k in range(1, params.guard + 1):
        sigma[k:] &= regular[:-k]
        sigma[:-k] &= regular[k:]
    return sigma.view(np.int8)


def _assert_calls_match(calls, dtype=float) -> None:
    """Run each (new, old, x) of `calls` in turn, new(x) into a row of a
    block of `dtype` on even calls and fresh on odd ones.  Each call
    matches old(x) byte for byte and warning for warning, writes no other
    row and leaves x unwritten.  Each fresh result is then overwritten,
    and keeps those bytes through every later call."""
    fresh = []
    for i, (new, old, x) in enumerate(calls):
        before = x.tobytes()
        if i % 2 == 0:
            block = np.full((3, x.size), 7, dtype=dtype)
            row, others = block[1], np.delete(block, 1, axis=0).tobytes()
            assert _outcome(lambda y: new(y, out=row), x) == _outcome(old, x)
            assert np.delete(block, 1, axis=0).tobytes() == others
        else:
            assert _outcome(new, x) == _outcome(old, x)
            with np.errstate(all="ignore"):
                result = new(x)
            result[...] = 7  # no later call may see this
            fresh.append((result, result.tobytes()))
        assert x.tobytes() == before
        for result, kept in fresh:
            assert result.tobytes() == kept


def _assert_reused_workspace_matches(build, old, inputs) -> None:
    """One kernel per length of `inputs`, build(n), serves each input of
    that length in turn, between calls of the others."""
    kernels = {n: build(n) for n in {x.size for x in inputs}}
    _assert_calls_match([(kernels[x.size], old, x) for x in inputs])


@given(inputs=_sequence(st.integers(1, 24)), nu=SCALAR_NU)
@settings(max_examples=100, deadline=None)
def test_scalar_stepper_reuses_its_workspace_across_lengths(inputs, nu: float) -> None:
    """The workspace is sized when the stepper is built, one stepper per
    length; nu of either sign, zero and tiny ones included."""
    build = lambda n: ub_stepper(nu, n)
    _assert_reused_workspace_matches(build, lambda x: _old_ub_step_values(x, nu), inputs)


@given(inputs=_sequence(st.integers(1, 24)), nu=SCALAR_NU)
@settings(max_examples=100, deadline=None)
def test_erosion_cell_stepper_reuses_its_workspace_across_lengths(inputs, nu: float) -> None:
    def old(x):
        return np.minimum(_old_ub_step_values(x, -abs(nu)), _old_ub_step_values(x, abs(nu)))

    _assert_reused_workspace_matches(lambda n: ub_min_stepper(nu, n), old, inputs)


@given(n=st.integers(1, 24), kind=st.sampled_from(sorted(PER_CELL_NU)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_per_cell_stepper_reuses_its_workspace(n: int, kind: str, data) -> None:
    """Per-cell numbers fix the length: all positive, of mixed sign (the
    gathered stencil), or with zero and tiny entries."""
    nus = data.draw(hnp.arrays(np.float64, n, elements=PER_CELL_NU[kind]))
    inputs = data.draw(_sequence(n))
    old = lambda x: _old_ub_step_values(x, nus)
    _assert_reused_workspace_matches(lambda _: ub_stepper(nus, n), old, inputs)


@given(n=st.integers(2, 24), frac=st.sampled_from([0.0, 0.25, 1.0]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_hj_stepper_reuses_its_feet(n: int, frac: float, data) -> None:
    """The feet taken once per run give the bits of a stepper built for
    each call and of the expression it replaced, which took them on every
    call; r is frac cells, within the CFL bound."""
    nodes = np.linspace(-2.0, 2.0, n)
    r = frac * (nodes[1] - nodes[0])
    inputs = data.draw(_sequence(n))

    def old(v):
        lo, hi = np.interp(nodes - r, nodes, v), np.interp(nodes + r, nodes, v)
        return np.minimum(np.minimum(lo, hi), v)

    _assert_reused_workspace_matches(lambda _: hj_stepper(nodes, r), old, inputs)
    for v in inputs:
        assert _outcome(hj_stepper(nodes, r), v) == _outcome(old, v)


THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0, 4.0, np.inf])


@given(
    n=st.integers(1, 24),
    guard=st.integers(0, 8),
    dx=st.sampled_from([1.0, 0.5, 1e-3]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_prepared_indicator_reuses_its_workspace(n: int, guard: int, dx: float, data) -> None:
    """Indicators prepared for one length and guard and for up to three
    threshold pairs serve a sequence of inputs, each call taking one of
    them, and give each call the earlier form's flags; this is also the
    check of the window AND against 2*guard shifted ANDs."""
    prepared = [(_flags(_indicator(n, dx, p)), p) for p in (
        RegularityParams(data.draw(THRESHOLDS), data.draw(THRESHOLDS), guard)
        for _ in range(data.draw(st.integers(1, 3))))]
    calls = []
    for x in data.draw(_sequence(n)):
        new, params = data.draw(st.sampled_from(prepared))
        calls += [(new, lambda v, p=params: _shift_form_classify(v, dx, p), x)] * 2
    _assert_calls_match(calls, np.int8)


@given(flags=hnp.arrays(np.bool_, st.integers(1, 40)), guard=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_guard_windows_dilate_as_the_shifted_ands_do(flags: np.ndarray, guard: int) -> None:
    """Node values that rise by 4 at each False of a random pattern give
    varied regular flags; each guard ANDs the window of 2*guard + 1 flags
    around each node, in either form."""
    v = np.cumsum(np.where(flags, 0.0, 4.0))
    params = RegularityParams(1.0, 0.5, guard)
    base = _shift_form_classify(v, 1.0, RegularityParams(1.0, 0.5, 0))
    new = _flags(_indicator(v.size, 1.0, params))(v)
    assert new.tobytes() == _shift_form_classify(v, 1.0, params).tobytes()
    expected = np.array([base[max(0, j - guard):j + guard + 1].all() for j in range(v.size)])
    assert new.tobytes() == expected.view(np.int8).tobytes()


def test_fresh_indicator_flags_are_not_the_workspace() -> None:
    v = np.array([0.0, 0.0, 5.0, 5.0, 5.0, 5.0])
    params = RegularityParams(1.0, 0.5, 1)
    indicate = _indicator(v.size, 1.0, params)
    first = _flags(indicate)(v)
    kept = first.tobytes()
    second = _flags(indicate)(v[::-1].copy())
    assert first.tobytes() == kept
    assert not np.shares_memory(first, second)
    scratch = [c.cell_contents for c in indicate.__closure__
               if isinstance(c.cell_contents, np.ndarray)]
    assert len(scratch) > 10
    for a in scratch:
        assert not np.shares_memory(first, a)
    assert _bytes(first) == _bytes(_shift_form_classify(v, 1.0, params))

