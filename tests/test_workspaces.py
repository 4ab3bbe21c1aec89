"""Prepared steppers and the prepared indicator reuse one workspace.

Each cell stepper (`ub_stepper` at a scalar nu of either sign or at
per-cell numbers, and `ub_min_stepper`), the node steppers
`advect_const_stepper` and `hj_stepper` and the regularity indicator
`_indicator`, each built for one length as a run builds it, keep their
scratch arrays from call to call.  Fed 1 to 4 inputs, between calls of
one of its kind built for another length, each must give on every call
what its one earlier form in `tests/reference.py` gives on that input
alone, by the check of `tests/test_step_kernels.py`: the same bytes,
the same kinds of floating-point warning, and its input and every
other block row unwritten.  A result returned without `out` is fresh: writing into it
changes no later call, and no later call changes it.

The guard of the indicator is one AND over its 2*guard + 1 shifted
windows; it is held to the guard written out node by node, for every
guard from 0 to 8.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.coupled import RegularityParams, _indicator
from reference import classify_reference, dilate_by_loop
from test_step_kernels import (
    INPUTS,
    THRESHOLDS,
    _advect_const,
    _assert_prepared_matches,
    _bytes,
    _check_stepper,
    _erosion_ub,
    _hj,
    _per_cell_ub,
    _scalar_ub,
)


def _flags(indicate):
    """A prepared indicator as a kernel of the node values,
    flags(v, out=None), with its int8 flags written into `out`."""
    def flags(v, out=None):
        return indicate(v[1:], v[:-1], None if out is None else out.view(bool)).view(np.int8)
    return flags


@given(data=st.data())
@settings(max_examples=300)
def test_scalar_stepper_reuses_its_workspace_across_lengths(data) -> None:
    """The workspace is sized when the stepper is built, one stepper per
    length; nu of either sign, zero and tiny ones included."""
    _check_stepper(_scalar_ub(data), data, reuse=True)


@given(data=st.data())
@settings(max_examples=300)
def test_erosion_cell_stepper_reuses_its_workspace_across_lengths(data) -> None:
    _check_stepper(_erosion_ub(data), data, reuse=True)


@given(data=st.data())
@settings(max_examples=300)
def test_per_cell_stepper_reuses_its_workspace(data) -> None:
    """Per-cell numbers fix the length: all positive, all negative or of
    mixed sign (the gathered stencil), or with zero and tiny entries."""
    _check_stepper(_per_cell_ub(data), data, reuse=True)


@given(data=st.data())
@settings(max_examples=300)
def test_advect_const_stepper_reuses_its_workspace_across_lengths(data) -> None:
    """The padded upwind values are scaled in the workspace sized when the
    stepper is built; nu of either sign, zero and tiny ones included."""
    _check_stepper(_advect_const(data), data, reuse=True)


@given(data=st.data())
@settings(max_examples=300)
def test_hj_stepper_reuses_its_feet(data) -> None:
    """The feet taken once per stepper give the bits of the expression
    it replaced, which took them on every call; r is 0, 1/4 or 1 cell,
    within the CFL bound."""
    _check_stepper(_hj(data), data, reuse=True, min_size=2)


@given(
    dx=st.sampled_from([1.0, 0.5, 1e-3]),
    params=st.builds(RegularityParams, THRESHOLDS, THRESHOLDS, st.integers(0, 8)),
    thresholds=st.tuples(THRESHOLDS, THRESHOLDS),
    data=st.data(),
)
@settings(max_examples=200)
def test_prepared_indicator_reuses_its_workspace(dx: float, params, thresholds, data) -> None:
    """An indicator prepared for one length serves 1 to 4 inputs, between
    calls of one prepared for another length at other thresholds and the
    same guard, and gives each call the earlier form's flags."""
    def build(n, p):
        return _flags(_indicator(n, dx, p)), lambda v: classify_reference(v, dx, p)

    rows, values = INPUTS[1]
    inputs, other = data.draw(rows), data.draw(values)
    second = (*build(other.size, RegularityParams(*thresholds, params.guard)), other)
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
    assert _bytes(first) == _bytes(classify_reference(v, 1.0, params))
