"""Scheme diagnostics: variation bounds, stability witnesses, error norms.

These are the observables the solvers are judged by: total variation
and its allowed growth, the maximum-principle witnesses that bracket
each new value by its upwind (or both-sided) old neighbours, and grid
error norms with optional exclusion of singular neighbourhoods.  The
witness bracket is Harten's TVD condition: a one-coefficient update
u_new[j] = u[j] - C[j]*(u[j] - u[j-1]) has C[j] in [0, 1] exactly when
u_new[j] lies between u[j-1] and u[j].  `block_checker` is built once
per run and checks the TV and the witnesses of a block of steps at once.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grids import Grid1D
from .coupled import RegularityParams

__all__ = [
    "total_variation",
    "tvb_allowance",
    "TVSeries",
    "tv_monitor",
    "block_checker",
    "ErrorReport",
    "error_norms",
    "convergence_orders",
]

_add, _subtract, _multiply, _absolute, _sqrt, _isfinite = (
    np.add, np.subtract, np.multiply, np.absolute, np.sqrt, np.isfinite)
_less_equal, _greater, _logical_not = np.less_equal, np.greater, np.logical_not
_add_reduce, _logical_and_reduce, _logical_or_reduce = (
    np.add.reduce, np.logical_and.reduce, np.logical_or.reduce)
_minimum, _maximum, _maximum_reduce = np.minimum, np.maximum, np.maximum.reduce


def total_variation(values: np.ndarray):
    """Total variation along the last axis: a float for one profile, one
    value per row for a block of profiles (the same bits as row by row)."""
    v = np.asarray(values, dtype=float)
    tv = _add_reduce(_absolute(_subtract(v[..., 1:], v[..., :-1])), axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def _variation(v, d, out=None):
    """`total_variation` of each row of a C-contiguous block v, with its
    bits, into `out`: d of v's shape is the scratch, so the differences
    are one flat call, and the one across two rows is left out of the sum."""
    flat, o = d.reshape(-1)[:-1], v.reshape(-1)
    _absolute(_subtract(o[1:], o[:-1], out=flat), out=flat)
    return _add_reduce(d[..., :-1], axis=-1, out=out)


def tvb_allowance(params: RegularityParams, grid: Grid1D) -> float:
    """Per-step total-variation growth budget of the coupled scheme.

    Regular nodes have slopes below delta, so switching a window of the
    profile between representations can add variation at most delta
    times the domain width.
    """
    return params.delta * (grid.b - grid.a)


class TVSeries(NamedTuple):
    """Total-variation trace of a run against its growth envelope.

    values[k] is the TV after k steps, envelope[k] the running bound
    TV(w0) + k*allowance, and flags[k] marks a step whose growth is
    not within the per-step allowance (a NaN growth included).  Pure
    monotone runs use allowance = 0, i.e. a nonincreasing-TV check.
    """

    values: np.ndarray
    envelope: np.ndarray
    flags: np.ndarray

    @property
    def ok(self) -> bool:
        return not bool(np.any(self.flags))


def tv_monitor(tv_values: Sequence[float], allowance: float) -> TVSeries:
    """Check per-step TV growth of a trajectory against an allowance,
    with a roundoff margin of 1e-12 relative to the previous TV.  A step
    whose growth is not within the limit is flagged, so a NaN TV on
    either side of a step flags it."""
    tv = np.asarray(tv_values, dtype=float)
    n, head, tail = tv.size, tv[:-1], tv[1:]
    envelope = np.empty(n)
    envelope[:] = tv[:1]  # [0] is TV(w0): inf * 0 would be NaN
    later = envelope[1:]
    _add(later, _multiply(allowance, np.arange(1, n)), out=later)
    limit = _absolute(head)
    _add(allowance, _multiply(1e-12, _add(1.0, limit, out=limit), out=limit), out=limit)
    flags = np.zeros(n, dtype=bool)
    growth = flags[1:]
    _logical_not(_less_equal(_subtract(tail, head), limit, out=growth), out=growth)
    return TVSeries(tv, envelope, flags)


def _bracket_violation(old, new, negative, lo, hi) -> np.ndarray:
    """How far each new value lies outside its bracket (see
    `block_checker`), into lo (negative inside), hi the scratch; negative
    is None (three points), False, or the mask of the entries of nu < 0."""
    o = old.reshape(-1)
    for op, b in ((_minimum, lo), (_maximum, hi)):
        f = b.reshape(-1)
        if negative is None:  # op(op(left, old), right)
            op(o[:-1], o[1:], out=f[1:])
            b[..., 0] = old[..., 0]
            last = op(b[..., -1], old[..., -1])
            op(f[:-1], o[1:], out=f[:-1])
            b[..., -1] = last
            continue
        op(o[1:], o[:-1], out=f[1:])  # op(old, left)
        b[..., 0] = old[..., 0]
        if negative is not False:  # op(old, right) where nu < 0
            op(old[..., :-1], old[..., 1:], out=b[..., :-1], where=negative[:-1])
            if negative[-1]:
                b[..., -1] = old[..., -1]
    _subtract(lo, new, out=lo)
    return _maximum(lo, _subtract(new, hi, out=hi), out=lo)


def block_checker(rows: np.ndarray, layers: Sequence[tuple]) -> Callable:
    """The one witness entry point, built once per run: check(count,
    tv_out, witness_out) checks the first `count` steps of a block.

    `rows` holds the solution after each step; each layer is an (old,
    new, nu) triple of blocks of as many rows, row i its input and output
    of step i + 1; all C-contiguous.  A witness brackets new[j] by
    old[j-1], old[j] where the signed Courant number nu (one, or one per
    entry) is >= 0, by old[j], old[j+1] where it is negative, and by
    old[j-1..j+1] for nu None; the row ends continue as ghosts.  check
    writes each step's TV and each layer's largest violation, at least 0,
    and returns None or, at the first step with a non-finite value or TV,
    (its row, 0 for the solution or 1 + layer, the first non-finite index
    or -1).  Floating-point errors are not reported.
    """
    k, outputs = len(rows), [rows] + [new for _, new, _ in layers]
    scratch = np.empty(2 * k * max(block.shape[-1] for block in outputs))  # one for all
    prepared = []
    for old, new, nu in layers:
        n = new.shape[-1]
        negative = None
        if nu is not None:
            below = ~(np.asarray(nu, float) >= 0.0)
            negative = np.broadcast_to(below, n) if below.any() else False
        prepared.append((old, new, negative, *scratch[:2 * k * n].reshape(2, k, n)))
    tv_scratch = scratch[:rows.size].reshape(rows.shape)
    zero = np.zeros(())  # the 0-d operand of the clamp

    def check(count: int, tv_out: np.ndarray, witness_out: np.ndarray):
        with np.errstate(all="ignore"):
            _variation(rows[:count], tv_scratch[:count], out=tv_out)
            for col, (old, new, negative, lo, hi) in enumerate(prepared):
                violation = _bracket_violation(old[:count], new[:count], negative,
                                               lo[:count], hi[:count])
                _maximum_reduce(violation, axis=-1, out=witness_out[:, col])
            _maximum(witness_out, zero, out=witness_out)
            # each TV and clamped witness is >= 0 or NaN: the maximum is
            # finite when every entry is (0 for a block of no step)
            finite = (isfinite(_maximum_reduce(tv_out, initial=0.0))
                      and isfinite(_maximum_reduce(witness_out, axis=None, initial=0.0)))
        if finite:
            return None
        # only a row whose TV or witness is not finite can hold one
        spoilt = ~_isfinite(np.column_stack([tv_out, witness_out]))
        for i in np.flatnonzero(spoilt.any(axis=1)):
            for col in np.flatnonzero(spoilt[i]):
                bad = np.flatnonzero(~_isfinite(outputs[col][i]))
                if bad.size:
                    return int(i), int(col), int(bad[0])
            if spoilt[i, 0]:
                return int(i), 0, -1
        return None

    return check


class ErrorReport(NamedTuple):
    """Discrete error norms of a numeric profile against a reference."""

    l1: float
    l2: float
    linf: float
    linf_reg: float


def error_norms(
    numeric: np.ndarray,
    exact: np.ndarray,
    dx: float,
    x: np.ndarray,
    singular_points: Sequence[float],
) -> ErrorReport:
    """Weighted l1/l2 and max norms of the pointwise error at the
    points x.

    linf_reg drops points within 3*dx of any listed singular point; it
    equals linf when nothing is excluded (no point listed, or none near
    x), and is 0 when every point is excluded.  The band is a fixed
    3*dx: a scheme whose smear of a jump spreads wider is read on that
    smear.  The sl smear spreads over about sqrt(steps) cells, so the
    linf_reg of an sl table grows under refinement (adv-jump: 0.011 at
    m = 19 to 0.30 at m = 639) and is not the error of the regular region.
    """
    err = _absolute(_subtract(np.asarray(numeric, dtype=float), np.asarray(exact, dtype=float)))
    l1 = float(dx * _add_reduce(err, axis=None))
    l2 = float(_sqrt(dx * _add_reduce(_multiply(err, err), axis=None)))
    linf = float(_maximum_reduce(err, axis=None))
    # keep[j]: x[j] lies beyond 3*dx of every point (of none listed too)
    far = _absolute(_subtract.outer(np.asarray(singular_points, dtype=float),
                                    np.asarray(x, dtype=float)))
    keep = _logical_and_reduce(_greater(far, 3.0 * dx), axis=0)
    linf_reg = (float(_maximum_reduce(err[keep], axis=None))
                if _logical_or_reduce(keep, axis=None) else 0.0)
    return ErrorReport(l1=l1, l2=l2, linf=linf, linf_reg=linf_reg)


def convergence_orders(errors: Sequence[float], dxs: Sequence[float]) -> np.ndarray:
    """Observed orders between consecutive refinement levels."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(dxs, dtype=float)
    if e.size != h.size:
        raise ValueError("errors and dxs must have matching lengths")
    if e.size < 2:
        return np.empty(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])
