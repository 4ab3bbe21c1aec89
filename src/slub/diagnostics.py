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


def total_variation(values: np.ndarray):
    """Total variation along the last axis: a float for one profile, one
    value per row for a block of profiles (the same bits as row by row)."""
    v = np.ascontiguousarray(values, dtype=float)
    tv = _variation(v, np.empty(v.shape))
    return float(tv) if tv.ndim == 0 else tv


def _variation(v, d, out=None):
    """`total_variation` of a C-contiguous v, d of its shape the scratch;
    the flat difference across two rows is left out of the sum."""
    flat, o = d.reshape(-1)[:-1], v.reshape(-1)
    np.abs(np.subtract(o[1:], o[:-1], out=flat), out=flat)
    return np.add.reduce(d[..., :-1], axis=-1, out=out)


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
    envelope = np.repeat(tv[:1], tv.size)  # [0] is TV(w0): inf * 0 would be NaN
    envelope[1:] += allowance * np.arange(1, tv.size)
    flags = np.zeros(tv.size, dtype=bool)
    flags[1:] = ~(np.diff(tv) <= allowance + 1e-12 * (1.0 + np.abs(tv[:-1])))
    return TVSeries(tv, envelope, flags)


def _bracket_violation(old, new, negative, lo, hi) -> np.ndarray:
    """How far each new value lies outside its bracket (see
    `block_checker`), into lo (negative inside), hi the scratch; negative
    is None (three points), False, or the mask of the entries of nu < 0."""
    o = old.reshape(-1)
    for op, b in ((np.minimum, lo), (np.maximum, hi)):
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
    np.subtract(lo, new, out=lo)
    return np.maximum(lo, np.subtract(new, hi, out=hi), out=lo)


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
        negative = None if nu is None else np.broadcast_to(~(np.asarray(nu, float) >= 0.0), n)
        prepared.append((old, new, negative if negative is None or negative.any() else False,
                         *scratch[:2 * k * n].reshape(2, k, n)))
    tv_scratch = scratch[:rows.size].reshape(rows.shape)

    def check(count: int, tv_out: np.ndarray, witness_out: np.ndarray):
        with np.errstate(all="ignore"):
            _variation(rows[:count], tv_scratch[:count], out=tv_out)
            for col, (old, new, negative, lo, hi) in enumerate(prepared):
                violation = _bracket_violation(old[:count], new[:count], negative,
                                               lo[:count], hi[:count])
                np.maximum.reduce(violation, axis=-1, out=witness_out[:, col])
            np.maximum(witness_out, 0.0, out=witness_out)
        if np.isfinite(tv_out).all() and np.isfinite(witness_out).all():
            return None
        # only a row whose TV or witness is not finite can hold one
        spoilt = ~np.isfinite(np.column_stack([tv_out, witness_out]))
        for i in np.flatnonzero(spoilt.any(axis=1)):
            for col in np.flatnonzero(spoilt[i]):
                bad = np.flatnonzero(~np.isfinite(outputs[col][i]))
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
    num = np.asarray(numeric, dtype=float)
    err = np.abs(num - np.asarray(exact, dtype=float))
    l1 = float(dx * np.sum(err))
    l2 = float(np.sqrt(dx * np.sum(err * err)))
    linf = float(np.max(err))
    xx = np.asarray(x, dtype=float)
    keep = np.ones(xx.shape, dtype=bool)
    for p in singular_points:
        keep &= np.abs(xx - p) > 3.0 * dx
    linf_reg = float(np.max(err[keep])) if np.any(keep) else 0.0
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
