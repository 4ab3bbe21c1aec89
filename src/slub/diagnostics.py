"""Scheme diagnostics: variation bounds, stability witnesses, error norms.

These are the observables the solvers are judged by: total variation
and its allowed growth, the maximum-principle witnesses that bracket
each new value by its upwind (or both-sided) old neighbours, and grid
error norms with optional exclusion of singular neighbourhoods.  The
witness bracket is Harten's TVD condition: a one-coefficient update
u_new[j] = u[j] - C[j]*(u[j] - u[j-1]) has C[j] in [0, 1] exactly when
u_new[j] lies between u[j-1] and u[j].  `block_diagnostics` evaluates
the TV and the witnesses of a whole block of steps at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import Grid1D, edge_pad
from .coupled import RegularityParams

__all__ = [
    "total_variation",
    "tvb_allowance",
    "TVSeries",
    "tv_monitor",
    "block_diagnostics",
    "ErrorReport",
    "error_norms",
    "convergence_orders",
]


def total_variation(values: np.ndarray):
    """Total variation along the last axis: a float for one profile, one
    value per row for a block of profiles (the same bits as row by row).
    One subtraction covers the flat values; the difference across two
    rows lands in a row's last slot, which the sum leaves out."""
    v = np.ascontiguousarray(values, dtype=float).reshape(-1)
    d = np.empty(np.shape(values))
    flat = d.reshape(-1)[:-1]
    np.abs(np.subtract(v[1:], v[:-1], out=flat), out=flat)
    tv = np.sum(d[..., :-1], axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def tvb_allowance(params: RegularityParams, grid: Grid1D) -> float:
    """Per-step total-variation growth budget of the coupled scheme.

    Regular nodes have slopes below delta, so switching a window of the
    profile between representations can add variation at most delta
    times the domain width.
    """
    return params.delta * (grid.b - grid.a)


@dataclass(frozen=True)
class TVSeries:
    """Total-variation trace of a run against its growth envelope.

    values[k] is the TV after k steps, envelope[k] the running bound
    TV(w0) + k*allowance, and flags[k] marks a step whose growth
    exceeded the per-step allowance.  Pure monotone runs use
    allowance = 0, i.e. a nonincreasing-TV check.
    """

    values: np.ndarray
    envelope: np.ndarray
    flags: np.ndarray

    @property
    def ok(self) -> bool:
        return not bool(np.any(self.flags))

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.flags))


def tv_monitor(tv_values: Sequence[float], allowance: float) -> TVSeries:
    """Check per-step TV growth of a trajectory against an allowance,
    with a roundoff margin of 1e-12 relative to the previous TV."""
    tv = np.asarray(tv_values, dtype=float)
    envelope = np.repeat(tv[:1], tv.size)  # [0] is TV(w0): inf * 0 would be NaN
    envelope[1:] += allowance * np.arange(1, tv.size)
    if tv.size < 2:
        return TVSeries(tv, envelope, np.zeros(tv.size, dtype=bool))
    growth = np.diff(tv)
    limit = allowance + 1e-12 * (1.0 + np.abs(tv[:-1]))
    flags = np.concatenate([[False], growth > limit])
    return TVSeries(tv, envelope, flags)


def _bracket_violation(u_old, u_new, nu) -> np.ndarray:
    """How far each new value lies outside its bracket of old values
    (see `block_diagnostics`), along the last axis (negative inside).
    A negative nu reads the edge-padded values; else each bound is one
    slice op over the flat values, and each row's first and last entry,
    whose flat neighbour lies in another row, then take their ghost
    instead."""
    old = np.ascontiguousarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    o = old.reshape(-1)
    pos = None if nu is None else np.asarray(nu, dtype=float) >= 0.0
    if pos is not None and not pos.all():  # some nu negative
        p = edge_pad(old, 1)
        other = np.where(pos, p[..., :-2], p[..., 2:])
    bounds = []
    for op in (np.minimum, np.maximum):
        b = np.empty_like(old)
        f = b.reshape(-1)
        if pos is None:  # op(op(left, old), right)
            op(o[:-1], o[1:], out=f[1:])
            b[..., 0] = old[..., 0]
            last = op(b[..., -1], old[..., -1])
            op(f[:-1], o[1:], out=f[:-1])
            b[..., -1] = last
        elif pos.all():  # op(old, left)
            op(o[1:], o[:-1], out=f[1:])
            b[..., 0] = old[..., 0]
        else:
            op(old, other, out=b)
        bounds.append(b)
    lo, hi = bounds
    # in place: fewer large temporaries per block, fewer page faults
    np.subtract(lo, new, out=lo)
    return np.maximum(lo, np.subtract(new, hi, out=hi), out=lo)


def block_diagnostics(rows: np.ndarray, layers: Sequence[tuple]) -> tuple:
    """Per-step diagnostics of a block of k steps, from one set of 2-D
    calls; the one witness entry point (a one-row block checks one step).

    `rows` holds a run's solution before the block, then after each step.
    Each layer is an (old, new, nu) triple of k-row blocks, row i being
    one layer's input and output of step i+1.  Its witness brackets
    new[j] by old[j-1], old[j] where the signed Courant number nu (one,
    or one per entry) is >= 0, by old[j], old[j+1] where it is negative,
    and by old[j-1..j+1] for nu None (updates that draw on both
    neighbours); the row ends continue as ghosts.  Returns per step:
    each layer's largest violation, at least 0 (k, layers); the TV of
    rows[1:], the same bits as `total_variation` row by row; and the
    first non-finite index (-1 if none) of the solution row, then of
    each layer's output (k, 1 + layers).  Floating-point errors are not
    reported: first_bad shows the non-finite values instead.
    """
    with np.errstate(all="ignore"):
        tv = total_variation(rows[1:])
        witness = np.stack([
            np.maximum(np.max(_bracket_violation(old, new, nu), axis=-1), 0.0)
            for old, new, nu in layers
        ], axis=-1)
    first_bad = np.full((tv.size, 1 + len(layers)), -1)
    # A non-finite entry makes its row's TV or its layer's witness
    # non-finite, so only those rows are searched.
    blocks = [rows[1:]] + [new for _, new, _ in layers]
    for i, col in zip(*np.nonzero(~np.isfinite(np.column_stack([tv, witness])))):
        bad = np.flatnonzero(~np.isfinite(blocks[col][i]))
        if bad.size:
            first_bad[i, col] = bad[0]
    return witness, tv, first_bad


@dataclass(frozen=True)
class ErrorReport:
    """Discrete error norms of a numeric profile against a reference."""

    l1: float
    l2: float
    linf: float
    linf_reg: float


def error_norms(
    numeric: np.ndarray,
    exact: np.ndarray,
    dx: float,
    x: Optional[np.ndarray] = None,
    singular_points: Optional[Sequence[float]] = None,
) -> ErrorReport:
    """Weighted l1/l2 and max norms of the pointwise error.

    linf_reg drops points within 3*dx of any listed singular point; it
    equals linf when nothing is excluded.
    """
    num = np.asarray(numeric, dtype=float)
    err = np.abs(num - np.asarray(exact, dtype=float))
    l1 = float(dx * np.sum(err))
    l2 = float(np.sqrt(dx * np.sum(err * err)))
    linf = float(np.max(err))
    linf_reg = linf
    if singular_points is not None and len(singular_points) and x is not None:
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
