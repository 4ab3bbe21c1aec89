"""Scheme diagnostics: variation bounds, incremental form, error norms.

These are the observables the solvers are judged by: total variation
and its allowed growth, the incremental (flux-difference) form whose
coefficient bounds certify a TVD step, a two-point maximum-principle
witness, and grid error norms with optional exclusion of singular
neighbourhoods.
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
    "IncrementalForm",
    "extract_incremental",
    "StabilityReport",
    "stability_witness",
    "three_point_witness",
    "ErrorReport",
    "error_norms",
    "convergence_orders",
]


def total_variation(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(np.diff(v))))


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


def tv_monitor(
    tv_values: Sequence[float], allowance: float, rtol: float = 1e-12
) -> TVSeries:
    """Check per-step TV growth of a trajectory against an allowance."""
    tv = np.asarray(tv_values, dtype=float)
    envelope = tv[0] + allowance * np.arange(tv.size) if tv.size else tv.copy()
    if tv.size < 2:
        return TVSeries(tv, envelope, np.zeros(tv.size, dtype=bool))
    growth = np.diff(tv)
    limit = allowance + rtol * (1.0 + np.abs(tv[:-1]))
    flags = np.concatenate([[False], growth > limit])
    return TVSeries(tv, envelope, flags)


@dataclass(frozen=True)
class IncrementalForm:
    """Upwind incremental coefficients of one observed update.

    For a right-going step, u_new[j] = u[j] - C[j]*(u[j] - u[j-1]) with
    C[j] attached to the interface left of node j (C[0] uses a flat
    ghost).  Interfaces with no jump cannot determine a coefficient;
    there C is set to 0 and the unexplained part of the update lands in
    `residual`.
    """

    coefficients: np.ndarray
    residual: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual))) if self.residual.size else 0.0

    def is_tvd(self, tol: float = 1e-12) -> bool:
        c = self.coefficients
        return bool(np.all(c >= -tol) and np.all(c <= 1.0 + tol))


def extract_incremental(
    u_old: np.ndarray, u_new: np.ndarray, nu_sign: float = 1.0
) -> IncrementalForm:
    """Recover incremental coefficients from one observed step.

    nu_sign >= 0 reads the update as upwind-left (coefficient on
    u[j] - u[j-1]); nu_sign < 0 mirrors it.  A step is TVD in this
    form when every recovered coefficient lies in [0, 1] and the
    residual vanishes.
    """
    old = np.asarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    if old.shape != new.shape:
        raise ValueError("u_old and u_new must have matching shapes")
    p = edge_pad(old, 1)
    upwind = p[:-2] if nu_sign >= 0 else p[2:]
    jump = old - upwind
    delta = old - new
    flat = jump == 0.0
    safe = np.where(flat, 1.0, jump)
    coeff = np.where(flat, 0.0, delta / safe)
    residual = np.where(flat, delta, 0.0)
    return IncrementalForm(coefficients=coeff, residual=residual)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the two-point maximum-principle check."""

    ok: bool
    max_violation: float
    worst_index: int

    def __bool__(self) -> bool:
        return self.ok


def stability_witness(
    u_old: np.ndarray, u_new: np.ndarray, nu, tol: float = 1e-12
) -> StabilityReport:
    """Check each new value against its two-point upwind bracket.

    `nu` is one signed Courant number for every entry or an array of
    one per entry.  For nonnegative local Courant number the bracket at
    j is [min, max] of u_old[j-1], u_old[j]; for negative it uses
    u_old[j], u_old[j+1].  Monotone steps of either solver family
    satisfy this with equality at most.
    """
    old = np.asarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    p = edge_pad(old, 1)
    if np.ndim(nu) == 0:
        other = p[:-2] if nu >= 0.0 else p[2:]
    else:
        other = np.where(np.asarray(nu, dtype=float) >= 0.0, p[:-2], p[2:])
    lo = np.minimum(old, other)
    hi = np.maximum(old, other)
    viol = np.maximum(lo - new, new - hi)
    worst = int(np.argmax(viol))
    max_violation = float(viol[worst])
    return StabilityReport(
        ok=max_violation <= tol, max_violation=max(max_violation, 0.0),
        worst_index=worst,
    )


def three_point_witness(
    u_old: np.ndarray, u_new: np.ndarray, tol: float = 1e-12
) -> StabilityReport:
    """Symmetric variant: bracket at j spans u_old[j-1..j+1].

    Suits updates that draw on both neighbors, e.g. the two-velocity
    min-combined step or a Hopf-Lax minimization over signed speeds.
    """
    old = np.asarray(u_old, dtype=float)
    new = np.asarray(u_new, dtype=float)
    p = edge_pad(old, 1)
    lo = np.minimum(np.minimum(p[:-2], old), p[2:])
    hi = np.maximum(np.maximum(p[:-2], old), p[2:])
    viol = np.maximum(lo - new, new - hi)
    worst = int(np.argmax(viol))
    max_violation = float(viol[worst])
    return StabilityReport(
        ok=max_violation <= tol, max_violation=max(max_violation, 0.0),
        worst_index=worst,
    )


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
    exclusion_radius: Optional[float] = None,
) -> ErrorReport:
    """Weighted l1/l2 and max norms of the pointwise error.

    linf_reg drops points within `exclusion_radius` (default 3*dx) of
    any listed singular point; it equals linf when nothing is excluded.
    """
    num = np.asarray(numeric, dtype=float)
    err = np.abs(num - np.asarray(exact, dtype=float))
    l1 = float(dx * np.sum(err))
    l2 = float(np.sqrt(dx * np.sum(err * err)))
    linf = float(np.max(err))
    linf_reg = linf
    if singular_points is not None and len(singular_points) and x is not None:
        radius = 3.0 * dx if exclusion_radius is None else exclusion_radius
        xx = np.asarray(x, dtype=float)
        keep = np.ones(xx.shape, dtype=bool)
        for p in singular_points:
            keep &= np.abs(xx - p) > radius
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
