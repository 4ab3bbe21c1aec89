"""Anti-dissipative finite-volume transport on cell averages.

The flux at each interface clamps the downwind average between two
bounds built from the upwind pair; the clamp makes the update exact on
step profiles (no smearing) while keeping it max-norm stable and TVD.
There is one flux function, written for nu >= 0: a negative Courant
number is its mirror image, so the kernels read the stencil upwind by
the sign of nu and evaluate the same flux at |nu| (Despres &
Lagoutiere, J. Sci. Comput. 2001).  `ub_step_values` is the one array
kernel; for one Courant number on every cell it evaluates the flux once
per interface.  Two-velocity problems, H(p) = max(f_min*p, f_max*p), take the
pointwise minimum of two kernel calls (Bokanowski & Zidani, J. Sci.
Comput. 2007).  The scalar fluxes `ub_flux_left` / `ub_flux_right` and
the limited-slope form `ub_flux_limited` are kept as references for the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Alignment, Field, check_cfl, edge_pad

__all__ = [
    "LimiterState",
    "ub_flux_left",
    "ub_flux_right",
    "ub_step_values",
    "ub_flux_limited",
]

# Courant numbers below this magnitude take the zero-velocity branch.
_NU_TINY = 1e-14


def _flux_pos(prev, cur, nxt, nu):
    """Value at the interface between `cur` and its downwind neighbour
    `nxt`, for nu >= 0 (vectorized).  The nu <= 0 flux on the interface
    left of `cur` is `_flux_pos(nxt, cur, prev, -nu)`.  A scalar nu
    takes only the branch it needs."""
    big = np.maximum(cur, prev)
    small = np.minimum(cur, prev)
    if np.ndim(nu) == 0 and nu >= _NU_TINY:
        b = big + (cur - big) / nu
        return np.minimum(np.maximum(nxt, b), small + (cur - small) / nu)
    nu = np.asarray(nu, dtype=float)
    tiny = nu < _NU_TINY
    safe = np.where(tiny, 1.0, nu)
    b = big + (cur - big) / safe
    B = small + (cur - small) / safe
    clamped = np.minimum(np.maximum(nxt, b), B)
    at_rest = np.where(cur != prev, nxt, cur)
    return np.where(tiny, at_rest, clamped)


def ub_flux_left(u_prev: float, u_cur: float, u_next: float, nu: float) -> float:
    """Flux at the interface right of u_cur, for nonnegative nu.

    For nu > 0 returns min(max(u_next, b), B) with
    b = max(u_cur,u_prev) + (u_cur - max(u_cur,u_prev))/nu and
    B = min(u_cur,u_prev) + (u_cur - min(u_cur,u_prev))/nu.
    For nu = 0 returns u_next when u_cur != u_prev, else u_cur.
    """
    if nu < 0.0:
        raise ValueError(f"ub_flux_left needs nu >= 0, got {nu}")
    return float(_flux_pos(u_prev, u_cur, u_next, nu))


def ub_flux_right(u_prev: float, u_cur: float, u_next: float, nu: float) -> float:
    """Flux at the interface left of u_cur, for nonpositive nu (mirror)."""
    if nu > 0.0:
        raise ValueError(f"ub_flux_right needs nu <= 0, got {nu}")
    return float(_flux_pos(u_next, u_cur, u_prev, -nu))


def ub_step_values(values: np.ndarray, nus) -> np.ndarray:
    """One anti-dissipative update on raw cell averages.

    `nus` is one signed Courant number for every cell or one per cell.
    A scalar nu >= 0 (-0.0 included) takes the flux F once on each of
    the n+1 interfaces and returns v - |nu|*diff(F); a negative scalar
    is the mirror call ub_step_values(v[::-1], -nu)[::-1].  Per-cell
    numbers may change sign, so a cell takes both of its interface
    fluxes upwind by the sign of its own nu and at its own |nu|:
    v - |nu|*(outflow flux - inflow flux).  The two forms agree bit for
    bit on a constant nu.  Ghost cells continue the end values.
    """
    check_cfl(nus)
    v = np.asarray(values, dtype=float)
    if np.ndim(nus) == 0:
        if nus < 0.0:
            return ub_step_values(v[::-1], -nus)[::-1]
        # abs: -0.0 must scale like 0.0, as np.abs makes it below
        a = abs(float(nus))
        p = edge_pad(v, 2)
        return v - a * np.diff(_flux_pos(p[:-3], p[1:-2], p[2:-1], a))
    p = edge_pad(v, 2)
    nu = np.asarray(nus, dtype=float)
    pos = nu >= 0.0
    up1 = np.where(pos, p[1:-3], p[3:-1])
    up2 = np.where(pos, p[:-4], p[4:])
    down = np.where(pos, p[3:-1], p[1:-3])
    a = np.abs(nu)
    return v - a * (_flux_pos(up1, v, down, a) - _flux_pos(up2, up1, v, a))


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

    Cross-validation companion to ub_flux_left: flux =
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
