"""Anti-dissipative finite-volume transport on cell averages.

The flux at each interface clamps the downwind average between two
bounds built from the upwind pair; the clamp makes the update exact on
step profiles (no smearing) while keeping it max-norm stable and TVD.
There is one flux function, written for nu >= 0: a negative Courant
number is its mirror image, so the kernels read the stencil upwind by
the sign of nu and evaluate the same flux at |nu| (Despres &
Lagoutiere, J. Sci. Comput. 2001).  `ub_stepper` prepares the one
array kernel once per run, and `ub_step_values` is its checked one-call
entry; for one Courant number on every cell it evaluates the flux once
per interface.  The erosion v_t + |c v_x| = 0 takes the pointwise
minimum of the updates at -|nu| and |nu| (Bokanowski & Zidani,
J. Sci. Comput. 2007), prepared as one step by `ub_min_stepper`.  The
scalar fluxes `ub_flux_left` / `ub_flux_right` are kept as references
for the tests.
"""

from __future__ import annotations

import numpy as np

from .grids import check_cfl, edge_pad

__all__ = [
    "ub_flux_left",
    "ub_flux_right",
    "ub_stepper",
    "ub_min_stepper",
    "ub_step_values",
]

# Courant numbers below this magnitude take the zero-velocity branch.
_NU_TINY = 1e-14


def _flux_pos(prev, cur, nxt, nu, tiny=None):
    """Value at the interface between `cur` and its downwind neighbour
    `nxt`, for nu >= 0, on arrays; the nu <= 0 flux left of `cur` is
    `_flux_pos(nxt, cur, prev, -nu)`.  Where `tiny` (a bool, an array, or
    None for nowhere) marks nu < _NU_TINY the flux is the at-rest value,
    and the clamp is still evaluated, at nu = 1, so it warns as before.
    The clamp runs in place in three fresh temporaries."""
    if tiny is not None:
        nu = np.where(tiny, 1.0, nu)
    big = np.maximum(cur, prev)
    small = np.minimum(cur, prev)
    b = np.subtract(cur, big)
    b /= nu
    np.add(big, b, out=b)  # b = big + (cur - big)/nu
    np.maximum(nxt, b, out=b)
    B = np.subtract(cur, small, out=big)
    B /= nu
    np.add(small, B, out=B)  # B = small + (cur - small)/nu
    np.minimum(b, B, out=b)
    if tiny is not None:
        np.copyto(b, np.where(cur != prev, nxt, cur), where=tiny)
    return b


def _scalar_flux(prev: float, cur: float, nxt: float, nu: float) -> float:
    """`_flux_pos` on one interface, through one-element arrays; rejects
    a NaN nu or one above 1 (see `check_cfl`)."""
    check_cfl(nu)
    ends = np.array([[prev], [cur], [nxt]], dtype=float)
    return float(_flux_pos(*ends, nu, (nu < _NU_TINY) or None)[0])


def ub_flux_left(u_prev: float, u_cur: float, u_next: float, nu: float) -> float:
    """Flux at the interface right of u_cur, for nonnegative nu.

    For nu > 0 returns min(max(u_next, b), B) with
    b = max(u_cur,u_prev) + (u_cur - max(u_cur,u_prev))/nu and
    B = min(u_cur,u_prev) + (u_cur - min(u_cur,u_prev))/nu.
    For nu = 0 returns u_next when u_cur != u_prev, else u_cur.
    """
    if nu < 0.0:
        raise ValueError(f"ub_flux_left needs nu >= 0, got {nu}")
    return _scalar_flux(u_prev, u_cur, u_next, nu)


def ub_flux_right(u_prev: float, u_cur: float, u_next: float, nu: float) -> float:
    """Flux at the interface left of u_cur, for nonpositive nu (mirror)."""
    if nu > 0.0:
        raise ValueError(f"ub_flux_right needs nu <= 0, got {nu}")
    return _scalar_flux(u_next, u_cur, u_prev, -nu)


def _scalar_side(nu: float) -> tuple:
    """(|nu|, at-rest flag, mirrored) of one scalar Courant number."""
    a = abs(float(nu))  # abs: -0.0 must scale like 0.0, as np.abs would
    return a, (a < _NU_TINY) or None, nu < 0.0


def _scalar_update(v, p, side, out):
    """The scalar-nu update of v (edge-padded by 2 as p) into `out`.  A
    mirrored nu swaps each interface's upwind and downwind values."""
    a, tiny, mirrored = side
    if mirrored:
        F = _flux_pos(p[3:], p[2:-1], p[1:-2], a, tiny)
        out = np.subtract(F[:-1], F[1:], out=out)
    else:
        F = _flux_pos(p[:-3], p[1:-2], p[2:-1], a, tiny)
        out = np.subtract(F[1:], F[:-1], out=out)
    out *= a
    return np.subtract(v, out, out=out)


def ub_stepper(nus):
    """One anti-dissipative update on raw cell averages, prepared once
    for fixed Courant numbers: the CFL check, the sign and the stencil,
    |nu| and the at-rest decision are taken here.  Returns
    update(values, out=None), which writes the new averages into `out`
    (a fresh array when None) and returns it.

    `nus` is one signed Courant number for every cell or one per cell.
    A scalar nu >= 0 (-0.0 included) takes the flux F once on each of
    the n+1 interfaces and gives v - |nu|*diff(F); a negative scalar
    is the mirror image, the update of v[::-1] at -nu, reversed.
    Per-cell numbers may change sign, so a cell takes both of its
    interface fluxes upwind by the sign of its own nu and at its own
    |nu|: v - |nu|*(outflow flux - inflow flux); when every nu >= 0 the
    stencil is three slices, else it is picked by np.where.  The two
    forms agree bit for bit on a constant nu.  The update is written in
    place into the flux difference.  Ghost cells continue the end values.
    """
    check_cfl(nus)
    if isinstance(nus, float) or np.ndim(nus) == 0:  # np.ndim is slow on a float
        side = _scalar_side(nus)

        def update(values, out=None):
            v = np.asarray(values, dtype=float)
            return _scalar_update(v, edge_pad(v, 2), side, out)

        return update
    nu = np.asarray(nus, dtype=float)
    pos = nu >= 0.0
    uniform = pos.all()  # adv-var: every cell reads its stencil from the left
    a = np.abs(nu)
    tiny = None if np.min(a, initial=np.inf) >= _NU_TINY else a < _NU_TINY

    def update(values, out=None):
        v = np.asarray(values, dtype=float)
        p = edge_pad(v, 2)
        if uniform:
            up1, up2, down = p[1:-3], p[:-4], p[3:-1]
        else:
            up1 = np.where(pos, p[1:-3], p[3:-1])
            up2 = np.where(pos, p[:-4], p[4:])
            down = np.where(pos, p[3:-1], p[1:-3])
        F = _flux_pos(up1, v, down, a, tiny)
        out = np.subtract(F, _flux_pos(up2, up1, v, a, tiny), out=out)
        out *= a
        return np.subtract(v, out, out=out)

    return update


def ub_min_stepper(nu: float):
    """The erosion update, the pointwise minimum of the updates at the
    scalars -|nu| and |nu|, prepared as by `ub_stepper`; both share one
    padding of the values."""
    check_cfl(nu)
    lo, hi = _scalar_side(-abs(nu)), _scalar_side(abs(nu))

    def update(values, out=None):
        v = np.asarray(values, dtype=float)
        p = edge_pad(v, 2)
        first = _scalar_update(v, p, lo, None)
        out = _scalar_update(v, p, hi, out)
        return np.minimum(first, out, out=out)

    return update


def ub_step_values(values: np.ndarray, nus) -> np.ndarray:
    """`ub_stepper(nus)` applied once: each call checks `nus`."""
    return ub_stepper(nus)(values)
