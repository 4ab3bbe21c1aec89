"""Anti-dissipative finite-volume transport on cell averages.

The flux at each interface clamps the downwind average between two
bounds built from the upwind pair; the clamp makes the update exact on
step profiles (no smearing) while keeping it max-norm stable and TVD.
There is one flux function, written for nu >= 0: a negative Courant
number is its mirror image, so the kernels read the stencil upwind by
the sign of nu and evaluate the same flux at |nu| (Despres &
Lagoutiere, J. Sci. Comput. 2001).  `ub_stepper` prepares the one
array kernel once per run (`ub_step_values`, its checked one-call
entry, is kept for the benchmark's kernel sweep and not exported); for
one Courant number on every cell it evaluates the flux once per
interface.  The erosion v_t + |c v_x| = 0 takes the pointwise
minimum of the updates at -|nu| and |nu| (Bokanowski & Zidani,
J. Sci. Comput. 2007), prepared as one step by `ub_min_stepper`.
"""

from __future__ import annotations

import numpy as np

from .grids import check_cfl

__all__ = [
    "ub_stepper",
    "ub_min_stepper",
]

# Courant numbers below this magnitude take the zero-velocity branch.
_NU_TINY = 1e-14

_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_maximum, _minimum, _copyto, _where, _take = np.maximum, np.minimum, np.copyto, np.where, np.take


def _flux_pos(prev, cur, nxt, nu, tiny, work):
    """Value at the interface between `cur` and its downwind neighbour
    `nxt`, for nu >= 0 (the nu <= 0 flux left of `cur` is its mirror,
    `_flux_pos(nxt, cur, prev, -nu, ...)`), in place in the workspace
    (big, small, b) and returned as b.  Where `tiny` (a bool, an array,
    or None for nowhere) marks |nu| < _NU_TINY the flux is the at-rest
    value; the clamp is still evaluated there, at the nu = 1 that the
    stepper put there when it was built, and warns."""
    big, small, b = work
    _maximum(cur, prev, out=big)
    _minimum(cur, prev, out=small)
    _subtract(cur, big, out=b)
    _divide(b, nu, out=b)
    _add(big, b, out=b)  # b = big + (cur - big)/nu
    _maximum(nxt, b, out=b)
    B = _subtract(cur, small, out=big)
    _divide(B, nu, out=B)
    _add(small, B, out=B)  # B = small + (cur - small)/nu
    _minimum(b, B, out=b)
    if tiny is not None:
        _copyto(b, _where(cur != prev, nxt, cur), where=tiny)
    return b


def _scalar_stepper(nus, n):
    """The update at the scalar nus[0] on n cells, or the minimum of those
    at nus[0] and nus[1] (one |nu|), on one padding, flux scratch and set
    of views built here.  A mirrored (negative) nu swaps each interface's
    upwind and downwind values."""
    a = abs(float(nus[0]))  # abs: -0.0 must scale like 0.0, as np.abs would
    tiny = (a < _NU_TINY) or None
    a, div = np.array(a), np.array(1.0 if tiny else a)  # 0-d operands
    p, upper, flux = np.empty(n + 4), np.empty(n), tuple(np.empty((3, n + 1)))  # big, small, b
    mid, head, first, tail, last, b = p[2:-2], p[:2], p[2:3], p[-2:], p[-3:-2], flux[2]
    (ends, outflow, inflow), (ends_min, outflow_min, inflow_min) = (
        ((p[3:], p[2:-1], p[1:-2]), b[:-1], b[1:]) if nu < 0.0 else
        ((p[:-3], p[1:-2], p[2:-1]), b[1:], b[:-1]) for nu in (nus[0], nus[-1]))

    def update(values, out=None):
        mid[...] = values
        head[...] = first
        tail[...] = last
        _flux_pos(*ends, div, tiny, flux)
        out = _subtract(outflow, inflow, out=out)
        _multiply(out, a, out=out)
        return _subtract(values, out, out=out)

    def update_min(values, out=None):
        out = update(values, out)  # pads; the update at nus[0]
        _flux_pos(*ends_min, div, tiny, flux)
        _subtract(outflow_min, inflow_min, out=upper)
        _multiply(upper, a, out=upper)
        _subtract(values, upper, out=upper)
        return _minimum(out, upper, out=out)

    return update if len(nus) == 1 else update_min


def ub_stepper(nus, n: int):
    """One anti-dissipative update on n raw cell averages, prepared once
    for fixed Courant numbers: the CFL check, the sign, the stencil, |nu|,
    the at-rest decision and a workspace sized to n (so it is not
    thread-safe).  Returns update(values, out=None), which writes the new
    averages of n `values` into `out` (a fresh array when None) and
    returns it.

    `nus` is one signed Courant number for every cell or one per cell.
    A scalar nu >= 0 (-0.0 included) takes the flux F once on each of
    the n+1 interfaces and gives v - |nu|*diff(F); a negative scalar
    is the mirror image, the update of v[::-1] at -nu, reversed.
    Per-cell numbers may change sign, so a cell takes both of its
    interface fluxes upwind by the sign of its own nu and at its own
    |nu|: v - |nu|*(outflow flux - inflow flux); when every nu >= 0 the
    stencil is three slices, else it is gathered by index.  The two
    forms agree bit for bit on a constant nu.  Ghost cells continue the
    end values, padded into views built once.
    """
    check_cfl(nus)
    if isinstance(nus, float) or np.ndim(nus) == 0:  # np.ndim is slow on a float
        return _scalar_stepper((nus,), n)
    nu = np.asarray(nus, dtype=float)
    pos = nu >= 0.0
    a = np.abs(nu)
    tiny = None if np.min(a, initial=np.inf) >= _NU_TINY else a < _NU_TINY
    div = a if tiny is None else np.where(tiny, 1.0, a)
    p, (big, small, outflow, inflow) = np.empty(n + 4), np.empty((4, n))
    cur, up1, up2, down = p[2:-2], p[1:-3], p[:-4], p[3:-1]
    head, first, tail, last = p[:2], p[2:3], p[-2:], p[-3:-2]
    out_work, in_work = (big, small, outflow), (big, small, inflow)
    index = None
    if not pos.all():  # some cell reads its stencil from the right
        j = np.arange(n)
        index = np.where(pos, [j + 1, j, j + 3], [j + 3, j + 4, j + 1])
        up1, up2, down = stencil = np.empty(index.shape)

    def update(values, out=None):
        cur[...] = values
        head[...] = first
        tail[...] = last
        if index is not None:
            _take(p, index, out=stencil, mode="clip")
        F = _flux_pos(up1, cur, down, div, tiny, out_work)
        out = _subtract(F, _flux_pos(up2, up1, cur, div, tiny, in_work), out=out)
        _multiply(out, a, out=out)
        return _subtract(values, out, out=out)

    return update


def ub_min_stepper(nu: float, n: int):
    """The erosion update on n cells, the pointwise minimum of the updates
    at the scalars -|nu| and |nu|, prepared as by `ub_stepper`; both share
    one padding and one flux scratch."""
    check_cfl(nu)
    return _scalar_stepper((-abs(nu), abs(nu)), n)


def ub_step_values(values: np.ndarray, nus) -> np.ndarray:
    """`ub_stepper(nus, len(values))` applied once: each call checks
    `nus`.  Not exported; `benchmarks/kernels.py` times it."""
    return ub_stepper(nus, len(values))(values)
