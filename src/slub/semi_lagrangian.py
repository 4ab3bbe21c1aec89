"""Semi-Lagrangian updates on node values.

Point values are advanced by tracing characteristics back one step and
reading the piecewise-linear (P1) interpolant there, with constant
continuation past the grid ends.  Constant-velocity transport is the
upwind convex combination that `advect_const_stepper` prepares once
per run; variable-velocity transport (`advect_var_stepper`) reads the
interpolant at per-node feet that the harness builds once per grid.
A stepper takes its float values as given, with no conversion per call.

For the erosion v_t + |c v_x| = 0, H(p) = |c p| has the convex
conjugate 0 on [-c, c] and +inf outside, so the Hopf-Lax update is the
minimum of the interpolant over the feet x_j - a dt, a in [-c, c].  When
c dt <= dx that foot interval holds no node other than x_j, and the
interpolant is linear on each side of x_j, so `hj_stepper` needs only
the two endpoint feet, taken once per run, and the node value (Falcone
& Ferretti, SIAM 2014).
"""

from __future__ import annotations

import numpy as np

from .grids import check_cfl

__all__ = [
    "advect_const_stepper",
    "advect_var_stepper",
    "hj_stepper",
]


_add, _multiply, _minimum, _interp = np.add, np.multiply, np.minimum, np.interp


def advect_const_stepper(nu: float, n: int):
    """One constant-velocity transport step on n raw node values,
    prepared once for a fixed nu: the CFL check, |nu|, the upwind side
    and a workspace sized to n (so it is not thread-safe) are taken
    here.  Returns update(values, out=None), which writes the new values
    into `out` (a fresh array when None) and returns it.

    The signed Courant number nu = c*dt/dx selects the upwind
    direction: out_j = a*up_j + (1-a)*in_j with a = |nu| and up_j the
    upwind neighbour, in_{j-1} for nu >= 0 and in_{j+1} for nu < 0.
    With |nu| <= 1 each output is a convex combination of two upwind
    neighbours, so the step is monotone, TVD and max-norm stable;
    |nu| = 1 is an exact shift.  The upwind values are padded by the
    end node's ghost (it continues the end value) into the workspace,
    scaled there by a and added to (1-a)*in; addition commutes, so the
    values are those of a*up + (1-a)*in.
    """
    check_cfl(nu)
    a, rest = np.array(abs(nu)), np.array(1.0 - abs(nu))  # 0-d operands
    p = np.empty(n + 1)
    body, ghost, end, up = ((p[1:], p[:1], p[1:2], p[:-1]) if nu >= 0.0 else
                            (p[:-1], p[-1:], p[-2:-1], p[1:]))

    def update(v, out=None):
        body[...] = v
        ghost[...] = end
        _multiply(up, a, out=up)
        out = _multiply(rest, v, out=out)
        return _add(out, up, out=out)

    return update


def advect_const_values(values: np.ndarray, nu: float) -> np.ndarray:
    """`advect_const_stepper(nu, len(values))` applied once to `values`
    as floats: each call checks nu.  Not exported;
    `benchmarks/kernels.py` times it."""
    return advect_const_stepper(nu, len(values))(np.asarray(values, dtype=float))


def advect_var_stepper(nodes: np.ndarray, feet: np.ndarray):
    """Variable-velocity transport on raw values at `nodes`, read at the
    per-node `feet` that the caller traced back one step (and checked
    against the CFL bound): update(values, out=None) returns
    interp(feet, nodes, values), fresh when `out` is None and else
    copied into `out`, since np.interp takes no `out`."""

    def update(v, out=None):
        new = _interp(feet, nodes, v)
        if out is None:
            return new
        out[...] = new
        return out

    return update


def hj_stepper(nodes: np.ndarray, r: float):
    """Hopf-Lax update for H(p) = |c p|, r = c*dt >= 0, on raw values at
    uniform `nodes`, prepared once with its feet and the CFL check r <= dx:
    update(values, out=None) writes min(interp(in, x_j - r),
    interp(in, x_j + r), in_j), the minimum of the P1 interpolant over
    [x_j - r, x_j + r], into `out` (fresh when None).  Both feet are read
    in one `np.interp` call, which evaluates each point on its own, so the
    two halves of its result are the bits of one call per foot."""
    check_cfl(r / (nodes[1] - nodes[0]))
    n = len(nodes)
    feet = np.concatenate((nodes - r, nodes + r))

    def update(v, out=None):
        both = _interp(feet, nodes, v)
        out = _minimum(both[:n], both[n:], out=out)
        return _minimum(out, v, out=out)

    return update
