"""Reference code the tests hold the package to, kept outside it.

`flux_left` / `flux_right` run the Ultra-Bee kernel's own flux on one
interface, `bracket_violations` writes the witness bracket out entry by
entry, `edge_pad` is numpy's "edge" padding without its overhead, and
`hopf_lax_oracle` computes the erosion reference by direct
minimization.  `step_witness` checks one step through the run path,
a `block_checker` of a one-step block.  `backward_slopes`,
`active_cells` and `project_to_cells` are the coupled step's indicator
slopes, active cells and cell projection on their own, the forms the
step is held to.  `fresh_coupled_step` and `stepper` call `coupled_step`
as a run does, on a `CoupledState` of six fresh arrays with steppers and
an indicator that `_indicator` prepares for the call's length, spacing
and thresholds, and `initial_level` is the level a coupled run starts
from.
"""

from __future__ import annotations

import numpy as np

from slub.coupled import CoupledState, _indicator, coupled_step
from slub.diagnostics import block_checker
from slub.problems import _dispatch
from slub.ultrabee import _NU_TINY, _flux_pos


def flux_left(prev: float, cur: float, nxt: float, nu: float) -> float:
    """The kernel's flux at the interface right of `cur`, for nu >= 0
    (the at-rest value below 1e-14), through one-element arrays."""
    ends = np.array([[prev], [cur], [nxt]], dtype=float)
    return float(_flux_pos(*ends, nu, (nu < _NU_TINY) or None, np.empty((3, 1)))[0])


def flux_right(prev: float, cur: float, nxt: float, nu: float) -> float:
    """The flux at the interface left of `cur`, for nu <= 0: the mirror."""
    return flux_left(nxt, cur, prev, -nu)


def edge_pad(values: np.ndarray, k: int, out=None) -> np.ndarray:
    """`values` with k >= 1 ghost entries at each end of the last axis
    that continue the end values, into `out` (fresh when None)."""
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] + 2 * k,), dtype=values.dtype)
    out[..., :k] = values[..., :1]
    out[..., k:-k] = values
    out[..., -k:] = values[..., -1:]
    return out


def bracket_violations(old, new, nu) -> np.ndarray:
    """How far each new[j] lies outside its bracket (negative inside):
    the min/max of old[j-1], old[j] where nu >= 0, of old[j], old[j+1]
    where nu < 0, of all three for nu None; nu is one number or one per
    entry, and each end continues as its own ghost."""
    n = len(old)
    out = np.empty(n)
    for j in range(n):
        left, right = old[max(j - 1, 0)], old[min(j + 1, n - 1)]
        if nu is None:
            bracket = (left, old[j], right)
        elif (nu if np.ndim(nu) == 0 else nu[j]) >= 0.0:
            bracket = (left, old[j])
        else:
            bracket = (old[j], right)
        out[j] = max(min(bracket) - new[j], new[j] - max(bracket))
    return out


def step_witness(old, new, nu) -> float:
    """The witness of one step, old -> new, by `block_checker`."""
    old, new = (np.asarray(a, dtype=float).reshape(1, -1) for a in (old, new))
    witness = np.empty((1, 1))
    block_checker(new, [(old, new, nu)])(1, np.empty(1), witness)
    return float(witness[0, 0])


def backward_slopes(values, dx: float) -> np.ndarray:
    """Backward divided differences with zero ghosts: entry j is
    (v_j - v_{j-1})/dx, entries 0 and n (one past the end) are 0."""
    v = np.asarray(values, dtype=float)
    s = np.zeros(v.size + 1)
    np.subtract(v[1:], v[:-1], out=s[1:-1])
    s[1:-1] /= dx
    return s


def active_cells(sigma) -> np.ndarray:
    """Cells adjacent to at least one irregular node: cell k lies
    between nodes k and k+1, so it is active unless both are regular."""
    regular = np.asarray(sigma)
    return np.logical_not(np.logical_and(regular[:-1], regular[1:]))


def project_to_cells(node_values) -> np.ndarray:
    """Trapezoidal cell averages of a node profile."""
    v = np.asarray(node_values, dtype=float)
    out = np.add(v[:-1], v[1:])
    out *= 0.5
    return out


def fresh_coupled_step(prev, dx, params, node_update, cell_update):
    """One `coupled_step` from the level `prev` = (w, w_bar, owned), as a
    run calls it: on the `CoupledState` of `prev` and six fresh arrays, in
    that state's field order, with an `_indicator` built for n, dx and
    `params`."""
    n = np.size(prev[0])
    out = (np.empty(n), np.empty(n - 1), np.empty(n - 1, bool), np.empty(n, np.int8),
           np.empty(n), np.empty(n - 1))
    return coupled_step(CoupledState(prev, out), node_update, cell_update,
                        _indicator(n, dx, params))


def initial_level(w) -> tuple:
    """(w, w_bar, owned) of a coupled run at t = 0: the averages are the
    projected nodes and no cell is owned."""
    w = np.asarray(w, dtype=float)
    return w, project_to_cells(w), np.zeros(w.size - 1, bool)


def stepper(update):
    """A map to a fresh array, update(v), as a stepper update(v, out=...)."""
    def step(v, out):
        np.copyto(out, update(v))
        return out
    return step


def hopf_lax_oracle(ic, c: float, x, t: float, n_samples: int = 2001):
    """Reference solution of v_t + |c v_x| = 0: erosion of the profile.

    Evaluates min over y in [x - c t, x + c t] of ic(y) by dense sampling
    followed by local ternary refinement around the sampled minimizer.

    Parameters
    ----------
    ic : callable
        Initial profile (vectorized).
    c : float
        Speed bound, c >= 0.
    x : float or ndarray
    t : float
    n_samples : int
        Dense sample count per evaluation point (>= 3).
    """
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    r = c * t
    if r == 0.0:
        return _dispatch(x, np.asarray(ic(xa), dtype=float).reshape(np.shape(x)))

    u = np.linspace(0.0, 1.0, n_samples)
    Y = (xa - r)[:, None] + (2.0 * r) * u[None, :]
    V = np.asarray(ic(Y.ravel()), dtype=float).reshape(Y.shape)
    k = np.argmin(V, axis=1)
    h = 2.0 * r / (n_samples - 1)
    ystar = Y[np.arange(xa.size), k]
    lo = np.maximum(ystar - h, xa - r)
    hi = np.minimum(ystar + h, xa + r)
    # ternary refinement; the dense pass has isolated the basin
    for _ in range(120):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = np.asarray(ic(m1), dtype=float)
        f2 = np.asarray(ic(m2), dtype=float)
        take_left = f1 <= f2
        hi = np.where(take_left, m2, hi)
        lo = np.where(take_left, lo, m1)
    ymin = 0.5 * (lo + hi)
    out = np.minimum(V[np.arange(xa.size), k], np.asarray(ic(ymin), dtype=float))
    return _dispatch(x, out.reshape(np.shape(x)))
