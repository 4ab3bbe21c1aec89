"""Reference code the tests hold the package to, kept outside it.

Each step kernel has one earlier form here, the numpy expression it
replaced; one property test per kernel in `tests/test_step_kernels.py`
holds the kernel, and its one-call entry where it has one, to that form
byte for byte:
`old_ub_step_values` (with its flux `old_flux_pos`; the erosion cell
step is the minimum of two of its calls) for the Ultra-Bee update,
`old_advect_const_values` and `old_hj_step` for the node steps,
`classify_reference` and `dilate_by_loop` for the indicator,
`active_cells`, `project_to_cells` and `old_project_to_nodes` for the
active cells and both projections, and `old_coupled_step`, which chains
them with np.where, for the coupled step.  `old_tv_monitor` and
`old_error_norms` are the earlier bodies of the two diagnostics a run
ends with, which `tests/test_diagnostics.py` holds the package's to
byte for byte, with the same warnings.

`flux_left` / `flux_right` run the Ultra-Bee kernel's own flux on one
interface, `bracket_violations` writes the witness bracket out entry by
entry, and `hopf_lax_oracle` computes the erosion reference by direct
minimization.  `step_witness` checks one step through the run path, a
`block_checker` of a one-step block.  `fresh_coupled_step` and
`stepper` call `coupled_step` as a run does, on the state that
`coupled_states` builds for six fresh blocks of two rows, with steppers
and an indicator that `_indicator` prepares for the call's length,
spacing and thresholds, and `initial_level` is the level a coupled run
starts from.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from slub.coupled import _indicator, coupled_states, coupled_step
from slub.diagnostics import block_checker
from slub.problems import _dispatch
from slub.ultrabee import _NU_TINY, _flux_pos


def flux_left(prev: float, cur: float, nxt: float, nu: float) -> float:
    """The kernel's flux at the interface right of `cur`, for nu >= 0
    (the at-rest value below 1e-14), through one-element arrays."""
    ends = np.array([[prev], [cur], [nxt]], dtype=float)
    tiny = (nu < _NU_TINY) or None  # the clamp runs at nu = 1 there, as in the steppers
    return float(_flux_pos(*ends, 1.0 if tiny else nu, tiny, np.empty((3, 1)))[0])


def flux_right(prev: float, cur: float, nxt: float, nu: float) -> float:
    """The flux at the interface left of `cur`, for nu <= 0: the mirror."""
    return flux_left(nxt, cur, prev, -nu)


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


# ---------------------------------------------------------------------------
# the earlier forms of the step kernels


def old_flux_pos(prev, cur, nxt, nu):
    """The Ultra-Bee flux for nu >= 0 (one number or one per entry), the
    clamp of nxt between big + (cur - big)/nu and small + (cur - small)/nu,
    with the at-rest value where nu < 1e-14."""
    big = np.maximum(cur, prev)
    small = np.minimum(cur, prev)
    if (nu if isinstance(nu, float) else np.min(nu, initial=np.inf)) >= 1e-14:
        b = big + (cur - big) / nu
        return np.minimum(np.maximum(nxt, b), small + (cur - small) / nu)
    nu = np.asarray(nu, dtype=float)
    tiny = nu < 1e-14
    safe = np.where(tiny, 1.0, nu)
    b = big + (cur - big) / safe
    B = small + (cur - small) / safe
    clamped = np.minimum(np.maximum(nxt, b), B)
    at_rest = np.where(cur != prev, nxt, cur)
    return np.where(tiny, at_rest, clamped)


def old_ub_step_values(values, nus):
    """The Ultra-Bee update of the cell averages `values` at one signed
    Courant number (a negative one reverses the cells) or one per cell
    (read upwind by np.where on its sign), on edge-padded values."""
    v = np.asarray(values, dtype=float)
    if np.ndim(nus) == 0:
        if nus < 0.0:
            return old_ub_step_values(v[::-1], -nus)[::-1]
        a = abs(float(nus))
        p = np.pad(v, 2, mode="edge")
        F = old_flux_pos(p[:-3], p[1:-2], p[2:-1], a)
        return v - a * (F[1:] - F[:-1])
    p = np.pad(v, 2, mode="edge")
    nu = np.asarray(nus, dtype=float)
    pos = nu >= 0.0
    if pos.all():
        up1, up2, down = p[1:-3], p[:-4], p[3:-1]
    else:
        up1 = np.where(pos, p[1:-3], p[3:-1])
        up2 = np.where(pos, p[:-4], p[4:])
        down = np.where(pos, p[3:-1], p[1:-3])
    a = np.abs(nu)
    return v - a * (old_flux_pos(up1, v, down, a) - old_flux_pos(up2, up1, v, a))


def old_advect_const_values(values, nu):
    """The constant-velocity node step a*up + (1 - a)*v, a = |nu|, on
    edge-padded values."""
    v = np.asarray(values, dtype=float)
    padded = np.pad(v, 1, mode="edge")
    up = padded[:-2] if nu >= 0.0 else padded[2:]
    a = abs(nu)
    return a * up + (1.0 - a) * v


def old_hj_step(nodes, r, v):
    """The erosion node step: the P1 interpolant's minimum over
    [x_j - r, x_j + r], its two end feet taken on every call."""
    lo, hi = np.interp(nodes - r, nodes, v), np.interp(nodes + r, nodes, v)
    return np.minimum(np.minimum(lo, hi), v)


def classify_reference(values, dx, params):
    """The indicator as first written: slopes by np.diff, the left pair
    by np.concatenate, the sign test as a product (of the slopes' signs,
    which, unlike the slopes themselves, no product underflows), the
    guard by a float convolution."""
    v = np.asarray(values, dtype=float)
    s = np.concatenate([[0.0], np.diff(v) / dx, [0.0]])
    flat = np.abs(s) <= params.flat_tol
    same_sign = np.sign(s[:-1]) * np.sign(s[1:]) > 0.0
    compat = (flat[:-1] & flat[1:]) | same_sign
    small = np.abs(s[:-1]) < params.delta
    left_ok = np.concatenate([[True], compat[:-1]])
    sigma = small & left_ok & compat
    if params.guard > 0 and not sigma.all():
        kernel = np.ones(2 * params.guard + 1)
        hits = np.convolve((~sigma).astype(float), kernel, mode="full")
        sigma = hits[params.guard : params.guard + sigma.size] == 0.0
    return sigma.astype(np.int8)


def dilate_by_loop(flags, guard: int) -> np.ndarray:
    """The guard written out node by node: node j stays regular only if
    every flag within `guard` of it is."""
    return np.array([flags[max(0, j - guard):j + guard + 1].all() for j in range(len(flags))],
                    dtype=np.int8)


def old_project_to_nodes(c):
    """Node values as means of the adjacent averages of the edge-padded
    cells."""
    p = np.pad(c, 1, mode="edge")
    return 0.5 * (p[:-1] + p[1:])


def old_coupled_step(prev, dx, params, sl_update, ub_update):
    """One coupled step from (w, w_bar, owned) by the forms above,
    selecting by np.where, with one-call updates into fresh arrays."""
    w, w_bar, owned = prev
    sigma = classify_reference(w, dx, params)
    act = active_cells(sigma)
    source = np.where(owned, w_bar, project_to_cells(w))
    # with no active cell, every node is regular and the cells stay as sourced
    new_bar = ub_update(source) if act.any() else source
    new_w_nodes = sl_update(w)
    w_next = np.where(sigma == 1, new_w_nodes, old_project_to_nodes(new_bar))
    return SimpleNamespace(
        w=w_next,
        w_bar=new_bar,
        owned=act,
        sigma=sigma,
        fresh_cell_count=int(np.count_nonzero(act & ~owned)),
        node_candidate=new_w_nodes,
        cell_source=source,
    )


def fresh_coupled_step(prev, dx, params, node_update, cell_update):
    """One `coupled_step` from the level `prev` = (w, w_bar, owned), as a
    run calls it: on the state `coupled_states` builds for six fresh
    blocks of two rows in the field order of `CoupledState`, `prev` in
    row 0 of the first three, with an `_indicator` built for n, dx and
    `params`."""
    n = np.size(prev[0])
    blocks = (np.empty((2, n)), np.empty((2, n - 1)), np.empty((2, n - 1), bool),
              np.empty((2, n), np.int8), np.empty((2, n)), np.empty((2, n - 1)))
    for block, level in zip(blocks, prev):
        block[0] = level
    (state,) = coupled_states(*blocks)
    return coupled_step(state, node_update, cell_update, _indicator(n, dx, params))


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


# ---------------------------------------------------------------------------
# the earlier forms of the diagnostics a run ends with


def old_tv_monitor(tv_values, allowance: float) -> tuple:
    """`tv_monitor` by numpy's functions: (values, envelope, flags)."""
    tv = np.asarray(tv_values, dtype=float)
    envelope = np.repeat(tv[:1], tv.size)  # [0] is TV(w0): inf * 0 would be NaN
    envelope[1:] += allowance * np.arange(1, tv.size)
    flags = np.zeros(tv.size, dtype=bool)
    flags[1:] = ~(np.diff(tv) <= allowance + 1e-12 * (1.0 + np.abs(tv[:-1])))
    return tv, envelope, flags


def old_error_norms(numeric, exact, dx: float, x, singular_points) -> tuple:
    """`error_norms` by numpy's functions, with a loop over the singular
    points: (l1, l2, linf, linf_reg)."""
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
    return l1, l2, linf, linf_reg
