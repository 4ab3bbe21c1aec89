"""Coupling of the interpolation scheme with the anti-dissipative one.

A per-node indicator splits the grid each step: nodes where the
discrete profile looks regular keep the semi-Lagrangian update, while
cells next to irregular nodes (kinks, jumps) evolve as cell averages
under the anti-dissipative update and are projected back afterwards.
Cell averages are carried between steps wherever the cell stays in the
anti-dissipative region, so sharp fronts are not re-projected (and
re-smeared) every step.

`coupled_step` runs each of its operations once, on the views of the
`CoupledState` a run builds: the indicator `indicate` that `_indicator`
prepares once per run for its grid and thresholds, the active cells,
the trapezoid projection to cells and the node projection.
`classify_regularity` runs the same body on one node profile, and
`project_to_nodes` is the node projection on its own.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RegularityParams",
    "classify_regularity",
    "project_to_nodes",
    "CoupledState",
    "coupled_step",
]

_add, _subtract, _multiply, _divide, _absolute, _sign = (
    np.add, np.subtract, np.multiply, np.divide, np.absolute, np.sign)
_less, _less_equal, _equal, _bitwise_and, _bitwise_or = (
    np.less, np.less_equal, np.equal, np.bitwise_and, np.bitwise_or)
_logical_and, _logical_not, _copyto, _count_nonzero = (
    np.logical_and, np.logical_not, np.copyto, np.count_nonzero)
_HALF = np.array(0.5)  # the 0-d operand of the means in `coupled_step`


@dataclass(frozen=True)
class RegularityParams:
    """Thresholds for the per-node regularity indicator.

    delta      upper bound on |backward slope| at a regular node;
               0 marks every node irregular, +inf none (by magnitude)
    flat_tol   slopes at or below this count as flat; a pair of flat
               slopes is sign-compatible regardless of signs
    guard      irregular flags are dilated by this many nodes (an
               integer), widening the anti-dissipative window around
               each detection

    Runs take their thresholds from `slub.harness.resolve_regularity`,
    which scales the problem presets by the largest initial slope.
    """

    delta: float
    flat_tol: float
    guard: int = 0

    def __post_init__(self) -> None:
        if not (self.delta >= 0):
            raise ValueError(f"need delta >= 0, got {self.delta}")
        if not (self.flat_tol >= 0):
            raise ValueError(f"need flat_tol >= 0, got {self.flat_tol}")
        if not isinstance(self.guard, numbers.Integral) or self.guard < 0:
            raise ValueError(f"need an integer guard >= 0, got {self.guard!r}")


def _indicator(n: int, dx: float, params: RegularityParams):
    """The indicator's one body, prepared for n nodes at spacing dx and
    `params`, with its scratch built here: the backward slopes (entries 0
    and n the zero ghost slopes), their magnitudes, the flat and
    sign-compatible flags and the guard's padded windows.  Returns
    indicate(hi, lo, dest), which writes the backward slopes (hi - lo)/dx
    of the nodes, hi = v[1:] and lo = v[:-1], between the ghosts, then
    their regular flags (bool) into `dest` (fresh when None) and returns
    them; it is not thread-safe."""
    guard = params.guard
    dx, delta, flat_tol = (np.array(float(x)) for x in (dx, params.delta, params.flat_tol))
    s, mag = np.zeros((2, n + 1))
    flat, pairs = np.ones((2, n + 1), bool)  # pairs[0]: node 0 has no left pair
    lt, eq = np.empty((2, n), bool)
    padded = np.ones(n + 2 * guard, bool)  # guard True ghosts at each end
    windows = np.ndarray((2 * guard + 1, n), bool, padded, strides=(1, 1))  # row k: padded[k:k + n]
    inner, s_head, s_tail, mag_head, flat_head, flat_tail = (
        s[1:-1], s[:-1], s[1:], mag[:-1], flat[:-1], flat[1:])
    compat, left, mid = pairs[1:], pairs[:-1], padded[guard:guard + n]

    def indicate(hi, lo, dest):
        _subtract(hi, lo, out=inner)
        _divide(inner, dx, out=inner)
        _absolute(s, out=mag)
        _less_equal(mag, flat_tol, out=flat)
        _less(mag_head, delta, out=lt)
        # pair k couples slopes s_k and s_{k+1}; node j needs pairs j-1, j
        _bitwise_and(flat_head, flat_tail, out=compat)
        # equal signs: both strictly one sign, or both 0 and so already flat
        _sign(s, out=s)
        _bitwise_or(compat, _equal(s_head, s_tail, out=eq), out=compat)
        _bitwise_and(lt, compat, out=lt)
        flags = _bitwise_and(lt, left, out=mid if guard else dest)
        if guard:
            flags = _logical_and.reduce(windows, axis=0, out=dest)
        return flags

    return indicate


def classify_regularity(values: np.ndarray, dx: float, params: RegularityParams) -> np.ndarray:
    """Per-node indicator (int8): 1 where the profile is locally regular.

    Node j is regular when its backward slope is below delta in
    magnitude and both neighbouring slope pairs are sign-compatible.
    A pair is compatible when the slopes strictly share a sign or both
    are flat (magnitude <= flat_tol).  Requiring both keeps a large
    slope next to an exactly flat one incompatible, which is what flags
    a kink sitting inside a cell: its straddling slope vanishes while
    the flanks stay steep.  Signs are compared by `np.sign`, which,
    unlike a product of slopes, no magnitude underflows.  A guard g > 0
    marks irregular every node within g of an irregular one: one AND
    over the 2g + 1 shifted windows.  The flags are computed into a
    fresh array by an `_indicator` built for this call, the coupled
    step's own body.
    """
    v = np.asarray(values, dtype=float)
    return _indicator(v.size, dx, params)(v[1:], v[:-1], None).view(np.int8)


def project_to_nodes(cell_values: np.ndarray) -> np.ndarray:
    """Node values as means of the two adjacent cell averages (an end
    node's ghost cell continues its one cell), summed and halved in place
    in a fresh array."""
    c = np.asarray(cell_values, dtype=float)
    out = np.empty(c.size + 1)
    np.add(c[:-1], c[1:], out=out[1:-1])
    out[0] = c[0] + c[0]
    out[-1] = c[-1] + c[-1]
    out *= 0.5
    return out


class CoupledState:
    """One step of the coupled scheme from the level `prev` = (w, w_bar,
    owned) into the six arrays of `out`, the level it writes:

    w           node values (the solution)
    w_bar       cell averages; trusted only where `owned` is True, and
                the cell source itself after a step with no active cell
    owned       cells whose averages were evolved, not re-projected
    sigma       indicator used for the step that produced this state
    node_candidate    node-scheme update of the previous w (w keeps it
                      where sigma is 1)
    cell_source       the previous w_bar where owned, else projected nodes

    `views` adds `prev` and every shifted view the step reads.  The cells
    that entered the anti-dissipative region in the step are counted
    when `fresh_cell_count` is read.
    """

    __slots__ = ("w", "w_bar", "owned", "sigma", "node_candidate", "cell_source", "views")

    def __init__(self, prev: tuple, out: tuple) -> None:
        prev_w, prev_bar, prev_owned = prev
        w, bar, act, sigma, cand, source = out
        self.w, self.w_bar, self.owned, self.sigma, self.node_candidate, self.cell_source = out
        regular = sigma.view(bool)
        # the end entries of w and of bar (one cell's one entry broadcasts)
        ends = w[::max(w.size - 1, 1)], bar[::max(bar.size - 1, 1)]
        self.views = (prev_w, prev_w[1:], prev_w[:-1], prev_bar, prev_owned, w, w[1:-1], *ends,
                      bar, bar[:-1], bar[1:], act, regular, regular[:-1], regular[1:], cand, source)

    @property
    def fresh_cell_count(self) -> int:
        return int(np.count_nonzero(self.owned > self.views[4]))


def coupled_step(
    state: CoupledState,
    node_update: Callable[..., np.ndarray],
    cell_update: Callable[..., np.ndarray],
    indicate: Callable[..., np.ndarray],
) -> CoupledState:
    """Advance one step, re-deciding the split from the current profile.

    `state` is the `CoupledState(prev, out)` a run builds once: the step
    reads its level `prev` = (w, w_bar, owned), writes no input, writes
    the six arrays of `out` and returns `state`.  node_update and
    cell_update are steppers update(v, out=...) on full arrays, so sigma
    identically 1 reproduces the node scheme bit for bit, and 0 the cell
    scheme.  The cell source and the new nodes are picked by `np.copyto`
    masks (w_bar where owned, the node update where sigma is 1).  A step
    with no active cell runs neither cell_update nor the node projection,
    so it warns of no error in cells no node reads.  `indicate` is the
    `_indicator` a run builds once for its grid and thresholds.
    """
    (prev_w, w_hi, w_lo, prev_bar, prev_owned, w, w_inner, w_ends, bar_ends, bar, bar_lo,
     bar_hi, act, regular, reg_lo, reg_hi, cand, source) = state.views
    indicate(w_hi, w_lo, regular)
    _logical_and(reg_lo, reg_hi, out=act)  # the active cells: not both nodes regular
    _logical_not(act, out=act)
    _add(w_lo, w_hi, out=source)  # the trapezoid projection to cells
    _multiply(source, _HALF, out=source)
    _copyto(source, prev_bar, where=prev_owned)
    evolve = _count_nonzero(act) > 0
    if evolve:
        cell_update(source, out=bar)
    node_update(prev_w, out=cand)
    if evolve:  # project the cells to the nodes, the ends from their own cell
        _add(bar_lo, bar_hi, out=w_inner)
        _add(bar_ends, bar_ends, out=w_ends)
        _multiply(w, _HALF, out=w)
        _copyto(w, cand, where=regular)
    else:  # every node regular: the masked copy would take every node
        bar[...] = source
        w[...] = cand
    return state
