"""Coupling of the interpolation scheme with the anti-dissipative one.

A per-node indicator splits the grid each step: nodes where the
discrete profile looks regular keep the semi-Lagrangian update, while
cells next to irregular nodes (kinks, jumps) evolve as cell averages
under the anti-dissipative update and are projected back afterwards.
Cell averages are carried between steps wherever the cell stays in the
anti-dissipative region, so sharp fronts are not re-projected (and
re-smeared) every step.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "RegularityParams",
    "backward_slopes",
    "classify_regularity",
    "active_cells",
    "project_to_cells",
    "project_to_nodes",
    "CoupledState",
    "coupled_step",
]


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


def backward_slopes(values: np.ndarray, dx: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Backward divided differences with zero ghosts.

    Entry j is (v_j - v_{j-1})/dx; entries 0 and n (one past the end)
    are the flat ghost slopes used at the boundary, already held by
    `out` (fresh when None).
    """
    v = np.asarray(values, dtype=float)
    s = np.zeros(v.size + 1) if out is None else out
    np.subtract(v[1:], v[:-1], out=s[1:-1])
    s[1:-1] /= dx
    return s


def _regularity_workspace(n: int, guard: int) -> tuple:
    """The scratch arrays of `classify_regularity` on n values at `guard`
    and every view of them it reads, for a run to build once."""
    s, mag = np.zeros((2, n + 1))
    flat, pairs = np.ones((2, n + 1), bool)  # pairs[0]: node 0 has no left pair
    lt, eq = np.empty((2, n), bool)
    padded = np.ones(n + 2 * guard, bool)  # guard True ghosts at each end
    windows = np.ndarray((2 * guard + 1, n), bool, padded, strides=(1, 1))  # row k: padded[k:k + n]
    return (guard, s, s[1:-1], mag, mag[:-1], flat, flat[:-1], flat[1:], s[:-1], s[1:], lt, eq,
            pairs[1:], pairs[:-1], padded[guard:guard + n], windows)


def _indicate(params, work, dest):
    """The indicator's one body: the regular flags (bool) of the backward
    slopes in work[1], into `dest` (fresh when None)."""
    (guard, s, inner, mag, mag_head, flat, flat_head, flat_tail, s_head, s_tail, lt, eq,
     compat, left, mid, windows) = work
    if guard != params.guard:
        raise ValueError(f"workspace built for guard {guard}, not {params.guard}")
    np.abs(s, out=mag)
    np.less_equal(mag, params.flat_tol, out=flat)
    np.less(mag_head, params.delta, out=lt)
    # pair k couples slopes s_k and s_{k+1}; node j needs pairs j-1, j
    np.bitwise_and(flat_head, flat_tail, out=compat)
    # equal signs: both strictly one sign, or both 0 and so already flat
    np.sign(s, out=s)
    compat |= np.equal(s_head, s_tail, out=eq)
    np.bitwise_and(lt, compat, out=lt)
    flags = np.bitwise_and(lt, left, out=mid if guard else dest)
    if guard:
        flags = np.logical_and.reduce(windows, axis=0, out=dest)
    return flags


def classify_regularity(values: np.ndarray, dx: float, params: RegularityParams,
                        out: Optional[np.ndarray] = None,
                        work: Optional[tuple] = None) -> np.ndarray:
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
    over the 2g + 1 shifted windows.  The flags go into `out` (int8,
    fresh when None), computed in `work`, the scratch a run builds once
    for its guard (so not thread-safe; built per call when None).
    """
    if work is None:
        work = _regularity_workspace(np.size(values), params.guard)
    backward_slopes(values, dx, out=work[1])
    return _indicate(params, work, None if out is None else out.view(bool)).view(np.int8)


def active_cells(sigma: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cells adjacent to at least one irregular node: cell k lies
    between nodes k and k+1, so it is active unless both are regular."""
    regular = np.asarray(sigma)
    out = np.logical_and(regular[:-1], regular[1:], out=out)
    return np.logical_not(out, out=out)


def project_to_cells(node_values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Trapezoidal cell averages of a node profile, into `out` (fresh
    when None)."""
    v = np.asarray(node_values, dtype=float)
    out = np.add(v[:-1], v[1:], out=out)
    out *= 0.5
    return out


def project_to_nodes(cell_values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Node values as means of the two adjacent cell averages (an end
    node's ghost cell continues its one cell), summed and halved in place
    in `out` (fresh when None)."""
    c = np.asarray(cell_values, dtype=float)
    out = np.empty(c.size + 1) if out is None else out
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
        prev_w = np.asarray(prev_w, dtype=float)
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
    prev: tuple,
    dx: float,
    params: RegularityParams,
    node_update: Callable[..., np.ndarray],
    cell_update: Callable[..., np.ndarray],
    out: tuple | CoupledState,
    indicator: Optional[tuple] = None,
) -> CoupledState:
    """Advance one step, re-deciding the split from the current profile.

    `prev` = (w, w_bar, owned) is the level the step reads (no input is
    written); `out` is the six arrays it writes, in `CoupledState` field
    order, or the `CoupledState(prev, out)` a run builds once; the step
    returns that state.  node_update and cell_update are steppers
    update(v, out=...) on full arrays, so sigma identically 1 reproduces
    the node scheme bit for bit, and 0 the cell scheme.  The cell source
    and the new nodes are picked by `np.copyto` masks (w_bar where owned,
    the node update where sigma is 1).  A step with no active cell runs
    neither cell_update nor the node projection, so it warns of no error
    in cells no node reads.  `indicator` is the `_regularity_workspace` a
    run builds once (one per call when None).
    """
    state = out if type(out) is CoupledState else CoupledState(prev, out)
    (prev_w, w_hi, w_lo, prev_bar, prev_owned, w, w_inner, w_ends, bar_ends, bar, bar_lo,
     bar_hi, act, regular, reg_lo, reg_hi, cand, source) = state.views
    if indicator is None:
        indicator = _regularity_workspace(w.size, params.guard)
    slopes = indicator[2]
    np.subtract(w_hi, w_lo, out=slopes)
    slopes /= dx
    _indicate(params, indicator, regular)
    np.logical_and(reg_lo, reg_hi, out=act)
    np.logical_not(act, out=act)  # `active_cells`, then `project_to_cells`
    np.add(w_lo, w_hi, out=source)
    source *= 0.5
    np.copyto(source, prev_bar, where=prev_owned)
    evolve = np.count_nonzero(act) > 0
    if evolve:
        cell_update(source, out=bar)
    node_update(prev_w, out=cand)
    if evolve:  # project the cells to the nodes, the ends from their own cell
        np.add(bar_lo, bar_hi, out=w_inner)
        np.add(bar_ends, bar_ends, out=w_ends)
        w *= 0.5
        np.copyto(w, cand, where=regular)
    else:  # every node regular: the masked copy would take every node
        bar[...] = source
        w[...] = cand
    return state
