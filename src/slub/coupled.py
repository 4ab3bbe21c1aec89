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
    return (guard, s, mag, mag[:-1], flat, flat[:-1], flat[1:], s[:-1], s[1:], lt, eq,
            pairs[1:], pairs[:-1], padded[guard:guard + n], windows)


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
    (guard, s, mag, mag_head, flat, flat_head, flat_tail, s_head, s_tail, lt, eq,
     compat, left, mid, windows) = work
    if guard != params.guard:
        raise ValueError(f"workspace built for guard {guard}, not {params.guard}")
    backward_slopes(values, dx, out=s)
    np.abs(s, out=mag)
    np.less_equal(mag, params.flat_tol, out=flat)
    np.less(mag_head, params.delta, out=lt)
    # pair k couples slopes s_k and s_{k+1}; node j needs pairs j-1, j
    np.bitwise_and(flat_head, flat_tail, out=compat)
    # equal signs: both strictly one sign, or both 0 and so already flat
    np.sign(s, out=s)
    compat |= np.equal(s_head, s_tail, out=eq)
    np.bitwise_and(lt, compat, out=lt)
    dest = None if out is None else out.view(bool)
    flags = np.bitwise_and(lt, left, out=mid if guard else dest)
    if guard:
        flags = np.logical_and.reduce(windows, axis=0, out=dest)
    return flags.view(np.int8)


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


@dataclass(frozen=True)
class CoupledState:
    """One time level of the coupled scheme, as a step wrote it.

    w           node values (the solution)
    w_bar       cell averages; trusted only where `owned` is True, and
                the cell source itself after a step with no active cell
    owned       cells whose averages were evolved, not re-projected
    sigma       indicator used for the step that produced this state
    fresh_cell_count  cells that entered the anti-dissipative region
                      this step (their averages came from projection)
    node_candidate    node-scheme update of the previous w, over every
                      node (w keeps it where sigma is 1)
    cell_source       cell averages the cell update started from: the
                      previous w_bar where owned, else projected nodes

    Every array views the `out` of the step; in a run, a row of the
    run's blocks.
    """

    w: np.ndarray
    w_bar: np.ndarray
    owned: np.ndarray
    sigma: np.ndarray
    fresh_cell_count: int
    node_candidate: np.ndarray
    cell_source: np.ndarray


def coupled_step(
    prev: tuple,
    dx: float,
    params: RegularityParams,
    node_update: Callable[..., np.ndarray],
    cell_update: Callable[..., np.ndarray],
    out: tuple,
    indicator: Optional[tuple] = None,
) -> CoupledState:
    """Advance one step, re-deciding the split from the current profile.

    `prev` = (w, w_bar, owned) is the level the step reads (no input is
    written); `out` holds the six arrays, in `CoupledState` field order,
    that it writes and the returned state views (a run passes its block
    rows).  node_update and cell_update are steppers update(v, out=...)
    applied to full arrays, so sigma identically 1 reproduces the node
    scheme bit for bit, and 0 the cell scheme.  The cell source is w_bar
    where owned, else the projected nodes; the new nodes are the node
    update where sigma is 1, else the projected cells, each by an
    `np.copyto` mask.  A step with no active cell runs neither
    cell_update nor the node projection, so it warns of no floating-point
    error in cells that no node would read.  `indicator` is the
    `_regularity_workspace` a run builds once (one per call when None).
    """
    prev_w, prev_bar, prev_owned = prev
    w, bar, act, sigma, cand, source = out
    classify_regularity(prev_w, dx, params, out=sigma, work=indicator)
    regular = sigma.view(bool)
    active_cells(regular, out=act)
    project_to_cells(prev_w, out=source)
    np.copyto(source, prev_bar, where=prev_owned)
    evolve = np.count_nonzero(act) > 0
    if evolve:
        cell_update(source, out=bar)
    node_update(prev_w, out=cand)
    if evolve:
        project_to_nodes(bar, out=w)
        np.copyto(w, cand, where=regular)
    else:  # every node regular: the masked copy would take every node
        bar[...] = source
        w[...] = cand
    fresh = int(np.count_nonzero(act > prev_owned)) if evolve else 0
    return CoupledState(w, bar, act, sigma, fresh, cand, source)
