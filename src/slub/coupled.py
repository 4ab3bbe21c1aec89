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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import edge_pad

__all__ = [
    "RegularityParams",
    "backward_slopes",
    "classify_regularity",
    "active_cells",
    "project_to_cells",
    "project_to_nodes",
    "CoupledState",
    "init_coupled_state",
    "coupled_step",
]


@dataclass(frozen=True)
class RegularityParams:
    """Thresholds for the per-node regularity indicator.

    delta      upper bound on |backward slope| at a regular node;
               0 marks every node irregular, +inf none (by magnitude)
    flat_tol   slopes at or below this count as flat; a pair of flat
               slopes is sign-compatible regardless of signs
    guard      irregular flags are dilated by this many nodes, widening
               the anti-dissipative window around each detection

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
        if self.guard < 0:
            raise ValueError(f"need guard >= 0, got {self.guard}")


def backward_slopes(values: np.ndarray, dx: float) -> np.ndarray:
    """Backward divided differences with zero ghosts.

    Entry j is (v_j - v_{j-1})/dx; entries 0 and n (one past the end)
    are the flat ghost slopes used at the boundary.
    """
    v = np.asarray(values, dtype=float)
    s = np.empty(v.size + 1)
    s[0] = s[-1] = 0.0
    np.subtract(v[1:], v[:-1], out=s[1:-1])
    s[1:-1] /= dx
    return s


def classify_regularity(
    values: np.ndarray, dx: float, params: RegularityParams
) -> np.ndarray:
    """Per-node indicator (int8): 1 where the profile is locally regular.

    Node j is regular when its backward slope is below delta in
    magnitude and both neighbouring slope pairs are sign-compatible.
    A pair is compatible when the slopes strictly share a sign or both
    are flat (magnitude <= flat_tol).  Requiring both keeps a large
    slope next to an exactly flat one incompatible, which is what flags
    a kink sitting inside a cell: its straddling slope vanishes while
    the flanks stay steep.  A guard g > 0 marks irregular every node
    within g of an irregular one, by 2*g shifted in-place ANDs.
    """
    s = backward_slopes(values, dx)
    mag = np.abs(s)
    flat = mag <= params.flat_tol
    # pair k couples slopes s_k and s_{k+1}; node j needs pairs j-1, j
    compat = flat[:-1] & flat[1:]
    compat |= s[:-1] * s[1:] > 0.0
    sigma = mag[:-1] < params.delta
    sigma &= compat
    sigma[1:] &= compat[:-1]
    if params.guard > 0 and not sigma.all():
        regular = sigma.copy()
        for k in range(1, params.guard + 1):
            sigma[k:] &= regular[:-k]
            sigma[:-k] &= regular[k:]
    return sigma.view(np.int8)


def active_cells(sigma: np.ndarray) -> np.ndarray:
    """Cells adjacent to at least one irregular node: cell k lies
    between nodes k and k+1, so it is active unless both are regular."""
    regular = np.asarray(sigma) != 0
    return ~(regular[:-1] & regular[1:])


def project_to_cells(node_values: np.ndarray) -> np.ndarray:
    """Trapezoidal cell averages of a node profile."""
    v = np.asarray(node_values, dtype=float)
    return 0.5 * (v[:-1] + v[1:])


def project_to_nodes(cell_values: np.ndarray) -> np.ndarray:
    """Node values as means of the two adjacent cell averages."""
    c = np.asarray(cell_values, dtype=float)
    p = edge_pad(c, 1)
    return 0.5 * (p[:-1] + p[1:])


@dataclass(frozen=True)
class CoupledState:
    """One time level of the coupled scheme.

    w           node values (the solution)
    w_bar       cell averages; trusted only where `owned` is True
    owned       cells whose averages were evolved, not re-projected
    sigma       indicator used for the step that produced this state
    sigma_prev  indicator of the previous step (sigma at n = 0)
    step_index  number of steps taken
    fresh_cell_count  cells that entered the anti-dissipative region
                      this step (their averages came from projection)
    node_candidate    node-scheme update of the previous w, over every
                      node (w keeps it where sigma is 1)
    cell_source       cell averages the cell update started from: the
                      previous w_bar where owned, else projected nodes

    The last two are None on a state no step produced; the run loop
    feeds them to the stability witnesses instead of recomputing them.
    """

    w: np.ndarray
    w_bar: np.ndarray
    owned: np.ndarray
    sigma: np.ndarray
    sigma_prev: np.ndarray
    step_index: int = 0
    fresh_cell_count: int = 0
    node_candidate: Optional[np.ndarray] = None
    cell_source: Optional[np.ndarray] = None


def init_coupled_state(values: np.ndarray, dx: float, params: RegularityParams) -> CoupledState:
    """Initial state from node values; averages start as projections."""
    w = np.asarray(values, dtype=float).copy()
    sigma = classify_regularity(w, dx, params)
    return CoupledState(
        w=w,
        w_bar=project_to_cells(w),
        owned=np.zeros(w.size - 1, dtype=bool),
        sigma=sigma,
        sigma_prev=sigma.copy(),
    )


def coupled_step(
    state: CoupledState,
    dx: float,
    params: RegularityParams,
    sl_update: Callable[[np.ndarray], np.ndarray],
    ub_update: Callable[[np.ndarray], np.ndarray],
) -> CoupledState:
    """Advance one step, re-deciding the split from the current profile.

    sl_update maps node values to node values; ub_update maps cell
    averages to cell averages.  Both are applied to full arrays, so a
    run with sigma identically 1 reproduces the node scheme bit for
    bit, and one with sigma identically 0 reproduces the cell scheme.
    """
    sigma = classify_regularity(state.w, dx, params)
    act = active_cells(sigma)

    source = np.where(state.owned, state.w_bar, project_to_cells(state.w))
    new_bar = ub_update(source)
    new_w_nodes = sl_update(state.w)

    fill = project_to_nodes(new_bar)
    w_next = np.where(sigma == 1, new_w_nodes, fill)

    fresh = int(np.count_nonzero(act & ~state.owned))
    return CoupledState(
        w=w_next,
        w_bar=new_bar,
        owned=act,
        sigma=sigma,
        sigma_prev=state.sigma,
        step_index=state.step_index + 1,
        fresh_cell_count=fresh,
        node_candidate=new_w_nodes,
        cell_source=source,
    )
