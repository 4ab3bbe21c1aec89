"""Experiment drivers: presets to grids, time ladders, runs, tables.

Every registered problem fixes a target Courant number, a horizon, and
a grid ladder.  The time step is derived from the grid (dt0 =
nu*dx/speed_scale, then rounded down so the horizon is an exact
multiple), which is what keeps refinement ladders at constant nu.
Drivers return a RunResult bundling the final field, error norms, the
TV trace, and stability-witness extrema; the coupled driver also keeps
the full indicator history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grids import (
    Alignment,
    Grid1D,
    build_grid,
    check_cfl,
    init_cell_averages,
    init_point_values,
)
from .problems import ProblemSpec, get_problem, singular_points
from .semi_lagrangian import advect_const_values, hj_update_values
from .ultrabee import ub_step_values
from .coupled import (
    CoupledState,
    RegularityParams,
    coupled_step,
    init_coupled_state,
)
from .diagnostics import (
    ErrorReport,
    TVSeries,
    convergence_orders,
    error_norms,
    stability_witness,
    three_point_witness,
    total_variation,
    tv_monitor,
    tvb_allowance,
)

__all__ = [
    "SCHEMES",
    "LADDER_PRESETS",
    "MAX_STEPS",
    "resolve_grid",
    "time_ladder",
    "resolve_regularity",
    "StepOperators",
    "make_operators",
    "RunResult",
    "run_scheme",
    "ConvergenceRow",
    "ConvergenceTable",
    "convergence_table",
]

SCHEMES = ("sl", "ub", "coupled")

# named grid ladders matching the benchmark write-ups
LADDER_PRESETS = {
    "ex1": (19, 39, 79, 159, 319, 639),
    "ex2": (100, 200, 400, 800, 1600),
    "ex3": (19, 39, 79, 159, 319, 639),
    "ex4": (19, 39, 79, 159, 319, 639),
}

# Largest step count a run may take; a tinier nu or a longer horizon is
# rejected by `time_ladder` instead of looping for ever.
MAX_STEPS = 10_000_000

_SUPPORT_PAD = 0.5


def _support_bounds(ic: Callable, a: float, b: float) -> tuple[float, float]:
    xs = np.linspace(a, b, 20001)
    nz = np.flatnonzero(np.abs(np.asarray(ic(xs), dtype=float)) > 0.0)
    if nz.size == 0:
        return a, a
    return float(xs[nz[0]]), float(xs[nz[-1]])


def resolve_grid(problem: ProblemSpec, m: int) -> Grid1D:
    """Grid for a ladder entry, extended downstream when the transported
    support would leave the stated window.

    Extension keeps dx and adds whole cells past the final support
    (plus a smearing margin), so ladder spacings stay comparable across
    problems with and without extension.
    """
    if m < 3:
        raise ValueError(f"need m >= 3 cells, got {m}")
    a, b = problem.a, problem.b
    dx = (b - a) / m
    if not problem.extend_support or problem.kind != "advection-const":
        return build_grid(a, b, m)
    shift = problem.c * problem.T
    if shift == 0.0:
        return build_grid(a, b, m)
    lo, hi = _support_bounds(problem.ic, a, b)
    if shift > 0:
        needed = hi + shift + _SUPPORT_PAD - b
        extra = max(0, math.ceil(needed / dx - 1e-12))
        return build_grid(a, b + extra * dx, m + extra)
    needed = a - (lo + shift - _SUPPORT_PAD)
    extra = max(0, math.ceil(needed / dx - 1e-12))
    return build_grid(a - extra * dx, b, m + extra)


def time_ladder(problem: ProblemSpec, m: int) -> tuple[float, int]:
    """(dt, n_steps) for a ladder entry.

    dt0 = nu*dx/speed_scale, shrunk to dt = T/n with
    n = ceil(T/dt0) so the run lands exactly on the horizon.

    Raises
    ------
    ValueError
        If nu is outside (0, 1], T is not finite and positive, or the
        run would take more than MAX_STEPS steps.
    """
    if not (0.0 < problem.nu <= 1.0):
        raise ValueError(f"nu must lie in (0, 1], got {problem.nu}")
    if not (math.isfinite(problem.T) and problem.T > 0.0):
        raise ValueError(f"T must be finite and positive, got {problem.T}")
    dx = (problem.b - problem.a) / m
    dt0 = problem.nu * dx / problem.speed_scale
    steps = problem.T / dt0 if dt0 > 0.0 else math.inf
    if steps - 1e-12 > MAX_STEPS:
        raise ValueError(
            f"the run would take {steps:.4g} steps, more than MAX_STEPS = {MAX_STEPS}"
        )
    n = max(1, math.ceil(steps - 1e-12))
    return problem.T / n, n


def resolve_regularity(
    problem: ProblemSpec,
    w0: np.ndarray,
    dx: float,
    delta: Optional[float] = None,
    epsilon: Optional[float] = None,
    guard: Optional[int] = None,
) -> RegularityParams:
    """Indicator thresholds for a run; absolute overrides win over the
    preset factors (which scale with the largest initial slope)."""
    scale = float(np.max(np.abs(np.diff(np.asarray(w0, dtype=float))))) / dx
    scale = max(scale, 1e-300)
    return RegularityParams(
        delta=scale * problem.delta_factor if delta is None else float(delta),
        flat_tol=scale * problem.flat_frac if epsilon is None else float(epsilon),
        guard=problem.guard if guard is None else int(guard),
    )


@dataclass(frozen=True)
class StepOperators:
    """One problem discretized on one grid: the per-step update maps.

    node_update/cell_update act on raw arrays (node values / cell
    averages).  nu_node/nu_cell carry the signed Courant numbers used
    by the stability witness: one scalar when the velocity is uniform,
    else one value per node / cell (None for two-sided updates).
    two_sided marks updates that draw on both neighbors (then the
    witness brackets three points).
    """

    node_update: Callable[[np.ndarray], np.ndarray]
    cell_update: Callable[[np.ndarray], np.ndarray]
    nu_node: Union[float, np.ndarray, None]
    nu_cell: Union[float, np.ndarray, None]
    two_sided: bool


def make_operators(problem: ProblemSpec, grid: Grid1D, dt: float) -> StepOperators:
    """Per-step update maps for `problem` on `grid` with step `dt`.

    Raises
    ------
    ValueError
        On a CFL violation, or an unknown problem kind.
    """
    dx = grid.dx
    if problem.kind == "advection-const":
        nu = float(problem.c) * dt / dx
        check_cfl(nu)
        return StepOperators(
            node_update=lambda v: advect_const_values(v, nu),
            cell_update=lambda v: ub_step_values(v, nu),
            nu_node=nu,
            nu_cell=nu,
            two_sided=False,
        )
    if problem.kind == "advection-var":
        nodes = grid.nodes
        speeds = problem.velocity_values(nodes)
        nu_node = speeds * dt / dx
        check_cfl(nu_node)
        feet = nodes - speeds * dt
        nu_cell = nu_node[:-1]  # cell k inherits its left node
        return StepOperators(
            node_update=lambda v: np.interp(feet, nodes, v),
            cell_update=lambda v: ub_step_values(v, nu_cell),
            nu_node=nu_node,
            nu_cell=nu_cell,
            two_sided=False,
        )
    if problem.kind == "hj":
        f_lo, f_hi = float(problem.f_min), float(problem.f_max)
        nu_lo = f_lo * dt / dx
        nu_hi = f_hi * dt / dx
        check_cfl([nu_lo, nu_hi])
        nodes = grid.nodes
        return StepOperators(
            node_update=lambda v: hj_update_values(v, nodes, f_lo, f_hi, dt),
            cell_update=lambda v: np.minimum(
                ub_step_values(v, nu_lo), ub_step_values(v, nu_hi)
            ),
            nu_node=None,
            nu_cell=None,
            two_sided=True,
        )
    raise ValueError(f"unknown problem kind {problem.kind!r}")


@dataclass(frozen=True)
class RunResult:
    """Everything observable about one finished run."""

    problem: ProblemSpec
    scheme: str
    grid: Grid1D
    dt: float
    n_steps: int
    alignment: Alignment
    values: np.ndarray
    errors: ErrorReport
    tv: TVSeries
    witness_max: float
    snapshots: dict
    sigma_history: Optional[np.ndarray] = None
    params: Optional[RegularityParams] = None

    @property
    def x(self) -> np.ndarray:
        return self.grid.coords(self.alignment)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


def _witness(old, new, nus, two_sided: bool) -> float:
    if two_sided:
        return three_point_witness(old, new).max_violation
    return stability_witness(old, new, nus).max_violation


def _raise_non_finite(v: np.ndarray, tv: float, k: int, alignment: Alignment) -> None:
    bad = np.flatnonzero(~np.isfinite(v))
    where = (f"first non-finite value at {alignment.value} {bad[0]}" if bad.size
             else "the values are finite but their variation overflows")
    raise ValueError(f"non-finite total variation {tv} at step {k}: {where}")


def run_scheme(
    problem,
    scheme: str,
    m: int,
    *,
    delta: Optional[float] = None,
    epsilon: Optional[float] = None,
    guard: Optional[int] = None,
    snapshot_steps: Sequence[int] = (),
) -> RunResult:
    """Run one scheme on one ladder entry and collect diagnostics.

    `problem` is a registry name or a ProblemSpec.  `delta`/`epsilon`
    override the indicator thresholds (absolute slope units); `guard`
    overrides the detection-window dilation.  Snapshots of the evolving
    field are kept at the requested step indices (0 = initial data).

    Raises
    ------
    ValueError
        On a bad ladder entry (see `time_ladder`), or at the first step
        whose total variation is not finite, naming that step and the
        first non-finite node or cell.
    """
    if isinstance(problem, str):
        problem = get_problem(problem)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    snapshot_steps = tuple(int(k) for k in snapshot_steps)
    for k in snapshot_steps:
        if not (0 <= k <= n_steps):
            raise ValueError(f"snapshot step {k} outside [0, {n_steps}]")
    ops = make_operators(problem, grid, dt)

    params = sigma_rows = None
    allowance = 0.0
    if scheme == "coupled":
        w0 = init_point_values(grid, problem.ic).values
        params = resolve_regularity(problem, w0, grid.dx, delta, epsilon, guard)
        state = init_coupled_state(w0, grid.dx, params)
        v, alignment = state.w, Alignment.NODE
        sigma_rows = [state.sigma]
        allowance = tvb_allowance(params, grid)

        def advance(s):
            out = coupled_step(s, grid.dx, params, ops.node_update, ops.cell_update)
            sigma_rows.append(out.sigma)
            return out, out.w, (
                _witness(s.w, out.node_candidate, ops.nu_node, ops.two_sided),
                _witness(out.cell_source, out.w_bar, ops.nu_cell, ops.two_sided),
            )
    else:
        if scheme == "sl":
            v = init_point_values(grid, problem.ic).values
            update, nus, alignment = ops.node_update, ops.nu_node, Alignment.NODE
        else:
            v = init_cell_averages(grid, problem.ic).values
            update, nus, alignment = ops.cell_update, ops.nu_cell, Alignment.CELL
        state = v

        def advance(old):
            new = update(old)
            return new, new, (_witness(old, new, nus, ops.two_sided),)

    witness_max = 0.0
    tv_vals = [total_variation(v)]
    snapshots = {0: v.copy()} if 0 in snapshot_steps else {}
    for k in range(1, n_steps + 1):
        state, v, witnesses = advance(state)
        witness_max = max(witness_max, *witnesses)
        tv = total_variation(v)
        if not math.isfinite(tv):
            _raise_non_finite(v, tv, k, alignment)
        tv_vals.append(tv)
        if k in snapshot_steps:
            snapshots[k] = v.copy()
    final = v
    sigma_history = None if sigma_rows is None else np.vstack(sigma_rows)

    t_final = dt * n_steps
    if alignment is Alignment.NODE:
        exact = np.asarray(problem.exact(grid.nodes, t_final), dtype=float)
    else:
        prim = np.asarray(problem.exact_antiderivative(grid.nodes, t_final), dtype=float)
        exact = np.diff(prim) / grid.dx
    sing = singular_points(problem, t_final)
    errors = error_norms(
        final,
        exact,
        grid.dx,
        x=grid.coords(alignment),
        singular_points=sing if sing.size else None,
    )
    tv = tv_monitor(tv_vals, allowance)
    return RunResult(
        problem=problem,
        scheme=scheme,
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        alignment=alignment,
        values=final,
        errors=errors,
        tv=tv,
        witness_max=witness_max,
        snapshots=snapshots,
        sigma_history=sigma_history,
        params=params,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    dx: float
    dt: float
    n_steps: int
    l1: float
    l2: float
    linf: float
    linf_reg: Optional[float] = None


@dataclass(frozen=True)
class ConvergenceTable:
    """Refinement study of one scheme on one problem."""

    problem_name: str
    scheme: str
    rows: tuple
    has_reg_column: bool

    def errors(self, norm: str = "l1") -> np.ndarray:
        return np.array([getattr(r, norm) for r in self.rows], dtype=float)

    def orders(self, norm: str = "l1") -> np.ndarray:
        return convergence_orders(self.errors(norm), [r.dx for r in self.rows])

    def format_text(self) -> str:
        headers = ["m", "dt", "dx", "l1", "l2", "linf"]
        if self.has_reg_column:
            headers.append("linf_reg")
        with_orders = len(self.rows) > 1
        if with_orders:
            headers.append("l1_order")
        ords = self.orders("l1") if with_orders else ()
        lines = []
        for i, r in enumerate(self.rows):
            cells = [f"{r.m:d}", f"{r.dt:.6f}", f"{r.dx:.6f}",
                     f"{r.l1:.2E}", f"{r.l2:.2E}", f"{r.linf:.2E}"]
            if self.has_reg_column:
                cells.append(f"{r.linf_reg:.2E}")
            if with_orders:
                cells.append("" if i == 0 else f"{ords[i - 1]:.2f}")
            lines.append(cells)
        widths = [max(len(h), *(len(row[j]) for row in lines))
                  for j, h in enumerate(headers)]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        out = [fmt.format(*headers)]
        out += [fmt.format(*row) for row in lines]
        return "\n".join(out)


def convergence_table(
    problem,
    scheme: str,
    ms: Optional[Sequence[int]] = None,
    **run_kwargs,
) -> ConvergenceTable:
    """Run a refinement ladder and collect error rows plus orders."""
    if isinstance(problem, str):
        problem = get_problem(problem)
    ladder = tuple(problem.m_ladder if ms is None else ms)
    if not ladder:
        raise ValueError("empty refinement ladder")
    has_reg = singular_points(problem, problem.T).size > 0
    rows = []
    for m in ladder:
        res = run_scheme(problem, scheme, int(m), **run_kwargs)
        rows.append(
            ConvergenceRow(
                m=int(m),
                dx=res.grid.dx,
                dt=res.dt,
                n_steps=res.n_steps,
                l1=res.errors.l1,
                l2=res.errors.l2,
                linf=res.errors.linf,
                linf_reg=res.errors.linf_reg if has_reg else None,
            )
        )
    return ConvergenceTable(
        problem_name=problem.name,
        scheme=scheme,
        rows=tuple(rows),
        has_reg_column=has_reg,
    )
