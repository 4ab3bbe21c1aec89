"""Experiment drivers: presets to grids, time ladders, runs, tables.

Every registered problem fixes a target Courant number, a horizon, and
a grid ladder.  The time step is derived from the grid (dt0 =
nu*dx/speed, see `time_ladder`, then rounded down so the horizon is an
exact multiple), which is what keeps refinement ladders at constant nu.
Drivers return a RunResult bundling the final field, error norms, the
TV trace, and the per-step stability witnesses; coupled runs also keep
the full indicator history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
from .semi_lagrangian import advect_const_stepper, hj_stepper
from .ultrabee import ub_min_stepper, ub_stepper
# unused here, but benchmarks/tests/test_bench.py asserts it is ultrabee's
from .ultrabee import ub_step_values
from .coupled import CoupledState, RegularityParams, coupled_step, _indicator
from .diagnostics import (
    ErrorReport,
    TVSeries,
    block_checker,
    convergence_orders,
    error_norms,
    total_variation,
    tv_monitor,
    tvb_allowance,
)

__all__ = [
    "SCHEMES",
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

# Largest step count a run may take; a tinier nu or a longer horizon is
# rejected by `time_ladder` instead of looping for ever.
MAX_STEPS = 10_000_000

# A run is checked in blocks of min(n_steps, max(4, _BLOCK_VALUES // n))
# steps of n values, which bounds each block array by 128 KiB for n <= 4096.
_BLOCK_VALUES = 16384

# Length an extended grid keeps past the transported support, for smearing.
_SUPPORT_PAD = 0.5

_interp = np.interp


def resolve_grid(problem: ProblemSpec, m: int) -> Grid1D:
    """Grid for a ladder entry, extended on each side that the
    transported support (`ProblemSpec.support_t0` at its foot at -T)
    would leave the stated window.

    Extension keeps dx and adds the whole cells that the final support,
    plus a smearing margin, needs on that side, so ladder spacings stay
    comparable across problems with and without extension.
    """
    grid = build_grid(problem.a, problem.b, m)
    if problem.support_t0 is None:  # set only on "advection-const" specs
        return grid
    a, b, dx = grid.a, grid.b, grid.dx
    lo, hi = (problem.foot(e, -problem.T) for e in problem.support_t0)
    right = max(0, math.ceil((hi + _SUPPORT_PAD - b) / dx - 1e-12))
    left = max(0, math.ceil((a - (lo - _SUPPORT_PAD)) / dx - 1e-12))
    return build_grid(a - left * dx, b + right * dx, m + left + right)


def time_ladder(problem: ProblemSpec, m: int) -> tuple[float, int]:
    """(dt, n_steps) for a ladder entry.

    dt0 = nu*dx/speed, with speed |c| (1 for "advection-var", the unit
    rate of -(x - x_bar)), shrunk to dt = T/n with n = ceil(T/dt0) so
    the run lands exactly on the horizon.  A spec at rest (c = 0) has no
    CFL bound and takes one step of length T.

    Raises
    ------
    ValueError
        If the grid is invalid (see `Grid1D`) or the run would take more
        than MAX_STEPS steps; `ProblemSpec` has checked nu and T.
    """
    dx = build_grid(problem.a, problem.b, m).dx  # rejects m < 3 and a >= b
    speed = 1.0 if problem.kind == "advection-var" else abs(problem.c)
    dt0 = problem.nu * dx / speed if speed > 0.0 else problem.T
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
) -> RegularityParams:
    """Indicator thresholds for a run; absolute overrides win over the
    preset factors (which scale with the largest initial slope).  The
    guard is the problem's."""
    scale = float(np.max(np.abs(np.diff(np.asarray(w0, dtype=float))))) / dx
    scale = max(scale, 1e-300)
    return RegularityParams(
        delta=scale * problem.delta_factor if delta is None else float(delta),
        flat_tol=scale * problem.flat_frac if epsilon is None else float(epsilon),
        guard=problem.guard,
    )


@dataclass(frozen=True, eq=False)
class StepOperators:
    """One problem discretized on one grid: the per-step update maps.

    node_update/cell_update are steppers on raw arrays (node values /
    cell averages), prepared once per run (the CFL check included; the
    cell stepper's workspace is sized to the grid's m cells):
    update(v, out=None) writes into `out`, which must not overlap `v`
    (a fresh array when None), returns it, and never writes into `v`.
    nu_node/nu_cell carry the signed Courant numbers of each layer's
    witness in `block_checker`: one scalar when the velocity is
    uniform, else one value per node / cell, or None for updates that
    draw on both neighbours (then the witness brackets three points).
    A dataclass so that wrappers can `replace` an update; no `__eq__`,
    since the per-node Courant arrays of adv-var have no truth value.
    """

    node_update: Callable[..., np.ndarray]
    cell_update: Callable[..., np.ndarray]
    nu_node: Union[float, np.ndarray, None]
    nu_cell: Union[float, np.ndarray, None]


def make_operators(problem: ProblemSpec, grid: Grid1D, dt: float) -> StepOperators:
    """Per-step update maps for `problem` on `grid` with step `dt`, one
    branch per kind (`ProblemSpec` checked the kind when it was built).

    Raises
    ------
    ValueError
        On a CFL violation.
    """
    dx = grid.dx
    if problem.kind == "advection-const":
        nu = float(problem.c) * dt / dx
        return StepOperators(
            node_update=advect_const_stepper(nu, grid.m + 1),
            cell_update=ub_stepper(nu, grid.m),
            nu_node=nu,
            nu_cell=nu,
        )
    if problem.kind == "advection-var":
        nodes = grid.nodes
        speeds = -(nodes - problem.x_bar)
        nu_node = speeds * dt / dx
        check_cfl(nu_node)
        feet = nodes - speeds * dt
        nu_cell = nu_node[:-1]  # cell k inherits its left node

        def node_update(v, out=None):
            new = _interp(feet, nodes, v)  # np.interp has no out=
            if out is None:
                return new
            out[...] = new
            return out

        return StepOperators(
            node_update=node_update,
            cell_update=ub_stepper(nu_cell, grid.m),
            nu_node=nu_node,
            nu_cell=nu_cell,
        )
    r = float(problem.c) * dt  # hj
    return StepOperators(
        node_update=hj_stepper(grid.nodes, r),
        cell_update=ub_min_stepper(r / dx, grid.m),
        nu_node=None,
        nu_cell=None,
    )


class RunResult(NamedTuple):
    """Everything observable about one finished run.

    witnesses[k-1] holds step k's `max_violation` of each checked layer:
    one column for sl and ub, node and cell columns for coupled.  For
    coupled, sigma_history[k] is the indicator step k switched on, that
    of the nodes of step k - 1; row 0, of the initial nodes, is row 1.
    params holds the indicator thresholds resolved from the initial node
    values for every scheme, though only coupled runs switch on them.
    """

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
    sigma_history: Optional[np.ndarray]
    params: RegularityParams
    witnesses: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.grid.coords(self.alignment)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


def _check_erosion_ic(ic, nodes: np.ndarray, values: np.ndarray) -> None:
    """Reject an hj `ic` its reference ic(|x| + r) does not cover: on the
    run's nodes it must be even and nonincreasing along sorted |x|."""
    odd = np.asarray(ic(-nodes), dtype=float) != values
    order = np.argsort(np.abs(nodes), kind="stable")
    rises = np.diff(values[order]) > 0.0
    if odd.any():
        j, need = int(np.argmax(odd)), "ic(-x) == ic(x)"
    elif rises.any():
        j, need = int(order[np.argmax(rises) + 1]), "ic nonincreasing in |x|"
    else:
        return
    raise ValueError(f"the hj reference ic(|x| + r) needs {need}; it fails "
                     f"at node {j} (x = {float(nodes[j])!r})")


def run_scheme(
    problem,
    scheme: str,
    m: int,
    *,
    delta: Optional[float] = None,
    epsilon: Optional[float] = None,
    snapshot_steps: Sequence[int] = (),
) -> RunResult:
    """Run one scheme on one ladder entry and collect diagnostics.

    `problem` is a registry name or a ProblemSpec.  `delta`/`epsilon`
    override the indicator thresholds (absolute slope units); the
    detection-window dilation is the problem's `guard`.  Snapshots of the
    evolving field are kept at the requested step indices (0 = initial
    data).

    The TV and the witnesses of a block of K = min(n_steps, max(4,
    16384 // n)) steps are checked at once (see `block_checker`), so a
    bad step may surface up to K - 1 steps after it was taken; the error still names
    it, and the steps after it report no floating-point errors.  An
    earlier step that meets one is taken again under the caller's numpy
    settings, so it warns or raises as in a step-by-step run.

    Raises
    ------
    ValueError
        On an unknown scheme, a bad ladder entry (see `time_ladder`), a
        bad threshold (see `RegularityParams`), a snapshot step that is
        not an integer or lies outside [0, n_steps], or an hj `ic` that
        is not even or not nonincreasing in |x| on the nodes (see
        `ProblemSpec.exact`); or at the first step whose total variation
        is not finite, or, for coupled, whose node candidate or cell
        averages are not finite, naming that step and the first
        non-finite node or cell.
    """
    if isinstance(problem, str):
        problem = get_problem(problem)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    snapshot_steps = tuple(snapshot_steps)
    for k in snapshot_steps:
        if not isinstance(k, numbers.Integral):
            raise ValueError(f"snapshot step {k!r} is not an integer")
        if not (0 <= k <= n_steps):
            raise ValueError(f"snapshot step {k} outside [0, {n_steps}]")
    snapshot_steps = {int(k) for k in snapshot_steps}
    ops = make_operators(problem, grid, dt)
    block_steps = min(n_steps, max(4, _BLOCK_VALUES // (grid.m + (scheme != "ub"))))

    w0 = init_point_values(grid, problem.ic)
    if problem.kind == "hj":
        _check_erosion_ic(problem.ic, grid.nodes, w0)
    params = resolve_regularity(problem, w0, grid.dx, delta, epsilon)
    sigma_history = None
    allowance = 0.0
    if scheme == "coupled":
        v, alignment = w0, Alignment.NODE
        sigma_history = np.empty((n_steps + 1, v.size), np.int8)
        allowance = tvb_allowance(params, grid)
        rows, cand = np.empty((2, block_steps + 1, v.size))
        src, bar = np.empty((2, block_steps + 1, v.size - 1))
        owned = np.zeros((block_steps + 1, v.size - 1), bool)  # none at t = 0: bar[0] is unread
        sigma = np.empty((block_steps + 1, v.size), np.int8)
        carried, kept = (rows, bar, owned), ((sigma, sigma_history),)
        # each step's state, built once per run: row i - 1 read, row i written
        states = [CoupledState(prev, out)
                  for prev, out in zip(zip(rows, bar, owned),
                                       zip(rows[1:], bar[1:], owned[1:], sigma[1:], cand[1:],
                                           src[1:]))]
        args = (ops.node_update, ops.cell_update, _indicator(v.size, grid.dx, params))
        layers = ((rows[:-1], cand[1:], ops.nu_node), (src[1:], bar[1:], ops.nu_cell))
        labels = (("total variation {tv}", alignment), ("node candidate", Alignment.NODE),
                  ("cell average", Alignment.CELL))

        def advance(i):  # a retaken step reads row 0, which flush has set
            coupled_step(states[i - 1], *args)
    else:
        if scheme == "sl":
            v = w0
            update, nus, alignment = ops.node_update, ops.nu_node, Alignment.NODE
        else:
            v = init_cell_averages(grid, problem.ic)
            update, nus, alignment = ops.cell_update, ops.nu_cell, Alignment.CELL
        rows = np.empty((block_steps + 1, v.size))
        carried, kept = (rows,), ()
        layers = ((rows[:-1], rows[1:], nus),)
        labels = (("total variation {tv}", alignment),) * 2  # the layer is the solution

        def advance(i):  # a retaken step reads rows[0], which flush has set
            update(rows[i - 1], out=rows[i])

    rows[0] = v
    snapshots = {0: v.copy()} if 0 in snapshot_steps else {}
    later_snapshots = sorted(snapshot_steps - {0})
    tv_history = np.full(n_steps + 1, total_variation(v))  # each flush writes its steps
    witnesses = np.empty((n_steps, len(layers)))
    check = block_checker(rows[1:], layers)
    # raise FloatingPointError on each error the caller's numpy settings would not ignore
    trap = {kind: "ignore" if mode == "ignore" else "raise" for kind, mode in np.geterr().items()}

    def flush(done, count):
        """Check steps done+1..done+count, held in rows 1..count."""
        bad = check(count, tv_history[done + 1:done + count + 1], witnesses[done:done + count])
        if bad is not None:  # step k holds a non-finite value at j, or its TV overflows
            k, (name, at), j = done + bad[0] + 1, labels[bad[1]], bad[2]
            where = (f"first non-finite value at {at.value} {j}" if j >= 0
                     else "the values are finite but their variation overflows")
            raise ValueError(f"non-finite {name.format(tv=tv_history[k])} at step {k}: {where}")
        for k in later_snapshots:
            if done < k <= done + count:
                snapshots[k] = rows[k - done].copy()
        for block, history in kept:
            history[done + 1:done + count + 1] = block[1:count + 1]
        for block in carried:
            block[0] = block[count]
        return done + count

    done = 0
    while done < n_steps:
        trapped = False
        try:
            with np.errstate(**trap):
                for count in range(1, min(block_steps, n_steps - done) + 1):
                    advance(count)
        except FloatingPointError:
            trapped = True
        if trapped:  # check the steps before, then retake it unbatched
            done = flush(done, count - 1)
            advance(1)
            count = 1
        done = flush(done, count)
    if sigma_history is not None:  # step 1 classified the initial nodes
        sigma_history[0] = sigma_history[1]
    final = rows[0].copy()
    # a NaN stays; abs makes a -0.0 maximum +0.0
    witness_max = abs(float(np.max(witnesses, initial=0.0)))

    t_final = dt * n_steps
    if alignment is Alignment.NODE:
        exact = np.asarray(problem.exact(grid.nodes, t_final), dtype=float)
    else:
        prim = np.asarray(problem.exact_antiderivative(grid.nodes, t_final), dtype=float)
        exact = np.diff(prim) / grid.dx
    errors = error_norms(final, exact, grid.dx, grid.coords(alignment),
                         singular_points(problem, t_final))
    tv = tv_monitor(tv_history, allowance)
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
        witnesses=witnesses,
    )


class ConvergenceRow(NamedTuple):
    m: int
    dx: float
    dt: float
    n_steps: int
    l1: float
    l2: float
    linf: float
    linf_reg: Optional[float]


# `ConvergenceTable.format_text` column formats; the error norms use ".2E".
_TEXT_FORMATS = {"m": "d", "dt": ".6f", "dx": ".6f", "l1_order": ".2f"}


class ConvergenceTable(NamedTuple):
    """Refinement study of one scheme on one problem."""

    problem_name: str
    scheme: str
    rows: tuple
    has_reg_column: bool

    def errors(self, norm: str = "l1") -> np.ndarray:
        return np.array([getattr(r, norm) for r in self.rows], dtype=float)

    def orders(self, norm: str = "l1") -> np.ndarray:
        return convergence_orders(self.errors(norm), [r.dx for r in self.rows])

    def columns(self) -> tuple:
        """(headers, rows): per rung m, dt, dx and the error norms, then
        linf_reg when the problem has singular points and, with two rungs
        or more, the observed l1 order (None on the first rung)."""
        headers = ["m", "dt", "dx", "l1", "l2", "linf"]
        if self.has_reg_column:
            headers.append("linf_reg")
        with_orders = len(self.rows) > 1
        if with_orders:
            headers.append("l1_order")
        ords = [None, *self.orders("l1")]
        rows = []
        for r, order in zip(self.rows, ords):
            row = [r.m, r.dt, r.dx, r.l1, r.l2, r.linf]
            if self.has_reg_column:
                row.append(r.linf_reg)
            if with_orders:
                row.append(order)
            rows.append(row)
        return headers, rows

    def format_text(self) -> str:
        headers, rows = self.columns()
        lines = [["" if v is None else format(v, _TEXT_FORMATS.get(h, ".2E"))
                  for h, v in zip(headers, row)] for row in rows]
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
        res = run_scheme(problem, scheme, m)
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
