"""Coupled semi-Lagrangian / anti-dissipative transport in one dimension.

Three schemes for linear advection and convex Hamilton-Jacobi equations
on uniform 1D grids:

* ``sl``: semi-Lagrangian node scheme (monotone, diffusive at jumps),
* ``ub``: anti-dissipative finite-volume cell scheme (sharp at jumps,
  staircases smooth profiles),
* ``coupled``: per-node regularity indicator picks SL where the profile
  is smooth and the cell scheme around detected singularities.

Entry points: :func:`run_scheme` / :func:`convergence_table` drive the
registered benchmark problems; the ``slub`` console script wraps them.
"""

from .grids import (
    Alignment,
    Field,
    Grid1D,
    build_grid,
    check_cfl,
    init_cell_averages,
    init_point_values,
)
from .problems import (
    ProblemSpec,
    REGISTRY,
    exact_advection_const,
    exact_advection_linear_velocity,
    get_problem,
    hopf_lax_oracle,
    ic_jump,
    ic_mix,
    ic_smooth,
    ic_smooth_var,
    problem_names,
    singular_points,
)
from .semi_lagrangian import advect_const_values, hj_update_values, p1_interpolate
from .ultrabee import (
    LimiterState,
    ub_flux_left,
    ub_flux_limited,
    ub_flux_right,
    ub_step_values,
)
from .coupled import (
    CoupledState,
    RegularityParams,
    active_cells,
    backward_slopes,
    classify_regularity,
    coupled_step,
    init_coupled_state,
    project_to_cells,
    project_to_nodes,
)
from .diagnostics import (
    ErrorReport,
    IncrementalForm,
    StabilityReport,
    TVSeries,
    convergence_orders,
    error_norms,
    extract_incremental,
    stability_witness,
    three_point_witness,
    total_variation,
    tv_monitor,
    tvb_allowance,
)
from .harness import (
    ConvergenceRow,
    ConvergenceTable,
    LADDER_PRESETS,
    RunResult,
    SCHEMES,
    StepOperators,
    convergence_table,
    make_operators,
    resolve_grid,
    resolve_regularity,
    run_scheme,
    time_ladder,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "Field",
    "Grid1D",
    "build_grid",
    "check_cfl",
    "init_cell_averages",
    "init_point_values",
    "ProblemSpec",
    "REGISTRY",
    "exact_advection_const",
    "exact_advection_linear_velocity",
    "get_problem",
    "hopf_lax_oracle",
    "ic_jump",
    "ic_mix",
    "ic_smooth",
    "ic_smooth_var",
    "problem_names",
    "singular_points",
    "advect_const_values",
    "hj_update_values",
    "p1_interpolate",
    "LimiterState",
    "ub_flux_left",
    "ub_flux_limited",
    "ub_flux_right",
    "ub_step_values",
    "CoupledState",
    "RegularityParams",
    "active_cells",
    "backward_slopes",
    "classify_regularity",
    "coupled_step",
    "init_coupled_state",
    "project_to_cells",
    "project_to_nodes",
    "ErrorReport",
    "IncrementalForm",
    "StabilityReport",
    "TVSeries",
    "convergence_orders",
    "error_norms",
    "extract_incremental",
    "stability_witness",
    "three_point_witness",
    "total_variation",
    "tv_monitor",
    "tvb_allowance",
    "ConvergenceRow",
    "ConvergenceTable",
    "LADDER_PRESETS",
    "RunResult",
    "SCHEMES",
    "StepOperators",
    "convergence_table",
    "make_operators",
    "resolve_grid",
    "resolve_regularity",
    "run_scheme",
    "time_ladder",
    "__version__",
]
