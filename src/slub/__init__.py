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
The package re-exports every module's ``__all__``.
"""

from . import coupled, diagnostics, grids, harness, problems, semi_lagrangian, ultrabee
from .grids import *
from .problems import *
from .semi_lagrangian import *
from .ultrabee import *
from .coupled import *
from .diagnostics import *
from .harness import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (grids, problems, semi_lagrangian, ultrabee, coupled, diagnostics, harness)
    for name in module.__all__
] + ["__version__"]
