"""Reflection symmetry: x -> -x with c -> -c on an even `ic`.

A negative Courant number reads the mirrored stencil, so a stepper at
-nu on the reversed values is the stepper at nu, reversed, bit for bit.
A whole `sl` run mirrors to roundoff: `resolve_grid` extends the c < 0
grid on the other side, and its nodes are the negated nodes of the c > 0
grid only to within an ulp or so.  A whole `ub` run does not: those
ulps reach the initial cell averages, and the anti-dissipative flux
turns them into gaps that grow with the rung (CHANGES.md).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from slub.grids import init_cell_averages, init_point_values
from slub.harness import resolve_grid, run_scheme, time_ladder
from slub.problems import get_problem
from slub.semi_lagrangian import advect_const_stepper
from slub.ultrabee import ub_stepper


@pytest.mark.parametrize("build, init", [
    (ub_stepper, init_cell_averages),
    (advect_const_stepper, init_point_values),
], ids=["ub", "sl"])
def test_a_stepper_at_minus_nu_is_the_mirror_of_the_stepper_at_nu(build, init) -> None:
    """Every step of adv-smooth at m = 319 (178 steps at nu = 0.896),
    stepped into block rows as a run steps."""
    problem, m = get_problem("adv-smooth"), 319
    dt, n_steps = time_ladder(problem, m)
    grid = resolve_grid(problem, m)
    nu = problem.c * dt / grid.dx
    v = init(grid, problem.ic)
    forward, mirrored = build(nu, v.size), build(-nu, v.size)
    rows, flipped = np.empty((2, n_steps + 1, v.size))
    rows[0], flipped[0] = v, v[::-1]
    for k in range(1, n_steps + 1):
        forward(rows[k - 1], out=rows[k])
        mirrored(flipped[k - 1], out=flipped[k])
    assert n_steps == 178
    assert rows.tobytes() == flipped[:, ::-1].tobytes()


@pytest.mark.parametrize("name", ["adv-smooth", "adv-jump"])
def test_a_node_run_at_minus_c_mirrors_the_run_at_c(name: str) -> None:
    """Every rung of the ladder, to 1e-14 (read: at most 1.2e-15)."""
    problem = get_problem(name)
    mirrored = replace(problem, c=-problem.c)
    for m in problem.m_ladder:
        a, b = run_scheme(problem, "sl", m), run_scheme(mirrored, "sl", m)
        np.testing.assert_allclose(a.x, -b.x[::-1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(a.values, b.values[::-1], rtol=0.0, atol=1e-14, err_msg=m)
