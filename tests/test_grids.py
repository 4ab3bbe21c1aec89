"""Grid construction, the CFL check, and initialization quadrature."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slub.grids import (
    Alignment,
    Grid1D,
    build_grid,
    check_cfl,
    init_cell_averages,
    init_point_values,
)

BOUNDS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
CELL_COUNTS = st.integers(min_value=3, max_value=400)


@given(a=BOUNDS, width=st.floats(min_value=1e-3, max_value=100.0), m=CELL_COUNTS)
@settings(max_examples=150)
def test_grid_layout_invariants(a: float, width: float, m: int) -> None:
    """Nodes are uniform and strictly increasing; centers interleave."""
    g = build_grid(a, a + width, m)
    nodes, centers = g.nodes, g.centers
    assert nodes.size == m + 1 and centers.size == m
    spacings = np.diff(nodes)
    assert np.all(spacings > 0)
    assert np.allclose(spacings, g.dx, rtol=1e-12, atol=1e-15 * (1 + abs(a)))
    assert np.all(nodes[:-1] < centers) and np.all(centers < nodes[1:])
    # midpoint offset holds to roundoff of the coordinates, not of dx
    coord_eps = 1e-14 * (1.0 + np.abs(nodes).max())
    assert np.allclose(centers - nodes[:-1], 0.5 * g.dx, rtol=1e-9, atol=coord_eps)


def test_grid_accessors() -> None:
    g = build_grid(-2.0, 2.0, 4)
    assert g.dx == 1.0
    np.testing.assert_array_equal(g.nodes, [-2.0, -1.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(g.centers, [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_array_equal(g.coords(Alignment.NODE), g.nodes)
    np.testing.assert_array_equal(g.coords(Alignment.CELL), g.centers)
    # the nodes are computed once per grid and shared, so no reader may write them
    assert g.nodes is g.coords(Alignment.NODE) and not g.nodes.flags.writeable


@pytest.mark.parametrize(
    "a, b, m",
    [(0.0, 0.0, 4), (1.0, -1.0, 4), (0.0, 1.0, 1), (0.0, 1.0, 2), (np.inf, 1.0, 4),
     (0.0, 1.0, 19.5)],
)
def test_grid_rejects_bad_arguments(a: float, b: float, m: int) -> None:
    with pytest.raises(ValueError):
        build_grid(a, b, m)


def test_grid_takes_only_an_integer_cell_count() -> None:
    """A fractional m is rejected, naming it, not truncated; a numpy
    integer m is taken as an int."""
    for m in (19.5, 19.0, np.float64(19.0), "19"):
        with pytest.raises(ValueError, match=re.escape(f"integer cell count, got m={m!r}")):
            Grid1D(0.0, 1.0, m)
    grid = build_grid(0, 1, np.int64(19))
    assert type(grid.m) is int and grid.m == 19 and grid.nodes[-1] == 1.0


def test_check_cfl_names_worst_index() -> None:
    """Scalars and per-node arrays pass up to |nu| = 1 plus roundoff; a
    violation names the worst entry and both "CFL" and "Courant"."""
    check_cfl(1.0)
    check_cfl(-1.0 - 1e-13)
    check_cfl(np.array([0.5, -1.0, 0.0]))
    with pytest.raises(ValueError, match=r"CFL violated at index 0: Courant number \|nu\| = 1.5 > 1"):
        check_cfl(-1.5)
    with pytest.raises(ValueError, match=r"index 2: Courant number \|nu\| = 3 > 1"):
        check_cfl(np.array([0.5, -1.2, 3.0, 1.1]))


def _cfl_outcome(nu):
    try:
        check_cfl(nu)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "nu", [0.5, -1.0, 1.0 + 1e-12, -(1.0 + 1e-12), 1.0 + 3e-12, -1.5, np.inf, -np.inf, np.nan],
    ids=["half", "minus-one", "margin", "minus-margin", "past-margin", "minus-1.5",
         "inf", "minus-inf", "nan"],
)
def test_check_cfl_scalar_and_array_paths_agree(nu: float) -> None:
    """A Python float and np.float64 take the scalar path; a 0-d array,
    a one-entry array and a list the array path: same outcome, same
    message."""
    outcomes = {_cfl_outcome(x) for x in
                (float(nu), np.float64(nu), np.array(nu), np.array([nu]), [nu])}
    assert len(outcomes) == 1
    (outcome,) = outcomes
    assert (outcome is None) == (abs(nu) <= 1.0 + 1e-12)


def test_check_cfl_rejects_nan_naming_its_index() -> None:
    with pytest.raises(ValueError, match=r"index 0: Courant number \|nu\| = nan is not finite"):
        check_cfl(float("nan"))
    with pytest.raises(ValueError, match=r"index 1: Courant number \|nu\| = nan is not finite"):
        check_cfl([0.5, np.nan])
    # the first NaN is named even when a larger |nu| follows it
    with pytest.raises(ValueError, match=r"index 2: .* = nan is not finite"):
        check_cfl(np.array([0.5, -0.5, np.nan, 7.0, np.nan]))


def test_init_point_values_samples_nodes() -> None:
    g = build_grid(-1.0, 1.0, 4)
    f = init_point_values(g, lambda x: x**2)
    assert isinstance(f, np.ndarray) and f.dtype == np.float64
    np.testing.assert_allclose(f, g.nodes**2)


def test_init_point_values_rejects_a_scalar_only_callable() -> None:
    """`ic` is called once, on the node array, as `ProblemSpec.exact`
    calls it: a scalar-only callable raises its own error, and one value
    for every node is rejected by its shape."""
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(TypeError):
        init_point_values(g, lambda x: float(x) + 1.0)
    with pytest.raises(ValueError, match=r"one value per node, shape \(5,\), got shape \(\)"):
        init_point_values(g, lambda x: 1.0)


def test_init_cell_averages_exact_for_linear() -> None:
    """A linear profile averages to its midpoint value on every cell."""

    def ic(x):
        return 2.0 * x - 1.0

    ic.antiderivative = lambda x: x * x - x
    g = build_grid(-1.0, 3.0, 8)
    f = init_cell_averages(g, ic)
    np.testing.assert_allclose(f, 2.0 * g.centers - 1.0, rtol=1e-14)


def test_init_cell_averages_requires_an_antiderivative() -> None:
    """Without an exact antiderivative there are no cell averages: a cell
    run would fail anyway when its error is taken against the exact
    cell averages."""
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="ic.antiderivative"):
        init_cell_averages(g, lambda x: np.ones_like(np.asarray(x, dtype=float)))


def test_init_cell_averages_prefers_attached_antiderivative() -> None:
    def ic(x):
        return np.ones_like(np.asarray(x, dtype=float))

    ic.antiderivative = lambda x: np.asarray(x, dtype=float)
    g = build_grid(0.0, 1.0, 5)
    f = init_cell_averages(g, ic)
    np.testing.assert_allclose(f, 1.0, rtol=1e-15)


def test_init_rejects_nonfinite_profiles() -> None:
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        init_point_values(g, lambda x: np.asarray(x) * np.inf)

    def ic(x):
        return np.ones_like(np.asarray(x, dtype=float))

    ic.antiderivative = lambda x: np.where(np.asarray(x) == 0.5, np.nan, x)
    with pytest.raises(ValueError, match="non-finite cell averages"):
        init_cell_averages(g, ic)
