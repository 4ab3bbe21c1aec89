"""Grid construction, field containers, and initialization quadrature."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slub.grids import (
    Alignment,
    Field,
    Grid1D,
    build_grid,
    check_cfl,
    edge_pad,
    init_cell_averages,
    init_point_values,
)

BOUNDS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
CELL_COUNTS = st.integers(min_value=3, max_value=400)


@given(a=BOUNDS, width=st.floats(min_value=1e-3, max_value=100.0), m=CELL_COUNTS)
@settings(max_examples=150, deadline=None)
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
    assert g.n_nodes == 5 and g.n_cells == 4
    np.testing.assert_array_equal(g.nodes, [-2.0, -1.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(g.centers, [-1.5, -0.5, 0.5, 1.5])
    assert g.size(Alignment.NODE) == 5 and g.size(Alignment.CELL) == 4
    np.testing.assert_array_equal(g.coords(Alignment.CELL), g.centers)


@pytest.mark.parametrize(
    "a, b, m",
    [(0.0, 0.0, 4), (1.0, -1.0, 4), (0.0, 1.0, 1), (0.0, 1.0, 2), (np.inf, 1.0, 4)],
)
def test_grid_rejects_bad_arguments(a: float, b: float, m: int) -> None:
    with pytest.raises(ValueError):
        build_grid(a, b, m)


def test_field_validates_shape_and_freezes_values() -> None:
    g = build_grid(0.0, 1.0, 4)
    f = Field(g, Alignment.NODE, np.arange(5.0))
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        Field(g, Alignment.NODE, np.arange(4.0))
    with pytest.raises(ValueError):
        Field(g, Alignment.CELL, np.array([0.0, 1.0, np.nan, 2.0]))
    g2 = Field(g, Alignment.NODE, f.values + 1.0)
    np.testing.assert_array_equal(g2.values, np.arange(5.0) + 1.0)
    np.testing.assert_array_equal(f.coords, g.nodes)


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


@pytest.mark.parametrize("k", [1, 2])
def test_edge_pad_matches_numpy_edge_padding(k: int) -> None:
    """Same bytes as np.pad(mode="edge"), signed zeros and short arrays
    included, and the input is left as it was."""
    rng = np.random.default_rng(k)
    for n in (1, 2, 3, 7, 40):
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = -0.0
        before = v.copy()
        out = edge_pad(v, k)
        assert out.dtype == v.dtype
        assert out.tobytes() == np.pad(v, k, mode="edge").tobytes()
        assert v.tobytes() == before.tobytes()


def test_edge_pad_pads_the_last_axis_of_a_block() -> None:
    """Each row of a 2-D block is padded as it would be on its own."""
    rows = np.random.default_rng(5).standard_normal((4, 6))
    for k in (1, 2):
        np.testing.assert_array_equal(edge_pad(rows, k), np.pad(rows, ((0, 0), (k, k)), mode="edge"))
        assert edge_pad(rows, k).tobytes() == np.array([edge_pad(r, k) for r in rows]).tobytes()


def test_init_point_values_samples_nodes() -> None:
    g = build_grid(-1.0, 1.0, 4)
    f = init_point_values(g, lambda x: x**2)
    np.testing.assert_allclose(f.values, g.nodes**2)
    assert f.alignment is Alignment.NODE


def test_init_point_values_accepts_scalar_only_callable() -> None:
    g = build_grid(0.0, 1.0, 4)
    f = init_point_values(g, lambda x: float(x) + 1.0)
    np.testing.assert_allclose(f.values, g.nodes + 1.0)


def test_init_cell_averages_exact_for_linear() -> None:
    """A linear profile averages to its midpoint value on every cell."""
    g = build_grid(-1.0, 3.0, 8)
    f = init_cell_averages(g, lambda x: 2.0 * x - 1.0)
    np.testing.assert_allclose(f.values, 2.0 * g.centers - 1.0, rtol=1e-14)


def test_init_cell_averages_quadrature_matches_antiderivative() -> None:
    """Gauss quadrature agrees with an exact antiderivative for a degree-8
    polynomial (the rule is exact through degree 9)."""

    def poly(x):
        return (1.0 - np.asarray(x) ** 2) ** 4

    def prim(x):
        x = np.asarray(x, dtype=float)
        return x - 4 / 3 * x**3 + 6 / 5 * x**5 - 4 / 7 * x**7 + 1 / 9 * x**9

    g = build_grid(-1.0, 1.0, 7)
    via_quad = init_cell_averages(g, poly)
    via_prim = init_cell_averages(g, poly, antiderivative=prim)
    np.testing.assert_allclose(via_quad.values, via_prim.values, rtol=1e-13)


def test_init_cell_averages_prefers_attached_antiderivative() -> None:
    def ic(x):
        return np.ones_like(np.asarray(x, dtype=float))

    ic.antiderivative = lambda x: np.asarray(x, dtype=float)
    g = build_grid(0.0, 1.0, 5)
    f = init_cell_averages(g, ic)
    np.testing.assert_allclose(f.values, 1.0, rtol=1e-15)


def test_init_rejects_nonfinite_profiles() -> None:
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        init_point_values(g, lambda x: np.asarray(x) * np.inf)
