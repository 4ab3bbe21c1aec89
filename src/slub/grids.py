"""Uniform 1D grids, grid-aligned scalar fields, the CFL check and the
ghost-cell convention.

Two alignments matter here: point values live on nodes x_j, cell averages
live on cells [x_j, x_{j+1}).  The scheme kernels take raw arrays in one
of these layouts; `Field` wraps an array with its grid and alignment for
the initializers and the reference helpers.  The projections between the
two layouts live in `slub.coupled`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alignment",
    "Grid1D",
    "Field",
    "build_grid",
    "check_cfl",
    "edge_pad",
    "init_point_values",
    "init_cell_averages",
]

# 5-point Gauss-Legendre on [-1, 1]; exact for polynomials up to degree 9.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)

# Largest |Courant number| `check_cfl` accepts: one plus a roundoff margin.
_CFL_LIMIT = 1.0 + 1e-12


class Alignment(enum.Enum):
    NODE = "node"
    CELL = "cell"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [a, b] with m cells and m+1 nodes."""

    a: float
    b: float
    m: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if self.b <= self.a:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.m < 3:
            raise ValueError(f"need at least 3 cells (stencil width), got m={self.m}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def n_nodes(self) -> int:
        return self.m + 1

    @property
    def n_cells(self) -> int:
        return self.m

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates x_j = a + j*dx, j = 0..m."""
        return self.a + self.dx * np.arange(self.m + 1)

    @property
    def centers(self) -> np.ndarray:
        """Cell midpoints x_j + dx/2."""
        return self.a + self.dx * (np.arange(self.m) + 0.5)

    def size(self, alignment: Alignment) -> int:
        return self.n_nodes if alignment is Alignment.NODE else self.n_cells

    def coords(self, alignment: Alignment) -> np.ndarray:
        return self.nodes if alignment is Alignment.NODE else self.centers


def build_grid(a: float, b: float, m: int) -> Grid1D:
    """Construct a uniform grid on [a, b] with m cells.

    Raises
    ------
    ValueError
        If b <= a or m < 3.
    """
    return Grid1D(float(a), float(b), int(m))


@dataclass(frozen=True)
class Field:
    """Scalar field attached to a grid, node- or cell-aligned.

    Values are copied on construction and frozen, so snapshots can be
    shared safely.
    """

    grid: Grid1D
    alignment: Alignment
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.ndim != 1:
            raise ValueError(f"field values must be 1-D, got shape {vals.shape}")
        expected = self.grid.size(self.alignment)
        if vals.shape[0] != expected:
            raise ValueError(
                f"{self.alignment.value}-aligned field needs {expected} values, "
                f"got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def coords(self) -> np.ndarray:
        return self.grid.coords(self.alignment)


def check_cfl(nu) -> None:
    """Reject signed Courant numbers beyond one in magnitude, or NaN.

    `nu` is a scalar or an array (one number per node or cell).  A
    roundoff margin of 1e-12 is allowed.  The error names the index of
    the worst entry, or of the first NaN.

    Raises
    ------
    ValueError
        If any |nu| exceeds 1 + 1e-12 or is NaN.
    """
    if isinstance(nu, float) and abs(nu) <= _CFL_LIMIT:
        return  # the kernels' usual argument (np.float64 too), accepted without numpy
    mags = np.abs(nu)
    if (mags <= _CFL_LIMIT).all():
        return
    j = int(np.argmax(mags))  # argmax stops at the first NaN
    mag = np.ravel(mags)[j]
    bound = "> 1" if mag > 1.0 else "is not finite"
    raise ValueError(f"CFL violated at index {j}: Courant number |nu| = {mag:.6g} {bound}")


def edge_pad(values: np.ndarray, k: int) -> np.ndarray:
    """`values` with k >= 1 ghost entries at each end of the last axis
    that continue the end values (numpy's "edge" padding, without its
    per-call overhead).  Every kernel continues its data past the grid
    ends this way."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 2 * k,), dtype=values.dtype)
    out[..., :k] = values[..., :1]
    out[..., k:-k] = values
    out[..., -k:] = values[..., -1:]
    return out


def _eval_on(fn, x: np.ndarray) -> np.ndarray:
    """Evaluate fn on an array, tolerating scalar-only callables."""
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(xi)) for xi in x])


def init_point_values(grid: Grid1D, ic) -> Field:
    """Sample an initial condition at the nodes.

    Parameters
    ----------
    grid : Grid1D
    ic : callable
        Initial profile; vectorized or scalar.

    Returns
    -------
    Field
        Node-aligned field with values ic(x_j).
    """
    vals = _eval_on(ic, grid.nodes)
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial condition produced non-finite node values")
    return Field(grid, Alignment.NODE, vals)


def init_cell_averages(grid: Grid1D, ic, antiderivative=None) -> Field:
    """Cell averages of an initial condition.

    Uses the exact antiderivative when one is supplied (or attached to
    ``ic`` as ``ic.antiderivative``); otherwise a fixed 5-point
    Gauss-Legendre rule per cell, which is exact for polynomials of
    degree <= 9.

    Returns
    -------
    Field
        Cell-aligned field of averages.
    """
    if antiderivative is None:
        antiderivative = getattr(ic, "antiderivative", None)
    nodes = grid.nodes
    if antiderivative is not None:
        prim = _eval_on(antiderivative, nodes)
        vals = np.diff(prim) / grid.dx
    else:
        half = 0.5 * grid.dx
        pts = grid.centers[:, None] + half * _GL_X[None, :]
        fv = _eval_on(ic, pts.ravel()).reshape(pts.shape)
        vals = fv @ _GL_W * 0.5
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial condition produced non-finite cell averages")
    return Field(grid, Alignment.CELL, vals)
