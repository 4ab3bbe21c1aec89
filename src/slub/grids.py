"""Uniform 1D grids, the initial data on them, the CFL check and the
ghost-cell convention.

Two alignments matter here: point values live on nodes x_j, cell averages
live on cells [x_j, x_{j+1}).  Every kernel, initializer and driver takes
and returns raw float arrays in one of these layouts.  The projections
between the two layouts live in `slub.coupled`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alignment",
    "Grid1D",
    "build_grid",
    "check_cfl",
    "edge_pad",
    "init_point_values",
    "init_cell_averages",
]

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
    def nodes(self) -> np.ndarray:
        """Node coordinates x_j = a + j*dx, j = 0..m."""
        return self.a + self.dx * np.arange(self.m + 1)

    @property
    def centers(self) -> np.ndarray:
        """Cell midpoints x_j + dx/2."""
        return self.a + self.dx * (np.arange(self.m) + 0.5)

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


def edge_pad(values: np.ndarray, k: int, out=None) -> np.ndarray:
    """`values` with k >= 1 ghost entries at each end of the last axis
    that continue the end values (numpy's "edge" padding, without its
    overhead), into `out` (fresh when None).  The cell kernel pads with
    it; the nodes, the projections and the witnesses do not pad."""
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] + 2 * k,), dtype=values.dtype)
    out[..., :k] = values[..., :1]
    out[..., k:-k] = values
    out[..., -k:] = values[..., -1:]
    return out


def _eval_on(fn, x: np.ndarray) -> np.ndarray:
    """fn evaluated once on the array x, as floats, one value per entry."""
    out = np.asarray(fn(x), dtype=float)
    if out.shape != x.shape:
        raise ValueError(f"expected one value per node, shape {x.shape}, got shape {out.shape}")
    return out


def init_point_values(grid: Grid1D, ic) -> np.ndarray:
    """The node values ic(x_j) of a vectorized initial condition, as a
    float array; `ic` is called once, on the node array.

    Raises
    ------
    ValueError
        If `ic` does not return one value per node, or a value is not finite.
    """
    vals = _eval_on(ic, grid.nodes)
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial condition produced non-finite node values")
    return vals


def init_cell_averages(grid: Grid1D, ic) -> np.ndarray:
    """Exact cell averages of an initial condition, as a float array, from
    the antiderivative attached to it as ``ic.antiderivative``.

    Raises
    ------
    ValueError
        If ``ic`` has no ``antiderivative``, or the averages are not finite.
    """
    antiderivative = getattr(ic, "antiderivative", None)
    if antiderivative is None:
        raise ValueError(
            "cell averages need an exact antiderivative attached as ic.antiderivative"
        )
    vals = np.diff(_eval_on(antiderivative, grid.nodes)) / grid.dx
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial condition produced non-finite cell averages")
    return vals
