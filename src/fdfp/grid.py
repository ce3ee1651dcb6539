"""Velocity-space meshes, quadrature and the discrete distribution state.

Two geometries are supported: a 1-D Cartesian box [-R, R] and the radial
reduction of an N-dimensional rotationally symmetric problem on [0, R],
where the quadrature weights carry the N omega_N r^(N-1) dr measure.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CARTESIAN_1D = "cartesian1d"
RADIAL_ND = "radialNd"

GEOMETRIES = (CARTESIAN_1D, RADIAL_ND)

# Slack admitted by DistributionState around [0, 1].  The finite-volume
# solver keeps states exactly inside; the integral-equation solver only
# bounds the violation (see solver_duhamel), so the constructor tolerates
# a small overshoot instead of hard-failing.
BOUNDS_TOL = 1e-5
# The largest dimension N accepted anywhere.  The first radial cell's measure,
# of order (h/2)^(N-1) h against its interface area of order h^(N-1), sets the
# fixed explicit step, which halves with each N from N = 3 on: a run to t = 1
# on 64 cells takes 517 steps at N = 3, 16,513 at N = 8 and 4,227,158 at N = 16.
MAX_DIM = 16


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in `dim` dimensions."""
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def as_integer(value, message: str, least: float = -math.inf, most: float = math.inf) -> int:
    """`value` as an int: ValueError(message) unless it is a finite integral
    number (2.0 included) in [least, most]."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if n != value or not least <= n <= most:
        raise ValueError(message)
    return n


def check_dim(dim) -> int:
    """dim as an int: ValueError unless it is an integer in [1, MAX_DIM]
    (integral floats included).  The one dimension rule of fdfp."""
    return as_integer(dim, f"dim must be an integer in [1, {MAX_DIM}], got {dim!r}", 1, MAX_DIM)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered velocity mesh, given by its four parameters.

    cartesian1d covers [-extent, extent] in dim 1; radialNd covers
    [0, extent] with weights N omega_N r^(N-1) h, N <= MAX_DIM.  Any cells
    >= 1 is accepted and nothing is warned about: snapshot files describe an
    existing mesh this way.  `make_grid` adds the policy for new meshes.
    Building a Grid allocates no array: each is derived on first use.
    `qweight[i]` is the measure of cell i, so that sum(qweight * f) is the
    discrete integral of f over the (truncated) velocity domain.
    """

    geometry: str
    dim: int
    extent: float
    cells: int

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}; expected one of {GEOMETRIES}")
        for name in ("extent", "cells"):   # a str or None compares with a TypeError
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.extent > 0:
            raise ValueError("extent must be positive")
        if not math.isfinite(self.extent):
            raise ValueError("extent must be finite")
        if self.cells < 1:
            raise ValueError("at least 1 cell required")
        if self.geometry == CARTESIAN_1D and self.dim != 1:
            raise ValueError("cartesian1d requires dim = 1")
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "cells",
                           as_integer(self.cells, f"cells must be an integer, got {self.cells!r}"))

    @cached_property
    def width(self) -> float:
        """Uniform cell width h."""
        return (2 if self.geometry == CARTESIAN_1D else 1) * self.extent / self.cells

    @cached_property
    def node(self) -> np.ndarray:
        """Cell centers, length cells (read-only)."""
        lo = -self.extent if self.geometry == CARTESIAN_1D else 0.0
        return _read_only(lo + (np.arange(self.cells) + 0.5) * self.width)

    @cached_property
    def qweight(self) -> np.ndarray:
        """Cell measures, length cells (read-only)."""
        if self.geometry == CARTESIAN_1D:
            qweight = np.full(self.cells, self.width)
        else:
            coef = self.dim * unit_ball_volume(self.dim)
            qweight = coef * self.node ** (self.dim - 1) * self.width
        return _read_only(qweight)

    @cached_property
    def edges(self) -> np.ndarray:
        """Cell edge coordinates, length cells + 1 (read-only)."""
        lo = -self.extent if self.geometry == CARTESIAN_1D else 0.0
        return _read_only(lo + self.width * np.arange(self.cells + 1))

    @cached_property
    def speed(self) -> np.ndarray:
        """|v| at cell centers (equals the radial coordinate on radial grids;
        read-only)."""
        return _read_only(np.abs(self.node))

    @cached_property
    def interface_area(self) -> np.ndarray:
        """Area factor of each cell interface, length cells + 1 (read-only).

        Cartesian interfaces have unit area; radial interfaces carry
        N omega_N r^(N-1), which vanishes at r = 0 for N >= 2.
        """
        if self.geometry == CARTESIAN_1D:
            return _read_only(np.ones(self.cells + 1))
        coef = self.dim * unit_ball_volume(self.dim)
        return _read_only(coef * self.edges ** (self.dim - 1))


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, flagged read-only: the grid's cached arrays are shared."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class DistributionState:
    """Cell averages of a density f constrained to the invariant region [0, 1].
    A read-only float array is kept as `values` (a trajectory's states view
    its matrix so); any other input is copied."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.flags.writeable:
            vals = vals.copy()
        if vals.shape != (self.grid.cells,):
            raise ValueError(f"values shape {vals.shape} does not match grid "
                             f"with {self.grid.cells} cells")
        require_invariant_region(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def require_invariant_region(values: np.ndarray, where: str = "") -> None:
    """Raise ValueError unless all values are finite and in [0, 1] up to BOUNDS_TOL."""
    lo, hi = np.minimum.reduce(values, None), np.maximum.reduce(values, None)
    if not (lo >= -BOUNDS_TOL and hi <= 1.0 + BOUNDS_TOL):   # as NaN fails both
        if not np.isfinite(values).all():
            raise ValueError(f"state values must be finite{where}")
        # min and max to 3 digits hide an excursion of 2e-5; its own size shows it
        beyond = [f"{-lo:.3g} below 0"] if lo < -BOUNDS_TOL else []
        beyond += [f"{hi - 1.0:.3g} above 1"] if hi > 1.0 + BOUNDS_TOL else []
        raise ValueError(f"state values outside [0, 1]{where}: min={lo:.3g}, max={hi:.3g} "
                         f"({', '.join(beyond)})")


def make_grid(geometry: str, dim: int, extent: float, cells: int) -> Grid:
    """Build a uniform velocity grid for a new computation.

    Same mesh as `Grid`, but at least 8 cells are required, every cell
    measure must be a positive normal float (a radial r^(N-1) underflows at
    high N, and the solver divides by it) and an extent below 4 is warned
    about.
    """
    grid = Grid(geometry, dim, extent, cells)
    if grid.cells < 8:
        raise ValueError("at least 8 cells required")
    smallest = grid.qweight.min()
    if not smallest >= np.finfo(float).tiny:
        raise ValueError(f"the smallest cell measure, {smallest:.3g}, is below the smallest "
                         f"normal float on this {grid.dim}-D {grid.geometry} mesh")
    if grid.extent < 4:
        warnings.warn(
            "extent < 4 truncates the Gaussian-decaying tails noticeably; "
            "extent >= 4 (typically 8) is recommended",
            stacklevel=2,
        )
    return grid


def integrate(state: DistributionState) -> float:
    """Discrete mass: sum of qweight * values."""
    return float(np.dot(state.grid.qweight, state.values))


def row_dots(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(weights, row) for each row, made contiguous: the bits of the
    single-state sums, which `rows @ weights` and strided rows round otherwise
    (`np.vecdot` takes numpy's dot of each contiguous row)."""
    return np.vecdot(np.ascontiguousarray(rows), weights)


def moment(state: DistributionState, order: int) -> float:
    """Discrete moment sum(qweight * |v|^order * f) for even order >= 0."""
    message = f"moment order must be an even integer >= 0, got {order!r}"
    order = as_integer(order, message, 0)
    if order % 2 != 0:
        raise ValueError(message)
    if order == 0:
        return integrate(state)
    return float(np.dot(state.grid.qweight, state.grid.speed ** order * state.values))


def l1_distance(a: DistributionState, b: DistributionState) -> float:
    """Weighted L1 distance between two states on the same grid."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return float(np.dot(a.grid.qweight, np.abs(a.values - b.values)))


def boundary_density(grid: Grid, values: np.ndarray) -> float:
    """Largest |f| in the outermost cells of a row; a proxy for truncation error."""
    if grid.geometry == CARTESIAN_1D:
        return float(max(abs(values[0]), abs(values[-1])))
    return float(abs(values[-1]))
