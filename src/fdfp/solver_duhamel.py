"""Picard iteration on the mild (integral) form of the equation.

Writing the flow as the linear Fokker-Planck semigroup plus a nonlinear
correction, a solution satisfies

    f(t) = K(t)[f0] - integral_0^t e^{-(t-s)} grad_v K(t-s)[w f(s,w)^2] ds

with K the Mehler kernel.  The map T sending a trajectory to the right
hand side is a contraction for small horizons, and its fixed point is the
short-time solution; this module computes that fixed point and serves as
an independent oracle for the finite-volume solver.

The s-integral is a composite rule on the time grid.  With the uniform
spacing dt, the piece s in (t_{k-d-1}, t_{k-d}) of node k's integral is
the kernel-time interval theta = t_k - s in (d dt, (d + 1) dt), lag d.
On it the trajectory is interpolated linearly, f_s = (1 - lam) a + lam b
between a = F_{k-d-1} and b = F_{k-d}, and the kernel time theta, the
weight e^{-theta} and lam = d + 1 - theta/dt depend on the lag alone, not
on k: the rule is a product-integration rule for a convolution-type
Volterra equation (Linz, SIAM 1985).  The self piece (lag 0) carries the
integrand's nu(theta)^(-1/2) singularity at theta = 0; the substitution
theta = tau^2 removes it, and SELF_QUAD_NODES Gauss-Legendre nodes in tau
evaluate the piece.  Each earlier piece uses LAG_QUAD_NODES Gauss-Legendre
nodes in theta.  The kernel gradients use the edge-integrated kernel
(accurate uniformly in theta) through tensors of edge Gaussians
(`mehler._edge_gaussians`).  A tensor holds only the top half of the rows,
because the mesh is mirror symmetric; the bottom half is read off the
reversed data.  It is banded: each block of 16 rows keeps only the edges
within 9 sqrt(nu) of its centres, one band per build, fitted to the
build's smallest and largest kernel time.

The integrand v f_s^2 = lam^2 v b^2 + 2 lam (1 - lam) v a b +
(1 - lam)^2 v a^2 is quadratic in the rows, so each lag's tensor is built
once per solve and folded into dense matrices, M = sum_j w_j P_j / norm_j
for each of the three terms.  The a^2 term of lag d and the b^2 term of
lag d + 1 multiply the same row, so they share one matrix: the lag
matrices are one (rows, 2 K - 1, n + 1) array L whose slot 2j multiplies
v F_{k-j}^2 and slot 2j + 1 multiplies v F_{k-j-1} F_{k-j}, for K time
nodes and n cells.  Node k's integral is one product of slots 0..2k with
those products of its rows (`_lag_products`).

The map is causal: node k of T(F) reads only nodes 0..k of F.  So the
fixed point is a Volterra equation in time, and `picard_solve` solves it
node by node, k = 1, 2, ...: once rows 0..k-1 are final, only row k is
unknown.  Node k builds lag k - 1 alone, the last piece its integral
needs.  Its history, slots 2..2k, reads final rows only and is one
product.  Slots 0 and 1 read row k; they are iterated until the node's L1
increment is at most PICARD_TOL, one product per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import gauss_legendre
from .grid import DistributionState, Grid, as_integer, require_invariant_region, row_dots
from .mehler import (_apply_folded, _edge_gaussians, _fold_edge_gaussians, apply_kernel,
                     require_cartesian)
from .trajectory import Trajectory


# The Picard numerics are fixed.  The figures below were measured on
# 0.5 F_{M*} data (beta* = 1), 16 time nodes, at 128 cells to t = 1 and at
# 256 cells to t = 1/4.

# Stop a time node once its L1 increment is this small: the node's map
# contracts by a factor of about 0.1 per iteration there, so the row is then
# about 1e-9 from the fixed point, below the quadrature error.
PICARD_TOL = 1e-8
# Iterations per time node; enough for contraction factors up to about 0.7
# from a unit first increment (0.7^50 ~ 2e-8).  Slower contraction means the
# horizon should shrink, which the three-growths abort usually reports first.
PICARD_MAX_ITER = 50
# Consecutive growing increments at one node after which the run is abandoned.
_GROWTHS_TO_ABORT = 3
# Gauss-Legendre nodes of the composite time rule: in tau on the self piece,
# in theta on each earlier piece.  The self piece, singular at theta = 0,
# dominates the error.  Sup-over-time L1 distance of the fixed point to the
# 256-node tau rule over all of (0, t_k), which is within 5.6e-9 of the
# (128, 64) composite rule:
#
#   nodes                     128 cells, t = 1   256, t = 1/4   512, 31 nodes, t = 1/4
#   (self, lag) = (16, 4)     6.2e-7             1.5e-7         6.3e-8
#   (24, 2)                   7.4e-8             5.4e-9         7.2e-9
#   (24, 4)                   2.6e-8             5.2e-9         7.2e-9
#   (32, 4)                   5.8e-9             7.5e-10        1.3e-9
#   32 tau nodes on (0, t_k)  6.4e-7             1.5e-7         1.6e-7
#
# Against the rule with both counts doubled, (24, 4) moves the fixed point
# by 2.0e-8 at 128 cells and (16, 4) by 6.2e-7; the tests require 1e-7.
SELF_QUAD_NODES = 24
LAG_QUAD_NODES = 4

# The default bound of the L1 gap between the Picard oracle and the FV solver
# at every Picard node (`node_gaps`), the gate of `cross_check`
CROSS_CHECK_TOL = 1e-2


@dataclass(frozen=True)
class DuhamelParams:
    t_final: float
    time_nodes: int = 16

    def __post_init__(self):
        if not 0 < self.t_final <= 1:
            raise ValueError("t_final must lie in (0, 1]; the construction is local in time")
        object.__setattr__(self, "time_nodes", as_integer(
            self.time_nodes, "time_nodes must be an integer >= 8", 8))

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.time_nodes)


@dataclass(frozen=True)
class PicardRun:
    """Run record of `picard_solve`, its iteration counts; the invariants of
    its rows are read off the trajectory.  `increments` holds one tuple per
    positive time node, the L1 increments of that node's iterations.
    `iterations` is the most iterations any node took, and
    `self_iterations` the total over all nodes, each one product with the
    self piece's two lag matrices.  `kernel_times` counts the kernel times
    whose edge Gaussians the solve built: SELF_QUAD_NODES + (K - 2)
    LAG_QUAD_NODES for K time nodes."""

    kernel_times: int
    increments: tuple[tuple[float, ...], ...]

    iterations = property(lambda self: max(map(len, self.increments)))
    self_iterations = property(lambda self: sum(map(len, self.increments)))


def _linear_terms(f0: DistributionState, params: DuhamelParams) -> np.ndarray:
    """K(t_k)[f0] for every positive time node (constant across iterations)."""
    times = params.time_grid()
    out = np.empty((times.size, f0.grid.cells))
    out[0] = f0.values
    for k in range(1, times.size):
        out[k] = apply_kernel(float(times[k]), f0.grid, f0.values)
    return out


def _lag_rule(d: int, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag d's piece of the s-integral, theta in (d dt, (d + 1) dt): its
    kernel times theta_j, its weights (the quadrature weight times
    e^{-theta_j}) and the interpolation weights lam_j of the later row."""
    if d == 0:
        x, w = gauss_legendre(SELF_QUAD_NODES)
        half = 0.5 * math.sqrt(dt)
        tau = half * (x + 1.0)
        theta = tau ** 2
        weight = half * w * 2.0 * tau
    else:
        x, w = gauss_legendre(LAG_QUAD_NODES)
        theta = dt * (d + 0.5 * (x + 1.0))
        weight = 0.5 * dt * w
    return theta, weight * np.exp(-theta), (d + 1) - theta / dt


def _fold_lag(L: np.ndarray, d: int, params: DuhamelParams, grid: Grid) -> int:
    """Add lag d's quadrature nodes to the lag matrices L (see the module
    docstring): the b^2 term to slot 2d, the a b term to slot 2d + 1 and the
    a^2 term to slot 2d + 2.  Returns the number of kernel times built."""
    theta, weight, lam = _lag_rule(d, params.t_final / (params.time_nodes - 1))
    weights = weight * np.stack([lam ** 2, 2.0 * lam * (1.0 - lam), (1.0 - lam) ** 2])
    _fold_edge_gaussians(_edge_gaussians(theta, grid), weights, L[:, 2 * d:2 * d + 3])
    return theta.size


def _lag_products(F: np.ndarray, k: int, grid: Grid) -> np.ndarray:
    """The data of node k's lag matrices: v F_{k-j}^2 in row 2j and
    v F_{k-j-1} F_{k-j} in row 2j + 1, for j = 0..k."""
    R = F[k::-1]
    out = np.empty((2 * k + 1, F.shape[1]))
    np.multiply(R, R, out=out[0::2])
    np.multiply(R[:-1], R[1:], out=out[1::2])
    out *= grid.node
    return out


def _lag_matrices(params: DuhamelParams, grid: Grid) -> np.ndarray:
    """The zeroed lag matrices of a solve, one (rows, 2 K - 1, n + 1) array."""
    return np.zeros(((grid.cells + 1) // 2, 2 * params.time_nodes - 1, grid.cells + 1))


def apply_T(F: np.ndarray, f0: DistributionState, params: DuhamelParams,
            lin: np.ndarray | None = None) -> np.ndarray:
    """One application of the mild-equation map to a trajectory matrix F,
    one row per time node of `params`.  `lin` holds the linear terms
    (`_linear_terms(f0, params)`, computed if not given).  The rows of the
    image may leave [0, 1], as the linear semigroup's do."""
    require_cartesian(f0.grid)   # the solver runs on the kernel operators
    F = np.asarray(F, dtype=float)
    if F.shape != (params.time_nodes, f0.grid.cells):
        raise ValueError(f"F must be a (time_nodes, cells) = ({params.time_nodes}, "
                         f"{f0.grid.cells}) matrix, got shape {F.shape}")
    if lin is None:
        lin = _linear_terms(f0, params)
    grid = f0.grid
    L = _lag_matrices(params, grid)
    out = np.empty_like(F)
    out[0] = f0.values
    for k in range(1, params.time_nodes):
        _fold_lag(L, k - 1, params, grid)
        out[k] = lin[k] - _apply_folded(L[:, :2 * k + 1], _lag_products(F, k, grid))
    return out


def picard_solve(f0: DistributionState, params: DuhamelParams) -> Trajectory:
    """Solve the mild equation node by node (see the module docstring).

    Node k starts from the last final row moved by the change in the linear
    term, F_{k-1} + K(t_k)[f0] - K(t_{k-1})[f0], and iterates its self part
    until the node's L1 increment is at most PICARD_TOL.  Three consecutive
    growing increments at a node abort with a request to shrink t_final (the
    contraction constant degrades with the horizon), as does reaching
    PICARD_MAX_ITER iterations at a node.  A final row that leaves [0, 1] by
    more than BOUNDS_TOL raises ValueError before the march goes on.
    """
    require_cartesian(f0.grid)
    grid = f0.grid
    times = params.time_grid()
    lin = _linear_terms(f0, params)
    F = np.empty_like(lin)
    F[0] = f0.values
    L = _lag_matrices(params, grid)
    kernel_times = 0

    increments: list[tuple[float, ...]] = []
    for k in range(1, times.size):
        kernel_times += _fold_lag(L, k - 1, params, grid)
        base = lin[k] - _apply_folded(L[:, 2:2 * k + 1], _lag_products(F, k - 1, grid))
        F[k] = F[k - 1] + (lin[k] - lin[k - 1])
        node: list[float] = []
        grows = 0
        for _ in range(PICARD_MAX_ITER):
            b = F[k]
            row = base - _apply_folded(L[:, :2], grid.node * np.stack([b * b, F[k - 1] * b]))
            node.append(float(np.dot(np.abs(row - F[k]), grid.qweight)))
            F[k] = row
            if node[-1] <= PICARD_TOL:
                break
            if len(node) >= 2 and node[-1] > node[-2]:
                grows += 1
                if grows >= _GROWTHS_TO_ABORT:
                    raise RuntimeError(
                        "Picard iteration is not contracting (increment grew three times "
                        "in a row); shrink t_final"
                    )
            else:
                grows = 0
        else:
            raise RuntimeError(
                f"Picard iteration did not reach tol {PICARD_TOL:.1e} within "
                f"{PICARD_MAX_ITER} iterations (last increment {node[-1]:.3e})"
            )
        require_invariant_region(F[k], f" at time node {k} (t={times[k]:.6g})")
        increments.append(tuple(node))

    return Trajectory(times, F, grid,
                      meta=PicardRun(kernel_times=kernel_times, increments=tuple(increments)))


def node_gaps(picard: Trajectory, fv: Trajectory) -> np.ndarray:
    """The L1 gap at each positive node of a `picard_solve` trajectory to the
    row of an FV trajectory on the same grid at that time exactly, which a
    solve with the nodes as its `output_times` lands (ValueError if none)."""
    at = np.isin(fv.times, picard.times[1:])   # both increase strictly
    if at.sum() != picard.times.size - 1:
        raise ValueError("the FV trajectory has no row at some Picard node")
    return row_dots(picard.grid.qweight, np.abs(picard.values[1:] - fv.values[at]))
