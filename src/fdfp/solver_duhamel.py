"""Picard iteration on the mild (integral) form of the equation.

Writing the flow as the linear Fokker-Planck semigroup plus a nonlinear
correction, a solution satisfies

    f(t) = K(t)[f0] - integral_0^t e^{-(t-s)} grad_v K(t-s)[w f(s,w)^2] ds

with K the Mehler kernel.  The map T sending a trajectory to the right
hand side is a contraction for small horizons, and its fixed point is the
short-time solution; this module computes that fixed point and serves as
an independent oracle for the finite-volume solver.

The s-integrand carries a nu(t-s)^(-1/2) endpoint singularity; the
substitution s = t - tau^2 removes it, and Gauss-Legendre nodes in tau
with the edge-integrated kernel gradient (accurate uniformly in t-s)
evaluate the integral.

Each time node is evaluated in batches over its quadrature nodes: the
interpolated integrands v f(s_j)^2 form one (nodes, cells) array, and the
kernel gradients at the theta_j = t - s_j come from tensors of edge
Gaussians (`mehler._edge_gaussians`).  A tensor holds only the top half of
the rows, because the mesh is mirror symmetric; the bottom half is read off
the reversed data.  It is banded: each block of 16 rows keeps only the
edges within 9 sqrt(nu) of its centres, with the band widths rounded up to
powers of two.  Over a solve the tensors hold 44% of the full tensors'
entries at 512 cells and t = 1/4, and 70% at 128 cells and t = 1.

The map is causal: node k of T(F) reads only nodes 0..k of F.  So the
fixed point is a Volterra equation in time, and `picard_solve` solves it
node by node, k = 1, 2, ...: once rows 0..k-1 are final, only row k is
unknown.  Node k's quadrature nodes with s_j <= t_{k-1} (the history
part) read final rows only; their tensor is built and contracted once.
The rest (the self part, s_j in (t_{k-1}, t_k)) read row k, and are
iterated until the node's L1 increment is at most PICARD_TOL.  Their
integrand is quadratic in the rows a = F[k-1] and b = F[k], so the self
part's tensor is built and folded once into three dense matrices M_x =
sum_j w_xj P_j / norm_j, one for each of v a^2, v a b and v b^2; an
iteration is one product with them.  So a node builds two tensors, one
per part, and each is dropped once used: one tensor is held at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .functionals import free_energy
from .grid import CARTESIAN_1D, DistributionState, Grid, integrate, require_invariant_region
from .mehler import (_apply_folded, _contract_edge_gaussians, _edge_gaussians,
                     _fold_edge_gaussians, apply_kernel)
from .trajectory import RunRecord, Trajectory


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
# Gauss-Legendre nodes in tau for the s-integral: against 64 nodes, 32
# move the fixed point by at most 6.5e-7 (128 cells) and 1.5e-7 (256 cells)
# in sup-over-time L1, far below the 1e-2 cross-check tolerance; 16 nodes
# move it by 1.1e-5.
SINGULAR_QUAD_NODES = 32
_TAU_NODES, _TAU_WEIGHTS = leggauss(SINGULAR_QUAD_NODES)


@dataclass(frozen=True)
class DuhamelParams:
    t_final: float
    time_nodes: int = 16

    def __post_init__(self):
        if not 0 < self.t_final <= 1:
            raise ValueError("t_final must lie in (0, 1]; the construction is local in time")
        if not isinstance(self.time_nodes, numbers.Integral) or self.time_nodes < 8:
            raise ValueError("time_nodes must be an integer >= 8")

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.time_nodes)


@dataclass(frozen=True)
class PicardRun(RunRecord):
    """Run record of `picard_solve`: extrema over the output rows, where the
    integral form holds the invariants.  `increments` holds one tuple per
    positive time node, the L1 increments of that node's iterations.
    `iterations` is the most iterations any node took, and
    `self_iterations` the total over all nodes, each one product with the
    node's folded self part."""

    iterations: int
    self_iterations: int
    increments: tuple[tuple[float, ...], ...]


def _linear_terms(f0: DistributionState, params: DuhamelParams) -> np.ndarray:
    """K(t_k)[f0] for every positive time node (constant across iterations)."""
    times = params.time_grid()
    out = np.empty((times.size, f0.grid.cells))
    out[0] = f0.values
    for k in range(1, times.size):
        out[k] = apply_kernel(float(times[k]), f0.grid, f0.values)
    return out


def _node_integral(times: np.ndarray, k: int, F: np.ndarray, grid: Grid):
    """The Duhamel integral at time node k >= 1 as its history part, an
    array, and its self part, a map of the trajectory matrix; their sum is
    the integral.

    Everything but the integrand is fixed by the node: the tau quadrature,
    the interpolation of the trajectory at every s_j and the Gaussian
    tensors of the kernel gradients at theta_j = t_k - s_j.  The s_j fall
    from t_k towards 0 along the tau nodes.  The suffix of nodes that reads
    rows 0..k-1 alone, the history part (empty at node 1), is contracted
    here against those rows of F.  The prefix (s_j in (t_{k-1}, t_k)) is
    the self part.  Its integrand is v f_s^2 with f_s = (1 - lam) a + lam b,
    a = F[k-1] and b = F[k], that is (1 - lam)^2 v a^2 + 2 lam (1 - lam) v a b
    + lam^2 v b^2.  So it is folded here into one matrix per term.  Each
    part builds its own tensor, which is dropped once contracted or folded.
    """
    t = times[k]
    half = 0.5 * np.sqrt(t)
    tau = half * (_TAU_NODES + 1.0)
    wtau = half * _TAU_WEIGHTS
    theta = tau ** 2
    s = t - theta
    # linear-in-time interpolation of the trajectory at every s_j
    i = np.clip(np.searchsorted(times, s), 1, times.size - 1)
    lam = (s - times[i - 1]) / (times[i] - times[i - 1])
    coeff = wtau * 2.0 * tau * np.exp(-theta)
    split = int(np.count_nonzero(i == k))

    j = np.arange(split, theta.size)
    fs = (1.0 - lam[j, None]) * F[i[j] - 1] + lam[j, None] * F[i[j]]
    history = coeff[j] @ _contract_edge_gaussians(_edge_gaussians(theta[j], grid),
                                                  grid.node * fs * fs)

    lam = lam[:split]
    weights = coeff[:split] * np.stack([(1.0 - lam) ** 2, 2.0 * lam * (1.0 - lam), lam ** 2])
    M = _fold_edge_gaussians(_edge_gaussians(theta[:split], grid), weights, grid.cells)

    def self_part(F: np.ndarray) -> np.ndarray:
        a, b = F[k - 1], F[k]
        return _apply_folded(M, grid.node * np.stack([a * a, a * b, b * b]))

    return history, self_part


def apply_T(F: np.ndarray, f0: DistributionState, params: DuhamelParams,
            lin: np.ndarray | None = None) -> np.ndarray:
    """One application of the mild-equation map to a trajectory matrix F,
    one row per time node of `params`.  `lin` holds the linear terms
    (`_linear_terms(f0, params)`, computed if not given).  The rows of the
    image may leave [0, 1], as the linear semigroup's do."""
    if f0.grid.geometry != CARTESIAN_1D:
        raise ValueError("the integral-equation solver requires a cartesian1d grid")
    F = np.asarray(F, dtype=float)
    if F.shape != (params.time_nodes, f0.grid.cells):
        raise ValueError(f"F must be a (time_nodes, cells) = ({params.time_nodes}, "
                         f"{f0.grid.cells}) matrix, got shape {F.shape}")
    if lin is None:
        lin = _linear_terms(f0, params)
    times = params.time_grid()
    out = np.empty_like(F)
    out[0] = f0.values
    for k in range(1, times.size):
        history, self_part = _node_integral(times, k, F, f0.grid)
        out[k] = lin[k] - history - self_part(F)
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
    if f0.grid.geometry != CARTESIAN_1D:
        raise ValueError("the integral-equation solver requires a cartesian1d grid")
    grid = f0.grid
    times = params.time_grid()
    lin = _linear_terms(f0, params)
    F = np.empty_like(lin)
    F[0] = f0.values

    increments: list[tuple[float, ...]] = []
    for k in range(1, times.size):
        history, self_part = _node_integral(times, k, F, grid)
        base = lin[k] - history
        F[k] = F[k - 1] + (lin[k] - lin[k - 1])
        node: list[float] = []
        grows = 0
        for _ in range(PICARD_MAX_ITER):
            row = base - self_part(F)
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
        # free the folded matrices before the next node's tensors are built;
        # a matrix left between them fragments the heap and raised peak RSS
        del history, self_part
        require_invariant_region(F[k], f" at time node {k} (t={times[k]:.6g})")
        increments.append(tuple(node))

    states = [DistributionState(grid, row) for row in F]
    run = PicardRun.from_monitors(
        F, F, [integrate(s) for s in states], [free_energy(s) for s in states],
        iterations=max(map(len, increments)), self_iterations=sum(map(len, increments)),
        increments=tuple(increments))
    return Trajectory(times, F, grid, meta=run)
