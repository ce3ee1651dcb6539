"""Picard iteration on the mild (integral) form of the equation.

Writing the flow as the linear Fokker-Planck semigroup plus a nonlinear
correction, a solution satisfies

    f(t) = K(t)[f0] - integral_0^t e^{-(t-s)} grad_v K(t-s)[w f(s,w)^2] ds

with K the Mehler kernel.  The map T sending a trajectory to the right
hand side is a contraction for small horizons, and its fixed point is the
short-time solution; this module iterates T and serves as an independent
oracle for the finite-volume solver.

The s-integrand carries a nu(t-s)^(-1/2) endpoint singularity; the
substitution s = t - tau^2 removes it, and Gauss-Legendre nodes in tau
with the edge-integrated kernel gradient (accurate uniformly in t-s)
evaluate the integral.

Each time node is evaluated in one batch over its quadrature nodes: the
interpolated integrands v f(s_j)^2 form one (nodes, cells) array, and the
kernel gradients at all theta_j = t - s_j come from one tensor of edge
Gaussians (`mehler._edge_gaussians`).  That tensor holds only the top half
of the rows, because the mesh is mirror symmetric; the bottom half is read
off the reversed data.

The tensor depends on the node alone, not on the iterate, and the map is
causal (node k of T(F) reads only nodes 0..k of F).  So `picard_solve`
runs a block of iterations node by node: each node's tensor is built once
and applied to every iterate of the block, then dropped before the next
node's is built.  One node's tensor, 32 * ceil(n/2) * (n+1) doubles for n
cells, is held at a time.  Blocks are sized from the observed contraction;
the stopping rules see the same increments, iteration by iteration, as
when the map is applied one step at a time, and the iterates are identical
to those of that plain loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import CARTESIAN_1D, DistributionState, Grid
from .mehler import _contract_edge_gaussians, _edge_gaussians, apply_kernel
from .trajectory import RunRecord, Trajectory


# The Picard numerics are fixed.  The figures below were measured on
# 0.5 F_{M*} data (beta* = 1), 16 time nodes, at 128 cells to t = 1 and at
# 256 cells to t = 1/4.

# Stop once the sup-over-time L1 increment is this small: the map contracts
# by a factor of about 0.1 per iteration there, so the iterate is then about
# 1e-9 from the fixed point, below the quadrature error.
PICARD_TOL = 1e-8
# Enough for contraction factors up to about 0.7 from a unit first
# increment (0.7^50 ~ 2e-8); slower contraction means the horizon should
# shrink, which the three-growths abort usually reports first.
PICARD_MAX_ITER = 50
# Consecutive growing increments after which the iteration is abandoned.
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
    integral form holds the invariants; `increments` are per iteration."""

    iterations: int
    increments: tuple[float, ...]
    kernel_builds: int


def _linear_terms(f0: DistributionState, params: DuhamelParams) -> np.ndarray:
    """K(t_k)[f0] for every positive time node (constant across iterations)."""
    times = params.time_grid()
    out = np.empty((times.size, f0.grid.cells))
    out[0] = f0.values
    for k in range(1, times.size):
        out[k] = apply_kernel(float(times[k]), f0.grid, f0.values)
    return out


def _duhamel_integral(times: np.ndarray, k: int, grid: Grid):
    """The Duhamel integral at time node k >= 1, as a map of the trajectory.

    Everything but the integrand is fixed by the node: the tau quadrature,
    the interpolation of the trajectory at every s_j and the Gaussian tensor
    of the kernel gradients at theta_j = t_k - s_j.  They are computed here
    once; the returned map of a trajectory matrix F reads only rows 0..k,
    because every s_j lies in [0, t_k).
    """
    t = times[k]
    half = 0.5 * np.sqrt(t)
    tau = half * (_TAU_NODES + 1.0)
    wtau = half * _TAU_WEIGHTS
    theta = tau ** 2
    s = t - theta
    # linear-in-time interpolation of the trajectory at every s_j
    i = np.clip(np.searchsorted(times, s), 1, times.size - 1)
    lam = ((s - times[i - 1]) / (times[i] - times[i - 1]))[:, None]
    coeff = wtau * 2.0 * tau * np.exp(-theta)
    gaussians = _edge_gaussians(theta, grid)

    def integral(F: np.ndarray) -> np.ndarray:
        fs = (1.0 - lam) * F[i - 1] + lam * F[i]
        return coeff @ _contract_edge_gaussians(gaussians, grid.node * fs * fs)

    return integral


def _picard_block(F: np.ndarray, f0: DistributionState, params: DuhamelParams,
                  lin: np.ndarray, iterations: int) -> np.ndarray:
    """The next `iterations` Picard iterates of the trajectory matrix F,
    computed node by node with one `_duhamel_integral` per node."""
    times = params.time_grid()
    out = np.empty((iterations + 1,) + F.shape)
    out[0] = F
    out[1:, 0] = f0.values
    for k in range(1, times.size):
        integral = _duhamel_integral(times, k, f0.grid)
        for n in range(1, iterations + 1):
            out[n, k] = lin[k] - integral(out[n - 1])
        del integral   # so that one node's tensor is held at a time
    return out[1:]


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
    return _picard_block(F, f0, params, lin, 1)[0]


def _block_size(increments: list[float], grows: int) -> int:
    """Iterations in the next block of `picard_solve`.

    A contracting run extrapolates its last two increments geometrically to
    PICARD_TOL.  Otherwise, at the start or when the last increment did not
    shrink, the block is three iterations less the growths already counted,
    so a run that does not contract is not carried far past its abort.
    Either way it stops at PICARD_MAX_ITER.  A short block costs one more
    build per node; a long one only iterates past the stop, and those
    iterates are discarded.
    """
    if len(increments) >= 2 and increments[-1] < increments[-2]:
        ratio = increments[-1] / increments[-2]
        size = math.ceil(math.log(PICARD_TOL / increments[-1]) / math.log(ratio))
    else:
        size = _GROWTHS_TO_ABORT - grows
    return max(1, min(size, PICARD_MAX_ITER - len(increments)))


def picard_solve(f0: DistributionState, params: DuhamelParams) -> Trajectory:
    """Iterate the mild-equation map to its fixed point.

    The start iterate is the purely linear evolution K(t)[f0].  Iteration
    stops when the sup-over-time L1 increment drops below PICARD_TOL;
    three consecutive growing increments abort with a request to shrink
    t_final (the contraction constant degrades with the horizon).  The
    iterates are computed in blocks (see the module docstring), and these
    rules are applied to a block's increments in order, so blocks change
    no result.
    """
    if f0.grid.geometry != CARTESIAN_1D:
        raise ValueError("the integral-equation solver requires a cartesian1d grid")
    grid = f0.grid
    lin = _linear_terms(f0, params)
    F = lin.copy()

    increments: list[float] = []
    grows = 0
    kernel_builds = 0
    while len(increments) < PICARD_MAX_ITER:
        block = _picard_block(F, f0, params, lin, _block_size(increments, grows))
        kernel_builds += params.time_nodes - 1
        for F_next in block:
            inc = float(np.max(np.dot(np.abs(F_next - F), grid.qweight)))
            increments.append(inc)
            F = F_next
            if inc <= PICARD_TOL:
                traj = Trajectory(params.time_grid(),
                                  [f0] + [DistributionState(grid, row) for row in F[1:]])
                run = PicardRun.from_monitors(
                    F, F, traj.column("mass"), traj.column("free_energy"),
                    iterations=len(increments), increments=tuple(increments),
                    kernel_builds=kernel_builds)
                return replace(traj, meta=run)
            if len(increments) >= 2 and increments[-1] > increments[-2]:
                grows += 1
                if grows >= _GROWTHS_TO_ABORT:
                    raise RuntimeError(
                        "Picard iteration is not contracting (increment grew three times "
                        "in a row); shrink t_final"
                    )
            else:
                grows = 0
    raise RuntimeError(
        f"Picard iteration did not reach tol {PICARD_TOL:.1e} within "
        f"{PICARD_MAX_ITER} iterations (last increment {increments[-1]:.3e})"
    )
