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
Gaussians (`mehler._kernel_gradient_edges`).  That tensor holds only the
top half of the rows, because the mesh is mirror symmetric; the bottom
half is read off the reversed data.  Nothing is cached across iterations:
the tensor is rebuilt on every application of the map, and its size is
bounded by chunking the quadrature nodes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .equilibrium import equilibrium_state
from .functionals import compute_diagnostics, equilibrium_free_energy
from .grid import CARTESIAN_1D, DistributionState, integrate
from .mehler import _apply_kernel_raw, _kernel_gradient_edges
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


def _linear_terms(f0: DistributionState, params: DuhamelParams) -> np.ndarray:
    """K(t_k)[f0] for every positive time node (constant across iterations)."""
    times = params.time_grid()
    out = np.empty((times.size, f0.grid.cells))
    out[0] = f0.values
    for k in range(1, times.size):
        out[k] = _apply_kernel_raw(float(times[k]), f0.grid, f0.values)
    return out


def _apply_T_matrix(F: np.ndarray, f0: DistributionState, params: DuhamelParams,
                    lin: np.ndarray | None = None) -> np.ndarray:
    """One application of the mild-equation map to a trajectory matrix."""
    grid = f0.grid
    times = params.time_grid()
    if lin is None:
        lin = _linear_terms(f0, params)
    out = np.empty_like(F)
    out[0] = f0.values
    for k in range(1, times.size):
        t = times[k]
        half = 0.5 * np.sqrt(t)
        tau = half * (_TAU_NODES + 1.0)
        wtau = half * _TAU_WEIGHTS
        theta = tau ** 2
        s = t - theta
        # linear-in-time interpolation of the trajectory at every s_j
        i = np.clip(np.searchsorted(times, s), 1, times.size - 1)
        lam = ((s - times[i - 1]) / (times[i] - times[i - 1]))[:, None]
        fs = (1.0 - lam) * F[i - 1] + lam * F[i]
        u = grid.node * fs * fs
        coeff = wtau * 2.0 * tau * np.exp(-theta)
        out[k] = lin[k] - coeff @ _kernel_gradient_edges(theta, grid, u)
    return out


def _wrap_trajectory(F: np.ndarray, f0: DistributionState,
                     params: DuhamelParams) -> Trajectory:
    grid = f0.grid
    times = params.time_grid()
    mass = integrate(f0)
    if mass > 0:
        eq = equilibrium_state(mass, grid)
        h_eq = equilibrium_free_energy(mass, grid.dim)
    else:  # zero data has no equilibrium; reference the zero state instead
        eq = DistributionState(grid, np.zeros(grid.cells))
        h_eq = 0.0
    states = [f0] + [DistributionState(grid, row) for row in F[1:]]
    rows = [compute_diagnostics(s, float(t), eq, h_eq) for t, s in zip(times, states)]
    return Trajectory(times=times, states=states, diagnostics=rows)


def apply_T(f_traj: Trajectory, f0: DistributionState,
            params: DuhamelParams) -> Trajectory:
    """Apply the mild-equation map to a stored trajectory."""
    if f0.grid.geometry != CARTESIAN_1D:
        raise ValueError("the integral-equation solver requires a cartesian1d grid")
    times = params.time_grid()
    if f_traj.times.size != times.size or not np.allclose(f_traj.times, times, rtol=0, atol=1e-14):
        raise ValueError("trajectory times do not match the solver time grid")
    F = np.array([s.values for s in f_traj.states])
    return _wrap_trajectory(_apply_T_matrix(F, f0, params), f0, params)


def picard_solve(f0: DistributionState, params: DuhamelParams) -> Trajectory:
    """Iterate the mild-equation map to its fixed point.

    The start iterate is the purely linear evolution K(t)[f0].  Iteration
    stops when the sup-over-time L1 increment drops below PICARD_TOL;
    three consecutive growing increments abort with a request to shrink
    t_final (the contraction constant degrades with the horizon).
    """
    if f0.grid.geometry != CARTESIAN_1D:
        raise ValueError("the integral-equation solver requires a cartesian1d grid")
    grid = f0.grid
    lin = _linear_terms(f0, params)
    F = lin.copy()

    increments: list[float] = []
    grows = 0
    for iteration in range(1, PICARD_MAX_ITER + 1):
        F_next = _apply_T_matrix(F, f0, params, lin)
        inc = float(np.max(np.dot(np.abs(F_next - F), grid.qweight)))
        increments.append(inc)
        F = F_next
        if inc <= PICARD_TOL:
            traj = _wrap_trajectory(F, f0, params)
            mass0 = traj.diagnostics[0].mass
            run = PicardRun(
                min_value=min(float(s.values.min()) for s in traj.states),
                max_value=max(float(s.values.max()) for s in traj.states),
                max_mass_drift_rel=float(np.max(np.abs(traj.column("mass") - mass0))
                                         / max(abs(mass0), 1e-300)),
                max_free_energy_rise=float(np.max(np.diff(traj.column("free_energy")),
                                                  initial=0.0)),
                iterations=iteration, increments=tuple(increments))
            return replace(traj, meta=run)
        if len(increments) >= 2 and increments[-1] > increments[-2]:
            grows += 1
            if grows >= 3:
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
