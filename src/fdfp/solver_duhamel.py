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


@dataclass(frozen=True)
class DuhamelParams:
    t_final: float
    time_nodes: int = 16
    picard_tol: float = 1e-8
    picard_max_iter: int = 50
    singular_quad_nodes: int = 32

    def __post_init__(self):
        if not 0 < self.t_final <= 1:
            raise ValueError("t_final must lie in (0, 1]; the construction is local in time")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        for name, least in (("time_nodes", 8), ("picard_max_iter", 1), ("singular_quad_nodes", 4)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")

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
    nodes, weights = leggauss(params.singular_quad_nodes)
    if lin is None:
        lin = _linear_terms(f0, params)
    out = np.empty_like(F)
    out[0] = f0.values
    for k in range(1, times.size):
        t = times[k]
        half = 0.5 * np.sqrt(t)
        tau = half * (nodes + 1.0)
        wtau = half * weights
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
    stops when the sup-over-time L1 increment drops below picard_tol;
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
    for iteration in range(1, params.picard_max_iter + 1):
        F_next = _apply_T_matrix(F, f0, params, lin)
        inc = float(np.max(np.dot(np.abs(F_next - F), grid.qweight)))
        increments.append(inc)
        F = F_next
        if inc <= params.picard_tol:
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
        f"Picard iteration did not reach tol {params.picard_tol:.1e} within "
        f"{params.picard_max_iter} iterations (last increment {increments[-1]:.3e})"
    )
