"""Entropy-dissipative finite-volume solver for the nonlinear Fokker-Planck flow.

The scheme discretizes div(f(1-f) grad(|v|^2/2 + log(f/(1-f)))) with a
potential-difference flux and cross-upwind mobility f_donor(1-f_receiver):

* sampled equilibria have a constant discrete potential and are exact
  steady states,
* the mobility vanishes for empty donors and full receivers, which keeps
  every explicit step inside [0, 1] under the step-size bound below,
* fluxes telescope, so mass is conserved to roundoff,
* the discrete free energy is non-increasing (same mobility as the
  dissipation functional).

Forward Euler in time with a state-dependent parabolic step bound; radial
geometry weights fluxes by the interface area r^(N-1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import beta_of_mass, equilibrium_state
from .functionals import (
    DEFAULT_CLAMP_DELTA,
    compute_diagnostics,
    equilibrium_free_energy,
    potential,
    upwind_mobility,
)
from .grid import DistributionState, Grid, integrate, moment
from .trajectory import Trajectory

logger = logging.getLogger(__name__)

BOUNDARY_DENSITY_WARN = 1e-8


@dataclass(frozen=True)
class FvParams:
    t_final: float
    cfl_safety: float = 0.5
    clamp_delta: float = DEFAULT_CLAMP_DELTA
    output_stride: int = 100
    dt_override: float | None = None

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        # cfl <= 1/2 keeps the adaptive step inside the invariant region.  The
        # jump term of `max_stable_dt` is worst >= area_i |dxi_i| h / q_j for
        # both cells j next to interface i, so the two interfaces of cell j
        # give sum_i area_i |dxi_i| <= 2 worst q_j / h, and
        #   dt = cfl h^2 / (2 + worst) <= h^2 / (2 worst) <= q_j h / sum_i area_i |dxi_i|,
        # which is the bound of `_hard_dt_bound` in either geometry.
        if not 0 < self.cfl_safety <= 0.5:
            raise ValueError("cfl_safety must lie in (0, 0.5]")
        # delta = 0 puts log(0) into the potential; delta >= 1/2 clips every
        # state to a constant potential.
        if not 0 < self.clamp_delta < 0.5:
            raise ValueError("clamp_delta must lie in (0, 0.5)")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.dt_override is not None and not self.dt_override > 0:
            raise ValueError("dt_override must be positive")


@dataclass(frozen=True)
class DecayBound:
    """Exponential decay data: rel. entropy decays at least like exp(-2Ct)."""

    mass: float
    m_star_mass: float
    beta_star: float
    rate_constant: float

    def __post_init__(self):
        if self.m_star_mass < self.mass:
            raise ValueError("the dominating mass must be >= the solution mass")
        expected = 1.0 - 1.0 / (self.beta_star + 1.0)
        if not math.isclose(self.rate_constant, expected, rel_tol=1e-12):
            raise ValueError("rate_constant inconsistent with beta_star")
        if not 0 < self.rate_constant < 1:
            raise ValueError("rate constant must lie in (0, 1)")


def decay_bound(mass: float, m_star_mass: float, dim: int) -> DecayBound:
    """Build the decay bound for data dominated by the equilibrium of mass m*."""
    beta_star = beta_of_mass(m_star_mass, dim).beta
    return DecayBound(
        mass=mass,
        m_star_mass=m_star_mass,
        beta_star=beta_star,
        rate_constant=1.0 - 1.0 / (beta_star + 1.0),
    )


def interface_flux(state: DistributionState,
                   clamp_delta: float = DEFAULT_CLAMP_DELTA) -> np.ndarray:
    """Fluxes at the cells' interfaces (length cells + 1, zero at the boundary).

    J = -mobility * (xi_right - xi_left)/h with xi the discrete potential;
    the area factor of radial interfaces is applied by `step`, not here.
    """
    grid = state.grid
    J = np.zeros(grid.cells + 1)
    xi = potential(state.values, grid, clamp_delta)
    mob = upwind_mobility(state.values, xi)
    J[1:-1] = -mob * np.diff(xi) / grid.width
    return J


def _jump_ratio(grid: Grid) -> np.ndarray:
    """Worst adjacent area * h / cell-measure ratio per interior interface (1 in 1-D)."""
    if grid.geometry == "cartesian1d":
        return np.ones(grid.cells - 1)
    area = grid.interface_area[1:-1]
    return np.maximum(area * grid.width / grid.qweight[:-1],
                      area * grid.width / grid.qweight[1:])


def _stable_dt(adxi: np.ndarray, grid: Grid, cfl_safety: float,
               jump_ratio: np.ndarray) -> float:
    h = grid.width
    worst = max(h * grid.extent, float((adxi * jump_ratio).max()) if adxi.size else 0.0)
    return cfl_safety * h * h / (2.0 + worst)


def max_stable_dt(state: DistributionState, params: FvParams) -> float:
    """Largest admissible explicit step for the current state.

    dt = cfl * h^2 / (2 + max(h * extent, largest potential jump)); the
    h * extent floor reproduces the classical drift-diffusion bound, the
    state-dependent jump term shrinks the step for rough data so the
    invariant region survives the explicit update.
    """
    grid = state.grid
    adxi = np.abs(np.diff(potential(state.values, grid, params.clamp_delta)))
    return _stable_dt(adxi, grid, params.cfl_safety, _jump_ratio(grid))


def _hard_dt_bound(adxi: np.ndarray, grid: Grid) -> float:
    """Step size beyond which the update may leave [0, 1]."""
    area = grid.interface_area[1:-1]
    denom = np.zeros(grid.cells)
    denom[:-1] += area * adxi
    denom[1:] += area * adxi
    with np.errstate(divide="ignore"):
        bounds = grid.qweight * grid.width / denom
    return float(np.min(np.where(denom > 0, bounds, np.inf)))


def _advance(values: np.ndarray, xi: np.ndarray, dxi: np.ndarray, dt: float,
             grid: Grid) -> np.ndarray:
    """Forward-Euler update of `values` from its potential xi (dxi = diff(xi))."""
    mob = upwind_mobility(values, xi)
    aJ = np.zeros(grid.cells + 1)
    aJ[1:-1] = grid.interface_area[1:-1] * (-mob * dxi / grid.width)
    return values - dt * np.diff(aJ) / grid.qweight


def step(state: DistributionState, dt: float,
         clamp_delta: float = DEFAULT_CLAMP_DELTA) -> DistributionState:
    """One forward-Euler update.  Raises if dt exceeds the invariant-region bound."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    xi = potential(state.values, grid, clamp_delta)
    dxi = np.diff(xi)
    hard = _hard_dt_bound(np.abs(dxi), grid)
    if dt > hard * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} too large for this state (invariant-region bound {hard:.3e})"
        )
    return DistributionState(grid, _advance(state.values, xi, dxi, dt, grid))


def _free_energy_from_potential(values: np.ndarray, xi: np.ndarray, grid: Grid,
                                clamp_delta: float) -> float:
    """H = sum q (f xi + log(1 - min(f, 1 - delta))), from the step's potential xi.

    Since xi = |v|^2/2 + log(f_c/(1 - f_c)) with f_c = clip(f, delta, 1 - delta),
    each term is |v|^2/2 f + s(f), exactly so for f = 0 and delta <= f <= 1 - delta;
    a cell with 0 < f < delta or f > 1 - delta is off by at most delta * q.
    """
    return float(np.dot(grid.qweight,
                        values * xi + np.log1p(-np.minimum(values, 1.0 - clamp_delta))))


def solve(f0: DistributionState, params: FvParams,
          equilibrium_mass: float | None = None) -> Trajectory:
    """March to t_final, collecting diagnostics every `output_stride` steps.

    The step size is re-evaluated each step from the current state unless
    dt_override pins it.  meta records per-step extrema so conservation,
    the invariant region and entropy monotonicity can be checked over the
    whole run, not just at output times.  Each step evaluates the potential
    once, for its step size, its update and the free-energy monitor.
    """
    grid = f0.grid
    mass = integrate(f0) if equilibrium_mass is None else float(equilibrium_mass)
    eq = equilibrium_state(mass, grid)
    h_eq = equilibrium_free_energy(mass, grid.dim)
    jump_ratio = _jump_ratio(grid)

    values = f0.values.copy()
    t = 0.0
    times = [0.0]
    states = [f0]
    rows = [compute_diagnostics(f0, 0.0, eq, h_eq, params.clamp_delta)]

    min_val = float(values.min())
    max_val = float(values.max())
    mass0 = integrate(f0)
    max_mass_drift = 0.0
    max_h_rise = 0.0
    xi = potential(values, grid, params.clamp_delta)
    h_prev = _free_energy_from_potential(values, xi, grid, params.clamp_delta)

    steps = 0
    while t < params.t_final * (1 - 1e-14):
        dxi = np.diff(xi)
        adxi = np.abs(dxi)
        if params.dt_override is not None:
            dt = params.dt_override
            hard = _hard_dt_bound(adxi, grid)
            if dt > hard * (1 + 1e-12):
                raise ValueError(
                    f"dt = {dt:.3e} violates the invariant-region bound {hard:.3e} at t = {t:.6g}"
                )
        else:
            dt = _stable_dt(adxi, grid, params.cfl_safety, jump_ratio)
        dt = min(dt, params.t_final - t)
        values = _advance(values, xi, dxi, dt, grid)
        t += dt
        steps += 1

        min_val = min(min_val, float(values.min()))
        max_val = max(max_val, float(values.max()))
        m = float(np.dot(grid.qweight, values))
        max_mass_drift = max(max_mass_drift, abs(m - mass0) / max(abs(mass0), 1e-300))
        xi = potential(values, grid, params.clamp_delta)
        h_now = _free_energy_from_potential(values, xi, grid, params.clamp_delta)
        max_h_rise = max(max_h_rise, h_now - h_prev)
        h_prev = h_now

        if steps % params.output_stride == 0 or t >= params.t_final * (1 - 1e-14):
            st = DistributionState(grid, values)
            times.append(t)
            states.append(st)
            rows.append(compute_diagnostics(st, t, eq, h_eq, params.clamp_delta))

    boundary = float(np.abs(values[[0, -1]]).max()) if grid.geometry == "cartesian1d" \
        else float(abs(values[-1]))
    if boundary > BOUNDARY_DENSITY_WARN:
        logger.warning(
            "boundary density %.3e exceeds %.1e; the domain truncation may be under-resolved",
            boundary, BOUNDARY_DENSITY_WARN,
        )

    meta = {
        "solver": "fv",
        "steps": steps,
        "params": params,
        "mass_reference": mass,
        "min_value": min_val,
        "max_value": max_val,
        "max_mass_drift_rel": max_mass_drift,
        "max_free_energy_rise": max_h_rise,
        "boundary_density": boundary,
    }
    return Trajectory(times=np.array(times), states=states, diagnostics=rows, meta=meta)


def values_at(f0: DistributionState, times, params: FvParams) -> list[np.ndarray]:
    """FV values at exactly the requested increasing times, with the step
    size of `solve` and no diagnostics (for cross-solver comparison)."""
    grid = f0.grid
    jump_ratio = _jump_ratio(grid)
    values = f0.values
    t = 0.0
    out = []
    for target in times:
        while t < target * (1 - 1e-14):
            xi = potential(values, grid, params.clamp_delta)
            dxi = np.diff(xi)
            dt = min(_stable_dt(np.abs(dxi), grid, params.cfl_safety, jump_ratio), target - t)
            values = _advance(values, xi, dxi, dt, grid)
            t += dt
        out.append(values.copy())
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise ordering and L1-contraction slack of two synchronized runs."""

    max_positive_part: float       # max over time/space of (f - g)_+
    max_contraction_slack: float   # max over time of ||f-g||_1 - ||f0-g0||_1
    t_final: float
    steps: int


def comparison_experiment(f0: DistributionState, g0: DistributionState,
                          params: FvParams) -> ComparisonReport:
    """Run ordered initial data f0 <= g0 side by side with a shared step size."""
    if not f0.grid.matches(g0.grid):
        raise ValueError("states live on different grids")
    if np.any(f0.values > g0.values):
        raise ValueError("comparison requires f0 <= g0 pointwise")
    grid = f0.grid
    jump_ratio = _jump_ratio(grid)

    fv, gv = f0.values.copy(), g0.values.copy()
    l1_0 = float(np.dot(grid.qweight, np.abs(fv - gv)))
    max_pos = 0.0
    max_slack = 0.0
    t = 0.0
    steps = 0
    while t < params.t_final * (1 - 1e-14):
        xi_f = potential(fv, grid, params.clamp_delta)
        xi_g = potential(gv, grid, params.clamp_delta)
        dxi_f, dxi_g = np.diff(xi_f), np.diff(xi_g)
        dt = min(_stable_dt(np.abs(dxi_f), grid, params.cfl_safety, jump_ratio),
                 _stable_dt(np.abs(dxi_g), grid, params.cfl_safety, jump_ratio),
                 params.t_final - t)
        fv = _advance(fv, xi_f, dxi_f, dt, grid)
        gv = _advance(gv, xi_g, dxi_g, dt, grid)
        t += dt
        steps += 1
        max_pos = max(max_pos, float((fv - gv).max()))
        l1_now = float(np.dot(grid.qweight, np.abs(fv - gv)))
        max_slack = max(max_slack, l1_now - l1_0)
    return ComparisonReport(max_positive_part=max(max_pos, 0.0),
                            max_contraction_slack=max_slack,
                            t_final=params.t_final, steps=steps)


@dataclass(frozen=True)
class DecayFitReport:
    slope: float | None
    rate_bound: float              # -2C
    bound_satisfied: bool
    n_points: int
    window: tuple[float, float]
    at_equilibrium: bool


REL_ENTROPY_FLOOR = 1e-12


def decay_rate_fit(traj: Trajectory, bound: DecayBound,
                   window: tuple[float, float]) -> DecayFitReport:
    """Least-squares slope of log(rel. entropy) against the -2C bound.

    Points where the relative entropy has hit the discretization floor are
    excluded; a trajectory already at equilibrium yields a skipped fit.
    """
    t_lo, t_hi = window
    times = traj.times
    rel = traj.column("rel_entropy")
    if t_lo < times[0] or t_hi > times[-1]:
        raise ValueError("fit window outside the trajectory time range")
    rate_bound = -2.0 * bound.rate_constant
    if rel[0] <= REL_ENTROPY_FLOOR:
        return DecayFitReport(slope=None, rate_bound=rate_bound, bound_satisfied=True,
                              n_points=0, window=window, at_equilibrium=True)
    mask = (times >= t_lo) & (times <= t_hi) & (rel > REL_ENTROPY_FLOOR)
    if mask.sum() < 4:
        raise ValueError("fewer than 4 usable points in the fit window")
    tw, rw = times[mask], rel[mask]
    slope = float(np.polyfit(tw, np.log(rw), 1)[0])
    envelope = rel[0] * np.exp(rate_bound * tw) * 1.05
    satisfied = bool(np.all(rw <= envelope))
    return DecayFitReport(slope=slope, rate_bound=rate_bound,
                          bound_satisfied=satisfied, n_points=int(mask.sum()),
                          window=window, at_equilibrium=False)


@dataclass(frozen=True)
class MomentPropagationReport:
    order: int
    horizons: tuple[float, ...]
    sup_moment: tuple[float, ...]   # sup of the moment over [0, horizon]
    sup_tail: float                 # sup over time of the outer-half tail moment
    spread: float                   # max/min - 1 of sup_moment across horizons
    monotone_preserved: bool


def radial_moment_propagation(traj: Trajectory, order: int = 4) -> MomentPropagationReport:
    """Uniform-in-time moment control for radial non-increasing data.

    Analyses one run to t_final: the sup of the 2*gamma moment over the
    nested horizons (t_final/4, t_final/2, t_final) must agree if moments
    are propagated uniformly in time.  Also checks that the radial profile
    stays non-increasing at every output time.
    """
    f0 = traj.states[0]
    grid = f0.grid
    if grid.geometry != "radialNd":
        raise ValueError("moment propagation requires a radialNd grid")
    if np.any(np.diff(f0.values) > 1e-12):
        raise ValueError("initial profile must be radially non-increasing")
    if order % 2 != 0 or order < 2:
        raise ValueError("order must be an even integer >= 2")

    t_final = traj.meta["params"].t_final
    horizons = (t_final / 4, t_final / 2, t_final)
    mom = np.array([moment(s, order) for s in traj.states])
    monotone = all(np.all(np.diff(s.values) <= 1e-12) for s in traj.states)
    tail_mask = grid.node >= grid.extent / 2
    tail = max(
        float(np.dot(grid.qweight[tail_mask],
                     grid.node[tail_mask] ** order * s.values[tail_mask]))
        for s in traj.states
    )
    sups = tuple(float(mom[traj.times <= hz * (1 + 1e-12)].max()) for hz in horizons)
    spread = max(sups) / min(sups) - 1.0 if min(sups) > 0 else 0.0
    return MomentPropagationReport(order=order, horizons=horizons, sup_moment=sups,
                                   sup_tail=tail, spread=spread,
                                   monotone_preserved=monotone)
