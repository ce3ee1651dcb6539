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
import numbers
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .equilibrium import beta_of_mass, equilibrium_state
from .functionals import CLAMP_DELTA, compute_diagnostics, equilibrium_free_energy
from .grid import CARTESIAN_1D, DistributionState, Grid, boundary_density, integrate, moment
from .trajectory import RunRecord, Trajectory

logger = logging.getLogger(__name__)

BOUNDARY_DENSITY_WARN = 1e-8


# The CFL factor.  1/2 keeps the adaptive step inside the invariant region:
# the jump term of `_FvKernel.stable_dt` is worst >= area_i |dxi_i| h / q_j for
# both cells j next to interface i, so the two interfaces of cell j give
# sum_i area_i |dxi_i| <= 2 worst q_j / h, and
#   dt = CFL h^2 / (2 + worst) <= h^2 / (2 worst) <= q_j h / sum_i area_i |dxi_i|,
# which is the bound of `_FvKernel.hard_dt_bound` in either geometry.
CFL = 0.5


@dataclass(frozen=True)
class FvParams:
    t_final: float
    output_stride: int = 100

    def __post_init__(self):
        if not 0 < self.t_final < math.inf:
            raise ValueError("t_final must be positive and finite")
        if not isinstance(self.output_stride, numbers.Integral) or self.output_stride < 1:
            raise ValueError("output_stride must be an integer >= 1")


@dataclass(frozen=True)
class FvRun(RunRecord):
    """Run record of `solve`: extrema over every step, and the step count."""

    steps: int


@dataclass(frozen=True)
class DecayBound:
    """Exponential decay data: rel. entropy decays at least like exp(-2Ct)."""

    mass: float
    m_star_mass: float
    beta_star: float

    def __post_init__(self):
        if self.m_star_mass < self.mass:
            raise ValueError("the dominating mass must be >= the solution mass")
        if not self.beta_star > 0:
            raise ValueError("beta_star must be positive")

    @property
    def rate_constant(self) -> float:
        """C = 1 - 1/(beta* + 1), in (0, 1)."""
        return 1.0 - 1.0 / (self.beta_star + 1.0)


def decay_bound(mass: float, m_star_mass: float, dim: int) -> DecayBound:
    """Build the decay bound for data dominated by the equilibrium of mass m*."""
    return DecayBound(mass=mass, m_star_mass=m_star_mass,
                      beta_star=beta_of_mass(m_star_mass, dim).beta)


class _FvKernel:
    """The explicit FV step on the last axis of a (..., cells) state.

    Built once per march: it holds the grid's constants and preallocated
    buffers, owns the state `values` (updated in place) with its potential
    `xi` and potential jumps `dxi`, and allocates no array per step.  Every
    floating-point operation is that of `functionals.potential`,
    `upwind_mobility` and the flux divergence, in the same order, so a march
    is bit-identical to those formulas.  Cartesian grids skip the unit
    interface areas and jump ratios, since multiplying by 1.0 is exact.
    Rows of a batch are stepped together with the step size of the roughest.

    At these sizes a numpy call costs far more than its arithmetic, so
    operations of one kind share a call where their operands can be laid
    out as one array: the two upper clamps, the three complements taken
    after each update and the two mobility candidates.  For the same reason
    outputs are passed positionally, which numpy parses faster than `out=`;
    `np.maximum` and `np.minimum` keep `out=`, since numpy deprecates a
    positional output for them.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        cells = np.shape(values)
        jumps = cells[:-1] + (grid.cells - 1,)
        h = grid.width
        # scalar operands as 0-d arrays, which numpy takes faster than floats
        self._zero, self.neg_h = np.array(0.0), np.array(-h)
        self.lo, self.hi = np.array(CLAMP_DELTA), np.array(1.0 - CLAMP_DELTA)
        self.half_sq = grid.speed ** 2 / 2
        self.qweight = grid.qweight
        self.dt_numerator = CFL * h * h
        self.floor = h * grid.extent
        if grid.geometry == CARTESIAN_1D:
            self.area = self.jump_ratio = None
        else:
            # worst adjacent area * h / cell measure per interior interface
            self.area = grid.interface_area[1:-1]
            self.jump_ratio = np.maximum(self.area * h / grid.qweight[:-1],
                                         self.area * h / grid.qweight[1:])

        # rows: max(f, delta) | f | clip(f, delta, 1 - delta) | min(f, 1 - delta)
        clamps = np.empty((4,) + cells)
        self.values = clamps[1]
        self.values[...] = values
        self._lower, self._clipped = clamps[0], clamps[2]
        self._upper_in, self._upper_out = clamps[:2].reshape(-1), clamps[2:].reshape(-1)
        # rows: 1 - f | 1 - clip(f) | -min(f, 1 - delta), from clamp rows 1-3
        # (-0.0 - x is -x, signed zeros included)
        complements = np.empty((3,) + cells)
        self._complement_in, self._complement_out = clamps[1:].reshape(-1), complements.reshape(-1)
        self._minuends = np.repeat([1.0, 1.0, -0.0], self.values.size)
        one_minus = complements[0]
        self._one_minus_clipped, self._neg_upper = complements[1], complements[2]
        self._ratio = np.empty(cells)
        self.xi = np.empty(cells)
        self.dxi = np.empty(jumps)
        self._xi_right, self._xi_left = self.xi[..., 1:], self.xi[..., :-1]
        self._abs_dxi = np.empty(jumps)

        # the mobility candidates f_l (1 - f_r) (left donor) and f_r (1 - f_l)
        # (right donor) as one product of rows (f_l, f_r) and (1 - f_r, 1 - f_l)
        self._neighbours = as_strided(self.values, (2,) + jumps,
                                      (self.values.itemsize,) + self.values.strides,
                                      writeable=False)
        self._swapped = as_strided(one_minus[..., 1:], (2,) + jumps,
                                   (-one_minus.itemsize,) + one_minus.strides,
                                   writeable=False)
        self._candidates = np.empty((2,) + jumps)
        self._left_donor = np.empty(jumps, dtype=bool)
        self.flux = np.zeros(cells[:-1] + (grid.cells + 1,))  # the zero ends stay
        self._interior_flux = self.flux[..., 1:-1]
        self._flux_right, self._flux_left = self.flux[..., 1:], self.flux[..., :-1]
        self._change = np.empty(cells)
        self._log_term, self._energy = np.empty(cells), np.empty(cells)
        self._potential()

    def _potential(self) -> None:
        """xi = |v|^2/2 + log(c/(1 - c)), c = clip(f, delta, 1 - delta), and dxi;
        also 1 - f for the next mobility and -min(f, 1 - delta) for `free_energy`."""
        np.maximum(self.values, self.lo, out=self._lower)
        np.minimum(self._upper_in, self.hi, out=self._upper_out)
        np.subtract(self._minuends, self._complement_in, self._complement_out)
        np.divide(self._clipped, self._one_minus_clipped, self._ratio)
        np.log(self._ratio, self._ratio)
        np.add(self.half_sq, self._ratio, self.xi)
        np.subtract(self._xi_right, self._xi_left, self.dxi)

    def stable_dt(self) -> float:
        """dt = CFL h^2 / (2 + max(h * extent, largest jump ratio * |dxi|)).

        The h * extent floor is the classical drift-diffusion bound; the
        state-dependent jump term shrinks the step for rough data so the
        invariant region survives the explicit update.
        """
        worst = 0.0
        if self.dxi.size:
            adxi = np.abs(self.dxi, self._abs_dxi)
            if self.jump_ratio is not None:
                np.multiply(adxi, self.jump_ratio, adxi)
            worst = float(np.maximum.reduce(adxi, axis=None))
        return self.dt_numerator / (2.0 + max(self.floor, worst))

    def hard_dt_bound(self) -> float:
        """Step size beyond which the update may leave [0, 1] (one state)."""
        grid = self.grid
        adxi = np.abs(self.dxi)
        area = grid.interface_area[1:-1]
        denom = np.zeros(grid.cells)
        denom[:-1] += area * adxi
        denom[1:] += area * adxi
        with np.errstate(divide="ignore"):
            bounds = grid.qweight * grid.width / denom
        return float(np.min(np.where(denom > 0, bounds, np.inf)))

    def advance(self, dt: float) -> None:
        """f -= dt div(area J) / q, J = -mob dxi / h with the cross-upwind
        mobility, then the potential of the new f."""
        np.multiply(self._neighbours, self._swapped, self._candidates)
        mob = self._candidates[1]
        np.less(self.dxi, self._zero, self._left_donor)
        np.copyto(mob, self._candidates[0], where=self._left_donor)
        J = self._interior_flux
        # (-mob dxi)/h, with the sign moved onto h (exact)
        np.multiply(mob, self.dxi, J)
        np.divide(J, self.neg_h, J)
        if self.area is not None:
            np.multiply(self.area, J, J)
        change = self._change
        np.subtract(self._flux_right, self._flux_left, change)
        np.multiply(change, dt, change)
        np.divide(change, self.qweight, change)
        np.subtract(self.values, change, self.values)
        self._potential()

    def free_energy(self) -> float:
        """H = sum q (f xi + log(1 - min(f, 1 - delta))), from the current xi (one state).

        Since xi = |v|^2/2 + log(f_c/(1 - f_c)) with f_c = clip(f, delta, 1 - delta),
        each term is |v|^2/2 f + s(f), exactly so for f = 0 and delta <= f <= 1 - delta;
        a cell with 0 < f < delta or f > 1 - delta is off by at most delta * q.
        """
        log_term = np.log1p(self._neg_upper, self._log_term)
        energy = np.multiply(self.values, self.xi, self._energy)
        np.add(energy, log_term, energy)
        return np.dot(self.qweight, energy)


def _march(kernel: _FvKernel, t_final: float, t: float = 0.0):
    """Advance `kernel` from t to t_final with its stable step, the last step
    clipped onto t_final; yields t after each step."""
    t_end = t_final * (1 - 1e-14)
    while t < t_end:
        dt = min(kernel.stable_dt(), t_final - t)
        kernel.advance(dt)
        t += dt
        yield t


def max_stable_dt(state: DistributionState) -> float:
    """Largest admissible explicit step for the current state (see `_FvKernel.stable_dt`)."""
    return _FvKernel(state.grid, state.values).stable_dt()


def step(state: DistributionState, dt: float) -> DistributionState:
    """One forward-Euler update.  Raises if dt exceeds the invariant-region bound."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    kernel = _FvKernel(state.grid, state.values)
    hard = kernel.hard_dt_bound()
    if dt > hard * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} too large for this state (invariant-region bound {hard:.3e})"
        )
    kernel.advance(dt)
    return DistributionState(state.grid, kernel.values)


def solve(f0: DistributionState, params: FvParams, output_times=()) -> Trajectory:
    """March to t_final, collecting diagnostics every `output_stride` steps,
    at each of `output_times` and after the last step.

    The march clips its step onto each output time, which must be strictly
    increasing and lie in (0, t_final]; a row is recorded there unless a
    stride row already landed on it.  The step size is re-evaluated each
    step from the current state.  The run record (`FvRun`) holds per-step
    extrema so conservation, the invariant region and entropy monotonicity
    can be checked over the whole run, not just at output times.  Each step
    evaluates the potential once, for its step size, its update and the
    free-energy monitor; the monitors gather elementwise extrema and
    per-step values, reduced after the march.
    """
    targets = np.asarray(output_times, dtype=float)
    if targets.ndim != 1 or not np.all((targets > 0) & (targets <= params.t_final)) \
            or np.any(np.diff(targets) <= 0):
        raise ValueError("output_times must be strictly increasing and lie in (0, t_final]")
    grid = f0.grid
    mass = integrate(f0)
    eq = equilibrium_state(mass, grid)
    h_eq = equilibrium_free_energy(mass, grid.dim)
    kernel = _FvKernel(grid, f0.values)
    values = kernel.values

    stride = params.output_stride
    qweight = grid.qweight
    times = [0.0]
    states = [f0]
    rows = [compute_diagnostics(f0, 0.0, eq, h_eq)]
    lowest = values.copy()
    highest = values.copy()
    # per-step values as packed doubles: 8 bytes a step, not a float object
    masses = array("d")
    free_energies = array("d", [kernel.free_energy()])

    def record(t: float) -> None:
        st = DistributionState(grid, values)
        times.append(t)
        states.append(st)
        rows.append(compute_diagnostics(st, t, eq, h_eq))

    steps, t = 0, 0.0
    for target in (*targets.tolist(), params.t_final):
        for t in _march(kernel, target, t):
            steps += 1
            np.minimum(lowest, values, out=lowest)
            np.maximum(highest, values, out=highest)
            masses.append(np.dot(qweight, values))
            free_energies.append(kernel.free_energy())
            if steps % stride == 0:
                record(t)
        if times[-1] != t:
            record(t)

    boundary = boundary_density(states[-1])
    if boundary > BOUNDARY_DENSITY_WARN:
        logger.warning(
            "boundary density %.3e exceeds %.1e; the domain truncation may be under-resolved",
            boundary, BOUNDARY_DENSITY_WARN,
        )

    drift = np.abs(np.array(masses) - mass) / max(abs(mass), 1e-300)
    run = FvRun(min_value=float(lowest.min()), max_value=float(highest.max()), steps=steps,
                max_mass_drift_rel=max(0.0, float(drift.max())),
                max_free_energy_rise=max(0.0, float(np.diff(free_energies).max())))
    return Trajectory(times=np.array(times), states=states, diagnostics=rows, meta=run)


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise ordering and L1-contraction slack of two synchronized runs."""

    max_positive_part: float       # max over time/space of (f - g)_+
    max_contraction_slack: float   # max over time of ||f-g||_1 - ||f0-g0||_1
    t_final: float
    steps: int


def require_ordered_pair(f0: DistributionState, g0: DistributionState) -> None:
    """Raise ValueError unless `comparison_experiment` accepts f0 and g0."""
    if not f0.grid.matches(g0.grid):
        raise ValueError("states live on different grids")
    if np.any(f0.values > g0.values):
        raise ValueError("comparison requires f0 <= g0 pointwise")


def comparison_experiment(f0: DistributionState, g0: DistributionState,
                          params: FvParams) -> ComparisonReport:
    """Run ordered initial data f0 <= g0 side by side with a shared step size.

    Both are stepped as one batch of two, so the shared step is the smaller
    of their two stable steps.
    """
    require_ordered_pair(f0, g0)
    grid = f0.grid
    kernel = _FvKernel(grid, np.stack([f0.values, g0.values]))
    fv, gv = kernel.values

    l1_0 = float(np.dot(grid.qweight, np.abs(fv - gv)))
    gap = np.empty(grid.cells)
    highest = np.full(grid.cells, -np.inf)
    l1 = array("d")
    for _ in _march(kernel, params.t_final):
        np.subtract(fv, gv, out=gap)
        np.maximum(highest, gap, out=highest)
        np.abs(gap, out=gap)
        l1.append(np.dot(grid.qweight, gap))
    return ComparisonReport(max_positive_part=max(0.0, float(highest.max())),
                            max_contraction_slack=max(0.0, float((np.array(l1) - l1_0).max())),
                            t_final=params.t_final, steps=len(l1))


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


def require_moment_data(f0: DistributionState, order: int) -> None:
    """Raise ValueError unless `radial_moment_propagation` accepts a run from f0."""
    if f0.grid.geometry != "radialNd":
        raise ValueError("moment propagation requires a radialNd grid")
    if np.any(np.diff(f0.values) > 1e-12):
        raise ValueError("initial profile must be radially non-increasing")
    if order % 2 != 0 or order < 2:
        raise ValueError("order must be an even integer >= 2")


def radial_moment_propagation(traj: Trajectory, order: int = 4) -> MomentPropagationReport:
    """Uniform-in-time moment control for radial non-increasing data.

    Analyses one run to t_final: the sup of the 2*gamma moment over the
    nested horizons (t_final/4, t_final/2, t_final) must agree if moments
    are propagated uniformly in time.  Also checks that the radial profile
    stays non-increasing at every output time.
    """
    require_moment_data(traj.states[0], order)
    grid = traj.states[0].grid
    t_final = float(traj.times[-1])   # `_march` ends on t_final, to 1e-14 relative
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
