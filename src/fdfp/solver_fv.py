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
geometry weights fluxes by the interface area r^(N-1).  A step folds the
flux's 1/(-h) and the divergence's 1/q into one factor dt / (-h q).  Long
marches run in verified blocks (`_march`): a block is one kernel call,
reuses a step size that has settled instead of evaluating it, checks
every reused size against the potentials the kernel computed for the rows
it filled, and cuts the block where a check fails, so every step still
has the size its state allows.  The monitors reduce a block at once, not
a step at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import beta_of_mass
from .functionals import CLAMP_DELTA
from .grid import (CARTESIAN_1D, RADIAL_ND, DistributionState, Grid, as_integer,
                   boundary_density, row_dots)
from .trajectory import Trajectory

logger = logging.getLogger(__name__)

BOUNDARY_DENSITY_WARN = 1e-8

# The bounds of the claims that a run and the reports below check
MASS_DRIFT_TOL = 1e-12         # relative mass drift over a run
FREE_ENERGY_RISE_TOL = 1e-10   # largest rise of the free energy in one step
ORDER_TOL = 1e-10              # comparison: largest (f - g)_+ of ordered data
CONTRACTION_TOL = 1e-9         # largest rise of ||f - g||_1 over its initial value
MOMENT_SPREAD_TOL = 0.02       # spread of the sup moment across the horizons
MONOTONE_TOL = 1e-12           # largest rise of a radially non-increasing profile
LANDING_TOL = 1e-14            # the march reaches a target at t >= target (1 - LANDING_TOL)


# The CFL factor.  1/2 keeps the adaptive step inside the invariant region:
# the jump term of `_FvKernel.step_sizes` is worst >= area_i |dxi_i| h / q_j for
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
        object.__setattr__(self, "output_stride", as_integer(
            self.output_stride, "output_stride must be an integer >= 1", 1))


@dataclass(frozen=True)
class FvRun:
    """Run record of `solve`: the lowest and highest cell value, the largest
    relative mass drift and free-energy rise over every step, and the step
    count.  `checks` is the run claim, which `holds` when each check does."""

    min_value: float
    max_value: float
    max_mass_drift_rel: float
    max_free_energy_rise: float
    steps: int

    @classmethod
    def from_monitors(cls, lowest, highest, masses, free_energies, steps):
        """The record of cell values, masses and free energies monitored from
        the initial state on, over `steps` steps."""
        m, e, top = np.asarray(masses, dtype=float), np.asarray(free_energies), np.maximum.reduce
        return cls(min_value=float(np.minimum.reduce(lowest, None)),
                   max_value=float(top(highest, None)),
                   max_mass_drift_rel=float(top(np.abs(m - m[0])) / max(abs(m[0]), 1e-300)),
                   max_free_energy_rise=float(top(e[1:] - e[:-1], initial=0.0)), steps=steps)

    def checks(self) -> list[tuple[str, float, float]]:
        """Conservation, the invariant region [0, 1] and free-energy decay, as
        (name, value, bound) triples; a check holds at value <= bound."""
        return [("mass_drift_rel", self.max_mass_drift_rel, MASS_DRIFT_TOL),
                ("below_zero", max(0.0, -self.min_value), 0.0),
                ("above_one", max(0.0, self.max_value - 1.0), 0.0),
                ("free_energy_rise", self.max_free_energy_rise, FREE_ENERGY_RISE_TOL)]

    @property
    def holds(self) -> bool:
        return all(value <= bound for _, value, bound in self.checks())


def rate_constant(m_star_mass: float, dim: int) -> float:
    """C = 1 - 1/(beta* + 1), in (0, 1), with beta* = beta(M*): the relative
    entropy of data below F_{M*} decays at least like exp(-2Ct)."""
    return 1.0 - 1.0 / (beta_of_mass(m_star_mass, dim).beta + 1.0)


class _FvKernel:
    """The explicit FV step on the last axis of a (..., cells) state.

    Built once per march: it holds the grid's constants and preallocated
    buffers, owns the state `values` (updated in place) with its potential
    `xi` and potential jumps `dxi`, and `advance` allocates no array but the
    per-cell step factor dt / (-h q).  The potential and mobility are those
    of `functionals.potential` and `upwind_mobility`, operation for
    operation; the update f -= div(area mob dxi) (dt / (-h q)) rounds
    differently from f -= dt div(area (-mob dxi / h)) / q, except where h
    and q are powers of two.  Cartesian grids skip the unit interface areas
    and jump ratios, since multiplying by 1.0 is exact.  A batch (B, cells)
    is stepped on views of its last axis, its rows together with the step
    size of the roughest.

    In a march the kernel is the head of a verified block (see `_march`):
    one `advance` call runs the block, evaluating `stable_dt` only until
    the step size settles, and writes each state and its potential into
    the block's rows; when a reused step size proves wrong the kernel
    restarts from the block's last verified row.  `evaluations` counts its
    step-size evaluations and `restarts` those restarts.  `step_sizes` is
    the one step-size formula, for the kernel's own jumps and for those of
    a block's rows.

    At these sizes a numpy call costs far more than its arithmetic, so
    operations of one kind share a call where their operands can be laid
    out as one array (the two complements taken after each update), a run
    of steps is one call with its operands bound to locals once, a step
    size enters as its per-cell factor, rebuilt only when it changes, and
    the potential pass is a closure over the buffers.  For the same reason
    outputs are passed positionally, which numpy parses faster than
    `out=`; `np.maximum` and `np.minimum` keep `out=`, since numpy
    deprecates a positional output for them.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        h = grid.width
        # scalar operands as 0-d arrays, which numpy takes faster than floats
        one, self._zero = np.array(1.0), np.array(0.0)
        lo, hi = np.array(CLAMP_DELTA), np.array(1.0 - CLAMP_DELTA)
        half_sq = grid.speed ** 2 / 2
        self.dt_numerator = CFL * h * h
        self.floor = h * grid.extent
        if grid.geometry == CARTESIAN_1D:
            self.area = self.jump_ratio = None
        else:
            # worst adjacent area * h / cell measure per interior interface
            self.area = grid.interface_area[1:-1]
            self.jump_ratio = np.maximum(self.area * h / grid.qweight[:-1],
                                         self.area * h / grid.qweight[1:])
        self.evaluations = self.restarts = 0

        # rows f | c = clip(f, delta, 1 - delta), then log(c/(1 - c)) in place,
        # and their complements 1 - f | 1 - c, taken in one call
        cells = values.shape
        jumps = cells[:-1] + (grid.cells - 1,)
        clamps, complements = np.zeros((2,) + cells), np.empty((2,) + cells)
        f, clipped = clamps[0], clamps[1]   # indexed: unpacking iterates the array, a few us
        one_minus, one_minus_clipped = complements[0], complements[1]
        self.values = f
        f[...] = values
        self.xi = xi = np.empty(cells)
        self.dxi = dxi = np.empty(jumps)

        # the mobility candidates f_l (1 - f_r) (left donor) and f_r (1 - f_l)
        # (right donor), products of neighbouring cells
        self._left, self._right = f[..., :-1], f[..., 1:]
        self._one_minus_left, self._one_minus_right = one_minus[..., :-1], one_minus[..., 1:]
        self._candidates = np.empty((2,) + jumps)
        self._left_donor = np.empty(jumps, dtype=bool)
        self.flux = np.zeros(cells[:-1] + (grid.cells + 1,))  # -h area J; the zero ends stay
        self._interior_flux = self.flux[..., 1:-1]
        self._flux_right, self._flux_left = self.flux[..., 1:], self.flux[..., :-1]
        self._change = np.empty(cells)
        self._neg_h_q = -h * grid.qweight   # a step of size dt scales its divergence by dt / (-h q)

        # the potential pass xi = |v|^2/2 + log(c/(1 - c)), dxi and 1 - f, of
        # `__init__`, `advance` and `restart`; as a method, not a closure, it
        # made a step 3% slower (21.39 against 20.71 us, 128 radial cells)
        maximum, minimum, subtract, divide, log, add = \
            np.maximum, np.minimum, np.subtract, np.divide, np.log, np.add
        xi_right, xi_left = xi[..., 1:], xi[..., :-1]

        def potential() -> None:
            maximum(f, lo, out=clipped)
            minimum(clipped, hi, out=clipped)
            subtract(one, clamps, complements)
            divide(clipped, one_minus_clipped, clipped)
            log(clipped, clipped)
            add(half_sq, clipped, xi)
            subtract(xi_right, xi_left, dxi)
        self._potential = potential
        potential()

    def step_sizes(self, dxi: np.ndarray, axis=None) -> np.ndarray:
        """dt = CFL h^2 / (2 + max(h * extent, largest jump ratio * |dxi|)) for
        the potential jumps `dxi`, the largest taken over `axis` (all axes by
        default).

        The h * extent floor is the classical drift-diffusion bound; the
        state-dependent jump term shrinks the step for rough data so the
        invariant region survives the explicit update.  Where the floor is
        the maximum, as on smooth Cartesian data, the size repeats exactly
        and `_march` reuses it unevaluated: the benchmark's `cross_check`
        solve evaluates 61 of its 3,080 steps.  Without the floor it takes
        2,237 steps and evaluates every one, in about the same time.
        """
        adxi = np.abs(dxi)
        if self.jump_ratio is not None:
            np.multiply(adxi, self.jump_ratio, adxi)
        worst = np.maximum.reduce(adxi, axis=axis, initial=self.floor)
        return self.dt_numerator / (2.0 + worst)

    def stable_dt(self) -> float:
        """The step size of the whole state (see `step_sizes`)."""
        self.evaluations += 1
        return float(self.step_sizes(self.dxi))

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

    def advance(self, sizes, rows: np.ndarray, xis: np.ndarray) -> None:
        """Take one step of each size in `sizes`: f -= div(area J) dt / (-h q),
        J = mob dxi with the cross-upwind mobility, then the potential of the
        new f (`_potential`).  Step i writes its new state into rows[i] and
        its potential into xis[i]."""
        multiply, subtract, less, putmask = np.multiply, np.subtract, np.less, np.putmask
        values, left, right = self.values, self._left, self._right
        one_minus_left, one_minus_right = self._one_minus_left, self._one_minus_right
        left_mob, mob = self._candidates
        dxi, zero, left_donor = self.dxi, self._zero, self._left_donor
        J, area, neg_h_q = self._interior_flux, self.area, self._neg_h_q
        change, flux_right, flux_left = self._change, self._flux_right, self._flux_left
        potential, xi = self._potential, self.xi
        size = None
        for i, dt in enumerate(sizes):
            if dt != size:
                size, scale = dt, dt / neg_h_q
            multiply(left, one_minus_right, left_mob)
            multiply(right, one_minus_left, mob)
            less(dxi, zero, left_donor)
            putmask(mob, left_donor, left_mob)
            multiply(mob, dxi, J)
            if area is not None:
                multiply(area, J, J)
            subtract(flux_right, flux_left, change)
            multiply(change, scale, change)
            subtract(values, change, values)
            potential()
            rows[i] = values
            xis[i] = xi

    def restart(self, values: np.ndarray) -> None:
        """Restore the state to `values` and recompute its potential."""
        self.values[...] = values
        self._potential()
        self.restarts += 1


# Post-step rows per verified block (see `_march`).  Longer blocks spread a
# block's kernel calls and array passes over more steps, but waste more
# steps when a block is cut and hold more memory (the rows and potentials
# buffers, 64 KiB each at 128 cells).  Of 16 to 256 rows, 64 gave the
# fastest solves on the benchmark's radial, Picard-node and 48-cell
# ensemble data.
_BLOCK = 64


def _free_energies(qweight: np.ndarray, rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """H = sum q (f xi + log(1 - min(f, 1 - delta))) of each row, from its potential xi.

    Since xi = |v|^2/2 + log(f_c/(1 - f_c)) with f_c = clip(f, delta, 1 - delta),
    each term is |v|^2/2 f + s(f), exactly so for f = 0 and delta <= f <= 1 - delta;
    a cell with 0 < f < delta or f > 1 - delta is off by at most delta * q.
    """
    terms = np.minimum(rows, 1.0 - CLAMP_DELTA)
    np.negative(terms, terms)
    np.log1p(terms, terms)
    energy = rows * xi
    energy += terms
    return row_dots(qweight, energy)


def _march(kernel: _FvKernel, targets):
    """March `kernel` from t = 0 through each of the increasing `targets` with
    its stable step, clipping the step that reaches a target onto it.

    This is the one place that decides a target is reached, at t >= target
    (1 - LANDING_TOL), so a target that close above the time before it would
    get no step (`require_output_times`); the row that reaches a target
    carries the target itself as its time, and the march goes on from there,
    so readers compare times exactly.

    The steps come in verified blocks of at most `_BLOCK` post-step rows,
    the first led by the initial state.  Each block is yielded as (times,
    rows, xi, landed), with xi the potential of each row and `landed`
    whether the last row lies on a target; rows and xi are views of buffers
    that the next block overwrites.  A block is one `kernel.advance` call,
    fed by a generator of step sizes that evaluates `stable_dt` for each
    step, after the kernel has written the potential of the step before,
    until an evaluation equals the exact size of the step before; the rest
    of the block reuses that size unevaluated, with the same float
    operations for its times.  A size that is not finite and positive
    raises ValueError.  When the block is full or lands, the potentials the
    kernel wrote for the rows it filled give, through `kernel.step_sizes`,
    the exact size of each reused step; at the first that differs, the
    block is cut and the kernel restarts from the last verified row.  So
    rows, times and step sizes are those of a march that evaluates every step.
    """
    rows, xis = np.empty((2, 1 + _BLOCK) + kernel.values.shape)
    rows[0], xis[0] = kernel.values, kernel.xi
    per_row = tuple(range(1, rows.ndim))
    t, exact = 0.0, None   # exact: the stable size of the last step
    times, start = [t], 1  # times[i] is the time of rows[i]; start: the row of a block's first step

    def sizes():   # the step sizes of a block
        nonlocal t, exact, reused
        while len(times) < full and t < t_end:
            if len(times) < reused:
                dt = kernel.stable_dt()
                if not 0 < dt < math.inf:
                    raise ValueError(f"step size {dt!r} at t = {t!r} is not finite and positive")
                if dt == exact:
                    reused = len(times) + 1
                exact = dt
            dt = min(exact, target - t)
            t += dt
            times.append(t)
            yield dt

    for target in targets:
        t_end = target * (1 - LANDING_TOL)
        while t < t_end:
            full = reused = start + _BLOCK   # reused: the row of the first step that reuses `exact`
            # verified rows lie in [0, 1], where no operation overflows; a
            # reused size beyond the invariant-region bound can blow up the
            # rows after it, which the block then discards unreported
            with np.errstate(all="ignore"):
                kernel.advance(sizes(), rows[start:], xis[start:])
                n = len(times)
                if reused < n:
                    # the row before each reused step must allow exactly `exact`
                    allowed = kernel.step_sizes(np.diff(xis[reused - 1:n - 1]), per_row)
                    wrong, = (allowed != exact).nonzero()
                    if wrong.size:
                        n = reused + int(wrong[0])
                        t = times[n - 1]
                        kernel.restart(rows[n - 1])
            landed = t >= t_end
            if landed:   # the row that reaches a target carries it as its time
                t = times[n - 1] = target
            yield times[:n], rows[:n], xis[:n], landed
            times, start = [], 0


def require_output_times(output_times, t_final: float) -> list[float]:
    """`output_times` as floats; ValueError unless `solve` lands a row of its own on
    each: a < b (1 - LANDING_TOL) for consecutive distinct a, b of (0, *them, t_final)."""
    times = np.asarray(output_times, dtype=float)
    ends = [0.0, *times.tolist()] if times.ndim == 1 else [math.nan]   # NaN fails every test
    later = ends[1:] + [t_final] * (ends[-1] != t_final)   # the last may be t_final itself
    if not all(a < b * (1 - LANDING_TOL) for a, b in zip(ends, later)):
        raise ValueError(f"output_times must lie in (0, t_final], each more than {LANDING_TOL:g} "
                         "relative above the one before")
    return ends[1:]


def max_stable_dt(state: DistributionState) -> float:
    """Largest admissible explicit step for the current state (see `_FvKernel.step_sizes`)."""
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
    after, xi = np.empty((2, 1) + kernel.values.shape)
    kernel.advance((dt,), after, xi)
    return DistributionState(state.grid, after[0])


def solve(f0: DistributionState, params: FvParams, output_times=()) -> Trajectory:
    """March to t_final, recording the state every `output_stride` steps,
    at each of `output_times` and after the last step.

    The march clips its step onto each output time (`require_output_times`
    states the times it accepts); a row is recorded there unless a stride
    row already landed on it; that row, and the last, carry the output time
    (or t_final) exactly.  Every step has the stable size of the
    state it starts from, evaluated or verified (see `_march`).  The run
    record (`FvRun`) holds extrema over every step, so conservation, the
    invariant region and entropy monotonicity can be checked over the whole
    run, not just at output times.  The monitors reduce each verified block
    at once, the first with the initial state: one min and one max, the
    masses and free energies of its rows (from the block's potential), and
    its stride and output rows are copied out; `FvRun.from_monitors` reduces
    the blocks after the march.
    """
    targets = require_output_times(output_times, params.t_final)
    grid = f0.grid
    qweight = grid.qweight
    stride = params.output_stride
    kernel = _FvKernel(grid, f0.values)

    # one entry per block; steps: to the last row so far, -1 before the initial row
    times, rows, lowest, highest, masses, free_energies, steps = [], [], [], [], [], [], -1
    for t, block, xi, landed in _march(kernel, (*targets, params.t_final)):
        lowest.append(np.minimum.reduce(block, None))
        highest.append(np.maximum.reduce(block, None))
        masses.append(row_dots(qweight, block))
        free_energies.append(_free_energies(qweight, block, xi))
        # the initial and stride rows, and the row on a target unless a stride row is
        kept = list(range(stride - 1 - steps % stride, len(t), stride))
        steps += len(t)
        if landed and steps % stride:
            kept.append(len(t) - 1)
        times += [t[i] for i in kept]
        rows.append(block[kept])
    values = np.concatenate(rows)
    logger.info("solve: %d steps, %d step-size evaluations, %d truncated blocks",
                steps, kernel.evaluations, kernel.restarts)

    boundary = boundary_density(grid, values[-1])
    if boundary > BOUNDARY_DENSITY_WARN:
        logger.warning(
            "boundary density %.3e exceeds %.1e; the domain truncation may be under-resolved",
            boundary, BOUNDARY_DENSITY_WARN,
        )
    run = FvRun.from_monitors(lowest, highest, np.concatenate(masses),
                              np.concatenate(free_energies), steps=steps)
    return Trajectory(times, values, grid, meta=run)


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise ordering and L1-contraction slack of two synchronized runs."""

    max_positive_part: float       # max over time/space of (f - g)_+
    max_contraction_slack: float   # max over time of ||f-g||_1 - ||f0-g0||_1
    steps: int

    @property
    def holds(self) -> bool:   # comparison and L1 contraction, to roundoff
        return self.max_positive_part <= ORDER_TOL and self.max_contraction_slack <= CONTRACTION_TOL


def require_ordered_pair(f0: DistributionState, g0: DistributionState) -> None:
    """Raise ValueError unless `comparison_experiment` accepts f0 and g0."""
    if f0.grid != g0.grid:
        raise ValueError("states live on different grids")
    if (f0.values > g0.values).any():
        raise ValueError("comparison requires f0 <= g0 pointwise")


def comparison_experiment(f0: DistributionState, g0: DistributionState,
                          params: FvParams) -> ComparisonReport:
    """Run ordered initial data f0 <= g0 side by side with a shared step size.

    Both are stepped as one batch of two, so the shared step is the smaller
    of their two stable steps.  The gap f - g and its L1 norm are reduced
    once per verified block of `_march`.
    """
    require_ordered_pair(f0, g0)
    grid = f0.grid
    kernel = _FvKernel(grid, np.array((f0.values, g0.values)))

    highest, l1 = [], []
    for _, block, _, _ in _march(kernel, (params.t_final,)):
        gap = block[:, 0] - block[:, 1]
        highest.append(np.maximum.reduce(gap, None))
        l1.append(row_dots(grid.qweight, np.abs(gap)))
    l1 = np.concatenate(l1)   # l1[0] = ||f0 - g0||_1, the initial rows leading the march
    steps = l1.size - 1
    logger.info("comparison_experiment: %d steps, %d step-size evaluations, %d truncated blocks",
                steps, kernel.evaluations, kernel.restarts)
    return ComparisonReport(max_positive_part=max(0.0, float(max(highest))),
                            max_contraction_slack=max(0.0, float((l1 - l1[0]).max())), steps=steps)


@dataclass(frozen=True)
class DecayFitReport:
    slope: float | None
    rate_bound: float              # -2C
    bound_satisfied: bool
    n_points: int

    at_equilibrium = property(lambda self: self.slope is None)   # no slope is fitted there

    @property
    def holds(self) -> bool:   # at equilibrium, or the envelope and the rate bound hold
        return self.at_equilibrium or (self.bound_satisfied and self.slope <= self.rate_bound)


REL_ENTROPY_FLOOR = 1e-12
FIT_ROWS = 8   # rows a march lands on inside a fit window, so that a sparse stride still fits


def decay_rate_fit(times: np.ndarray, rel: np.ndarray, rate_constant: float,
                   window: tuple[float, float]) -> DecayFitReport:
    """Least-squares slope of log(rel_entropy) against the bound -2C, with C
    the `rate_constant`, at `times`.

    Points where the relative entropy has hit the discretization floor are
    excluded; a trajectory already at equilibrium yields a skipped fit.
    """
    t_lo, t_hi = window
    if t_lo < times[0] or t_hi > times[-1]:
        raise ValueError("fit window outside the trajectory time range")
    rate_bound = -2.0 * rate_constant
    if rel[0] <= REL_ENTROPY_FLOOR:
        return DecayFitReport(slope=None, rate_bound=rate_bound, bound_satisfied=True, n_points=0)
    mask = (times >= t_lo) & (times <= t_hi) & (rel > REL_ENTROPY_FLOOR)
    if mask.sum() < 4:
        raise ValueError("fewer than 4 usable points in the fit window")
    tw, rw = times[mask], rel[mask]
    slope = float(np.polyfit(tw, np.log(rw), 1)[0])
    envelope = rel[0] * np.exp(rate_bound * tw) * 1.05
    satisfied = bool(np.all(rw <= envelope))
    return DecayFitReport(slope=slope, rate_bound=rate_bound, bound_satisfied=satisfied,
                          n_points=int(mask.sum()))


@dataclass(frozen=True)
class MomentPropagationReport:
    order: int
    horizons: tuple[float, ...]
    sup_moment: tuple[float, ...]   # sup of the moment over [0, horizon]
    sup_tail: float                 # sup over time of the outer-half tail moment
    spread: float                   # max/min - 1 of sup_moment across horizons
    monotone_preserved: bool

    @property
    def holds(self) -> bool:   # uniformly bounded moments, a non-increasing profile
        return self.spread <= MOMENT_SPREAD_TOL and self.monotone_preserved


def require_moment_data(f0: DistributionState, order: int) -> None:
    """Raise ValueError unless `radial_moment_propagation` accepts a run from f0."""
    if f0.grid.geometry != RADIAL_ND:
        raise ValueError("moment propagation requires a radialNd grid")
    if np.any(np.diff(f0.values) > MONOTONE_TOL):
        raise ValueError("initial profile must be radially non-increasing")
    if order % 2 != 0 or order < 2:
        raise ValueError("order must be an even integer >= 2")
    with np.errstate(over="ignore"):   # rows lie in [0, 1]: the all-ones moment bounds theirs
        if not np.isfinite(np.dot(f0.grid.qweight, f0.grid.speed ** order)):
            raise ValueError(f"order {order} is too large: the moment sum(q |v|^{order}) "
                             "overflows on this grid")


def radial_moment_propagation(traj: Trajectory, order: int = 4) -> MomentPropagationReport:
    """Uniform-in-time moment control for radial non-increasing data.

    Analyses one run to t_final: the sup of the 2*gamma moment over the
    nested horizons (t_final/4, t_final/2, t_final) must agree if moments
    are propagated uniformly in time.  Also checks that the radial profile
    stays non-increasing at every output time.
    """
    require_moment_data(traj.states[0], order)
    grid, values = traj.grid, traj.values
    t_final = float(traj.times[-1])
    horizons = (t_final / 4, t_final / 2, t_final)
    mom = row_dots(grid.qweight, grid.speed ** order * values)   # `moment` of each row
    monotone = bool(np.all(np.diff(values, axis=-1) <= MONOTONE_TOL))
    tail_mask = grid.node >= grid.extent / 2
    tail = float(row_dots(grid.qweight[tail_mask],
                          grid.node[tail_mask] ** order * values[:, tail_mask]).max())
    sups = tuple(float(mom[traj.times <= hz].max()) for hz in horizons)
    spread = max(sups) / min(sups) - 1.0 if min(sups) > 0 else 0.0
    return MomentPropagationReport(order=order, horizons=horizons, sup_moment=sups,
                                   sup_tail=tail, spread=spread,
                                   monotone_preserved=monotone)
