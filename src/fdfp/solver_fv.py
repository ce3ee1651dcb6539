"""Entropy-dissipative finite-volume solver for the nonlinear Fokker-Planck flow.

The scheme discretizes div(grad f + v f(1-f)) with the exclusion
Scharfetter-Gummel flux (`functionals.sg_weights`)

    F_(i+1/2) = (1/h) [B(dphi) f_i (1 - f_(i+1)) - B(-dphi) f_(i+1) (1 - f_i)],

B(x) = x/(e^x - 1), phi = |v|^2/2, which uses no logarithm and no clamp:

* sampled Fermi-Dirac profiles are exact steady states,
* the flux is monotone, so an explicit step under the bound at
  `STEP_FACTOR` keeps ordered data ordered and [0, 1] invariant,
* fluxes telescope, so mass is conserved to roundoff,
* the semi-discrete free energy is non-increasing.

Forward Euler in time, in equal steps of at most one size per mesh; radial
geometry weights fluxes by the interface area r^(N-1).  Long marches run in
blocks (`_march`): a block is one kernel call of up to `_BLOCK` steps, and
the monitors reduce a block at once, not a step at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibrium import beta_of_mass
from .functionals import free_energy_parts, sg_bernoulli, sg_weights
from .grid import RADIAL_ND, DistributionState, Grid, as_integer, boundary_density, row_dots
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


# The step size is one constant per mesh.  One explicit step
#   f_i' = f_i - (dt / q_i) (A F_(i+1/2) - A F_(i-1/2)),
# with A F = w0 f_l (1 - f_r) - w1 f_r (1 - f_l) at an interface between cells
# l and r (the weights w of `functionals.sg_weights`, zero flux at the two
# boundaries), has on [0, 1]
#   d f_i' / d f_(i+1) = (dt / q_i) (w0 f_i + w1 (1 - f_i))        >= 0,
#   d f_i' / d f_(i-1) = (dt / q_i) (w0 (1 - f_i) + w1 f_i)        >= 0,
#   d f_i' / d f_i     = 1 - (dt / q_i) (w0 (1 - f_(i+1)) + w1 f_(i+1)
#                                        + w0 f_(i-1) + w1 (1 - f_(i-1)))
#                     >= 1 - (dt / q_i) (W_(i-1/2) + W_(i+1/2)),
# each w taken at its interface and W = max(w0, w1) = A max(B(dphi), B(-dphi)) / h.
# So under the monotone bound
#   dt <= min_i q_i h / (A_(i-1/2) max B_(i-1/2) + A_(i+1/2) max B_(i+1/2))
# a step is a non-decreasing map of [0, 1]^cells.  It keeps ordered data
# ordered; it fixes the constant states 0 and 1, so it keeps [0, 1]
# invariant; and, since it conserves mass, it contracts L1 (Crandall-Tartar).
# The march takes STEP_FACTOR times that bound.  Forward Euler's O(dt) error
# sets the factor: at the full bound the integrated dissipation misses the
# free-energy drop by 5.2e-3 (128 Cartesian cells, against the 5e-3 gate of
# `test_free_energy_falls_by_the_integrated_dissipation`), and the time error
# swamps the small-mass Gaussian's second order in space (its cartesian1d
# refinement factor reads 0.84 against the 1.7 gate).
STEP_FACTOR = 0.5


@dataclass(frozen=True)
class FvParams:
    t_final: float
    output_stride: int = 100

    def __post_init__(self):
        if not 0 < self.t_final < math.inf:
            raise ValueError("t_final must be positive and finite")
        object.__setattr__(self, "t_final", float(self.t_final))
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


@lru_cache(maxsize=64)
def _fixed_step(grid: Grid) -> float:
    """STEP_FACTOR times the monotone bound of one explicit step on `grid`,
    computed once per mesh value, as `sg_weights` is.  Each cell's rate sum
    (A/q) max B is formed before h enters, so radialNd N = 1 on n cells and
    cartesian1d on 2n cells get the same float."""
    max_b = sg_bernoulli(grid).max(axis=0)
    area, q = grid.interface_area[1:-1], grid.qweight
    rate = np.zeros(grid.cells)
    rate[:-1] += area / q[:-1] * max_b
    rate[1:] += area / q[1:] * max_b
    fastest = float(rate.max())   # 0 on a one-cell mesh, which has no interface
    return STEP_FACTOR * grid.width / fastest if fastest else math.inf


class _FvKernel:
    """The explicit FV step on the last axis of a (..., cells) state.

    Built once per march: it holds the mesh's flux weights
    (`functionals.sg_weights`) and step size `dt`, both cached per mesh, and
    preallocated buffers, and owns the state `values`, updated in place.  A
    batch (B, cells) is stepped on views of its last axis, each row as it
    would be stepped alone.  At these sizes a numpy call costs far more than
    its arithmetic, so a step is seven calls:
    f and 1 - f share one buffer, laid out so that the two flux products
    f_i (1 - f_(i+1)) and (1 - f_i) f_(i+1) are one multiplication of two
    views of it.  Outputs are passed positionally, which numpy parses faster.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        shape = values.shape
        self.dt = _fixed_step(grid)
        # (w0, w1), broadcast over the batch axes
        self._weights = sg_weights(grid).reshape((2,) + (1,) * (len(shape) - 1) + (-1,))
        self._one = np.array(1.0)   # a 0-d array, which numpy takes faster than a float
        pair = np.empty((2,) + shape)   # f | 1 - f
        self.values, self._complement = pair
        self.values[...] = values
        # (f_i, 1 - f_i) and (1 - f_(i+1), f_(i+1))
        self._left, self._right = pair[..., :-1], pair[::-1, ..., 1:]
        self._products = np.empty((2,) + shape[:-1] + (grid.cells - 1,))
        self.flux = np.zeros(shape[:-1] + (grid.cells + 1,))   # A F; the zero ends stay
        self._change = np.empty(shape)
        self._q = grid.qweight

    def advance(self, dt: float, rows: np.ndarray) -> None:
        """Take len(rows) steps of size dt: f -= (A F_right - A F_left) dt / q.
        Step i writes its new state into rows[i]."""
        multiply, subtract = np.multiply, np.subtract
        one, values, complement = self._one, self.values, self._complement
        left, right, products, weights = self._left, self._right, self._products, self._weights
        outward, inward = products[0], products[1]
        flux, change, scale = self.flux, self._change, dt / self._q
        interior, flux_right, flux_left = flux[..., 1:-1], flux[..., 1:], flux[..., :-1]
        for i in range(len(rows)):
            subtract(one, values, complement)
            multiply(left, right, products)
            multiply(products, weights, products)
            subtract(outward, inward, interior)
            subtract(flux_right, flux_left, change)
            multiply(change, scale, change)
            subtract(values, change, values)
            rows[i] = values


# Post-step rows per block (see `_march`): longer blocks spread a kernel
# call and the monitor passes over more steps, but hold more memory.
_BLOCK = 64


def _march(kernel: _FvKernel, targets):
    """March `kernel` from t = 0 through each of the strictly increasing
    `targets` (`require_output_times`).

    Each gap between consecutive targets takes n = ceil(gap / dt) equal steps
    of size gap / n, with dt = `kernel.dt`, one more where rounding makes that
    size exceed dt; the row of the gap's last step carries the target itself
    as its time, so readers compare times exactly.

    The steps come in blocks of at most `_BLOCK` post-step rows, the first
    led by the initial state, each one `kernel.advance` call of one size,
    yielded as (times, rows, landed), with `landed` whether the last row lies
    on a target; rows views a buffer that the next block overwrites.  A step
    size that is not finite and positive raises ValueError.
    """
    dt = kernel.dt
    if not 0 < dt < math.inf:
        raise ValueError(f"step size {dt!r} of this mesh is not finite and positive")
    rows = np.empty((1 + _BLOCK,) + kernel.values.shape)
    rows[0] = kernel.values
    t, times = 0.0, [0.0]   # times[i] is the time of rows[i]
    for target in targets:
        gap = target - t
        n = math.ceil(gap / dt)
        n += gap / n > dt   # where rounding left gap / n above dt
        size = gap / n
        for first in range(1, n + 1, _BLOCK):   # steps first..last of the gap
            last = min(first + _BLOCK - 1, n)
            start = len(times)
            times += [t + k * size for k in range(first, last + 1)]
            kernel.advance(size, rows[start:len(times)])
            if last == n:
                times[-1] = target
            yield times, rows[:len(times)], last == n
            times = []
        t = target


def require_output_times(output_times, t_final: float) -> list[float]:
    """The targets of `solve`'s march: `output_times` as floats, then t_final
    unless it is the last of them.  ValueError unless the output times
    increase strictly in (0, t_final]."""
    times = np.asarray(output_times, dtype=float)
    ends = [0.0, *times.tolist()] if times.ndim == 1 else [math.nan]   # NaN fails every test
    targets = ends[1:] + [t_final] * (ends[-1] != t_final)
    if not all(a < b for a, b in zip(ends, targets)):
        raise ValueError("output_times must lie in (0, t_final] and increase strictly")
    return targets


def max_stable_dt(state: DistributionState) -> float:
    """The explicit step size of the state's mesh, the same for every state on
    it: STEP_FACTOR times the monotone bound (see `STEP_FACTOR`)."""
    return _fixed_step(state.grid)


def solve(f0: DistributionState, params: FvParams, output_times=()) -> Trajectory:
    """March to t_final, recording the state every `output_stride` steps,
    at each of `output_times` and after the last step.

    The march takes equal steps of at most the mesh's one size (see
    `STEP_FACTOR`) onto each output time (`require_output_times` states the
    times it accepts); a row is recorded there unless a stride row already
    is; that row, and the last, carry the output time (or t_final) exactly.
    The run record (`FvRun`) holds extrema over every step, so conservation,
    the invariant region and entropy monotonicity can be checked over the
    whole run, not just at output times.  The monitors reduce each block of
    `_march` at once: one min and one max, and the masses and free energies
    of its rows by the formulas of the diagnostics columns, so the two agree
    bit for bit at recorded rows.
    """
    targets = require_output_times(output_times, params.t_final)
    grid = f0.grid
    stride = params.output_stride
    kernel = _FvKernel(grid, f0.values)

    # one entry per block; steps: to the last row so far, -1 before the initial row
    times, rows, lowest, highest, masses, free_energies, steps = [], [], [], [], [], [], -1
    for t, block, landed in _march(kernel, targets):
        lowest.append(np.minimum.reduce(block, None))
        highest.append(np.maximum.reduce(block, None))
        masses.append(row_dots(grid.qweight, block))
        entropy, energy = free_energy_parts(block, grid)
        free_energies.append(entropy + energy)
        # the initial and stride rows, and the row on a target unless a stride row is
        kept = list(range(stride - 1 - steps % stride, len(t), stride))
        steps += len(t)
        if landed and steps % stride:
            kept.append(len(t) - 1)
        times += [t[i] for i in kept]
        rows.append(block[kept])
    values = np.concatenate(rows)
    logger.info("solve: %d steps of %r", steps, kernel.dt)

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

    Both are stepped as one batch of two by `_march`; the gap f - g and its
    L1 norm are reduced once per block.
    """
    require_ordered_pair(f0, g0)
    grid = f0.grid
    kernel = _FvKernel(grid, np.array((f0.values, g0.values)))

    highest, l1 = [], []
    for _, block, _ in _march(kernel, (params.t_final,)):
        gap = block[:, 0] - block[:, 1]
        highest.append(np.maximum.reduce(gap, None))
        l1.append(row_dots(grid.qweight, np.abs(gap)))
    l1 = np.concatenate(l1)   # l1[0] = ||f0 - g0||_1, the initial rows leading the march
    steps = l1.size - 1
    logger.info("comparison_experiment: %d steps of %r", steps, kernel.dt)
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
    def holds(self) -> bool:   # the envelope, and the rate bound on a fitted slope
        return self.bound_satisfied and (self.at_equilibrium or self.slope <= self.rate_bound)


REL_ENTROPY_FLOOR = 1e-12
FIT_ROWS = 8   # rows a march lands on inside a fit window, so that a sparse stride still fits


def decay_rate_fit(times: np.ndarray, rel: np.ndarray, rate_constant: float,
                   window: tuple[float, float]) -> DecayFitReport:
    """Least-squares slope of log(rel_entropy) against the bound -2C, with C
    the `rate_constant`, at `times`, and the envelope 1.05 rel[0] exp(-2Ct).

    Points where the relative entropy has hit the discretization floor are
    excluded; a trajectory that starts there, or whose window holds fewer
    than 4 points above it, is at equilibrium: no slope is fitted, and the
    envelope is checked on every row of the window.
    """
    t_lo, t_hi = window
    if t_lo < times[0] or t_hi > times[-1]:
        raise ValueError("fit window outside the trajectory time range")
    rate_bound = -2.0 * rate_constant
    if rel[0] <= REL_ENTROPY_FLOOR:
        return DecayFitReport(slope=None, rate_bound=rate_bound, bound_satisfied=True, n_points=0)
    mask = (times >= t_lo) & (times <= t_hi)
    if mask.sum() < 4:
        raise ValueError("fewer than 4 rows in the fit window")
    usable = mask & (rel > REL_ENTROPY_FLOOR)
    slope = None   # at equilibrium, unless 4 rows lie above the floor
    if usable.sum() >= 4:
        mask = usable
        slope = float(np.polyfit(times[mask], np.log(rel[mask]), 1)[0])
    envelope = rel[0] * np.exp(rate_bound * times[mask]) * 1.05
    satisfied = bool(np.all(rel[mask] <= envelope))
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
