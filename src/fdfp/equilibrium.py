"""Fermi-Dirac equilibria and the mass <-> beta maps.

The stationary profiles are F(v) = 1/(1 + beta * exp(|v|^2/2)) with
beta > 0.  Their mass (and, in `functionals`, their free energy) is a
radial integral, taken by one composite Gauss-Legendre rule evaluated as
an array (`radial_integral`).  Mass is strictly decreasing in beta and, by
Prekopa's theorem, log-concave in log(beta); the inverse map is therefore
solved by Newton's method on log(mass), which converges monotonically
from a start on the right of the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DistributionState, Grid, check_dim, unit_ball_volume

# beta = exp(log beta) stays a normal float over this range
LOG_BETA_RANGE = (-700.0, 690.0)
NEWTON_MAX_ITER = 50
# 16-point Gauss-Legendre nodes and weights on [-1, 1]
_GAUSS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class FermiDiracSpec:
    """Parameters of an equilibrium profile: beta > 0 and the dimension
    (see `check_dim`; integral floats are turned into ints)."""

    beta: float
    dim: int

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            # beta = 0 has infinite mass, beta = inf none
            raise ValueError("beta must be strictly positive and finite")
        object.__setattr__(self, "dim", check_dim(self.dim))


def _fermi(x):
    """1/(1 + e^x) without overflow: the logistic function of -x."""
    e = np.exp(-np.abs(x))
    return np.where(x > 0, e, 1.0) / (1.0 + e)


def fermi_dirac_eval(spec: FermiDiracSpec, speed):
    """Evaluate 1/(1 + beta e^{s^2/2}) at speed s >= 0 (scalar or array)."""
    s = np.asarray(speed, dtype=float)
    if np.any(s < 0):
        raise ValueError("speed must be nonnegative")
    out = _fermi(s * s / 2 + math.log(spec.beta))
    return float(out) if np.isscalar(speed) else out


@lru_cache(maxsize=64)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [0, panels],
    one panel per unit interval."""
    x, w = _GAUSS
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1)).ravel()
    weights = np.tile(0.5 * w, panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _radial_rule(log_beta: float, dim: int, coarse: bool = False):
    """Nodes r and weights w with sum(w * g(r)) ~ int_0^r_max r^(dim-1) g(r) dr.

    Composite 16-point Gauss-Legendre on [0, r_max].  The Fermi step sits
    at r0 = sqrt(2 max(0, -log beta)) and is about 1/r0 wide, so the panels
    narrow as r0 grows, to a width of at most 0.5/(1 + r0/4).  `coarse`
    takes half as many panels, twice as wide.
    """
    r0 = math.sqrt(2 * max(0.0, -log_beta))
    # Cutoff where the Gaussian-dominated tail is far below 1e-12 of the mass.
    r_max = r0 + 15.0 + dim
    panels = math.ceil(r_max * (1 + r0 / 4)) * (1 if coarse else 2)
    h = r_max / panels
    nodes, weights = _panel_rule(panels)
    r = h * nodes
    return r, (h * weights) * r ** (dim - 1)


def radial_integral(integrand, log_beta: float, dim: int) -> tuple[float, float]:
    """int_0^r_max r^(dim-1) integrand(r^2/2 + log beta) dr, and an error estimate.

    The value is the rule of `_radial_rule`; the estimate is its distance
    to the coarse rule, so it measures the error of the coarse rule and
    overstates that of the fine one.
    """
    # (w * f).sum() rather than np.dot: for the long rules of large masses a
    # threaded BLAS dot can spend milliseconds waking its threads
    fine, coarse = (float((w * integrand(r * r / 2 + log_beta)).sum())
                    for r, w in (_radial_rule(log_beta, dim, c) for c in (False, True)))
    return fine, abs(fine - coarse)


def _mass_of_log_beta(log_beta: float, dim: int) -> float:
    value, abserr = radial_integral(_fermi, log_beta, dim)
    coef = dim * unit_ball_volume(dim)
    value *= coef
    abserr *= coef
    if abserr > max(1e-10 * abs(value), 1e-13):
        raise RuntimeError(
            f"mass quadrature did not converge (estimated error {abserr:.2e})"
        )
    return value


def mass_of_beta(spec: FermiDiracSpec) -> float:
    """Total mass of the equilibrium with the given beta."""
    return _mass_of_log_beta(math.log(spec.beta), spec.dim)


@lru_cache(maxsize=None)
def _mass_range(dim: int) -> tuple[float, float]:
    """The masses at the ends of LOG_BETA_RANGE: the masses beta_of_mass accepts."""
    lo, hi = LOG_BETA_RANGE
    return _mass_of_log_beta(hi, dim), _mass_of_log_beta(lo, dim)


@lru_cache(maxsize=512)
def _log_beta_of_mass(mass: float, dim: int) -> float:
    # Newton on log M(lb) - log(mass), with M' = -int r^(N-1) F (1 - F).
    # log M is concave and decreasing, so from the right of the root every
    # iterate stays right of it and the iteration decreases onto it.  Since
    # F <= e^{-x}, M(lb) <= (2 pi)^{N/2} e^{-lb}, whose root is such a start.
    lb = math.log((2 * math.pi) ** (dim / 2) / mass)
    coef = dim * unit_ball_volume(dim)
    for _ in range(NEWTON_MAX_ITER):
        r, w = _radial_rule(lb, dim)
        x = r * r / 2 + lb
        e = np.exp(-np.abs(x))
        value = coef * float((w * (np.where(x > 0, e, 1.0) / (1.0 + e))).sum())
        slope = -coef * float((w * (e / (1.0 + e) ** 2)).sum())
        step = math.log(value / mass) * value / slope
        lb -= step
        # the step after this one would be of order step^2
        if abs(step) <= 1e-8 * max(1.0, abs(lb)):
            break
    achieved = _mass_of_log_beta(lb, dim)
    if abs(achieved - mass) > 1e-9 * mass:
        raise RuntimeError(
            f"beta(mass) solve left residual {achieved - mass:.3e} for mass {mass}"
        )
    return lb


def beta_of_mass(mass: float, dim: int) -> FermiDiracSpec:
    """Unique beta such that the equilibrium has the requested mass.

    Masses whose beta lies outside LOG_BETA_RANGE, and dims outside
    [1, MAX_DIM], raise ValueError.
    """
    if not (mass > 0 and math.isfinite(mass)):
        raise ValueError("mass must be positive and finite")
    dim = check_dim(dim)
    lo, hi = _mass_range(dim)
    # the end masses are quadrature values themselves, good to about 1e-14
    if not lo * (1 - 1e-12) <= mass <= hi * (1 + 1e-12):
        raise ValueError(
            f"mass {mass:g} lies outside [{lo:.6g}, {hi:.6g}], the masses of the "
            f"{dim}-D equilibria with log(beta) in [{LOG_BETA_RANGE[0]:g}, "
            f"{LOG_BETA_RANGE[1]:g}]"
        )
    lb = _log_beta_of_mass(float(mass), dim)
    return FermiDiracSpec(beta=math.exp(lb), dim=dim)


def equilibrium_state(mass: float, grid: Grid) -> DistributionState:
    """Equilibrium of the requested mass sampled at the cell centers.

    The discrete mass of the result differs from `mass` by quadrature and
    truncation error; it is not rescaled.
    """
    spec = beta_of_mass(mass, grid.dim)
    return DistributionState(grid, fermi_dirac_eval(spec, grid.speed))


def discrete_equilibrium(mass: float, grid: Grid) -> DistributionState:
    """F_h, the sampled F_beta of discrete mass sum(q F_beta) = `mass`: the FV
    scheme's steady state.  Newton on the log of that mass as a function of log
    beta, as `_log_beta_of_mass`, from the continuum beta, with the mass's
    derivative -sum(q F (1 - F)); ValueError if no beta in LOG_BETA_RANGE fits."""
    q, half_sq = grid.qweight, grid.speed ** 2 / 2
    if not mass < np.dot(q, _fermi(half_sq + LOG_BETA_RANGE[0])):   # as f = 1 on the mesh
        raise ValueError(f"no F_beta with log(beta) in {list(LOG_BETA_RANGE)} has the discrete "
                         f"mass {mass:g} on this {grid.dim}-D {grid.geometry} mesh")
    lb, step = math.log(beta_of_mass(mass, grid.dim).beta), math.inf
    for _ in range(NEWTON_MAX_ITER):
        f = _fermi(half_sq + lb)
        value = float(np.dot(q, f))
        if abs(value - mass) <= 1e-15 * mass or abs(step) <= 1e-8:   # the error left is O(step^2)
            return DistributionState(grid, f)
        step = math.log(value / mass) * value / float(np.dot(q, f * (1 - f)))
        lb += step
    raise RuntimeError(f"discrete beta(mass) solve did not converge for mass {mass}")
