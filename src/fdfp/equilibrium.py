"""Fermi-Dirac equilibria and the mass <-> beta maps.

The stationary profiles are F(v) = 1/(1 + beta * exp(|v|^2/2)) with
beta > 0.  Mass is strictly decreasing in beta, which makes the inverse
map well defined; it is solved by bracketed root finding in log(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit

from .grid import CARTESIAN_1D, DistributionState, Grid, unit_ball_volume


@dataclass(frozen=True)
class FermiDiracSpec:
    """Parameters of an equilibrium profile: beta > 0 and the dimension."""

    beta: float
    dim: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be strictly positive (beta = 0 has infinite mass)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def fermi_dirac_eval(spec: FermiDiracSpec, speed):
    """Evaluate 1/(1 + beta e^{s^2/2}) at speed s >= 0 (scalar or array)."""
    s = np.asarray(speed, dtype=float)
    if np.any(s < 0):
        raise ValueError("speed must be nonnegative")
    out = expit(-(s * s / 2 + math.log(spec.beta)))
    return float(out) if np.isscalar(speed) else out


def _mass_integrand(r: float, log_beta: float, dim: int) -> float:
    return r ** (dim - 1) * expit(-(r * r / 2 + log_beta))


def _mass_of_log_beta(log_beta: float, dim: int) -> float:
    # Cutoff where the Gaussian-dominated tail is far below 1e-12 of the mass.
    r_max = math.sqrt(2 * max(0.0, -log_beta)) + 15.0 + dim
    value, abserr = quad(
        _mass_integrand, 0.0, r_max, args=(log_beta, dim),
        epsabs=1e-15, epsrel=1e-11, limit=200,
    )
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


@lru_cache(maxsize=512)
def _log_beta_of_mass(mass: float, dim: int) -> float:
    def residual(lb: float) -> float:
        return _mass_of_log_beta(lb, dim) - mass

    lo = hi = 0.0
    r0 = residual(0.0)
    if r0 == 0.0:
        return 0.0
    step = 1.0
    if r0 > 0:  # mass(beta=1) too big: increase beta
        while residual(hi + step) > 0:
            hi += step
            step *= 2
            if hi > 700:
                raise RuntimeError("failed to bracket beta(mass)")
        lo, hi = hi, hi + step
    else:
        while residual(lo - step) < 0:
            lo -= step
            step *= 2
            if lo < -700:
                raise RuntimeError("failed to bracket beta(mass)")
        lo, hi = lo - step, lo
    lb = brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    achieved = _mass_of_log_beta(lb, dim)
    if abs(achieved - mass) > 1e-9 * mass:
        raise RuntimeError(
            f"beta(mass) solve left residual {achieved - mass:.3e} for mass {mass}"
        )
    return lb


def beta_of_mass(mass: float, dim: int) -> FermiDiracSpec:
    """Unique beta such that the equilibrium has the requested mass."""
    if not mass > 0:
        raise ValueError("mass must be positive")
    lb = _log_beta_of_mass(float(mass), int(dim))
    return FermiDiracSpec(beta=math.exp(lb), dim=int(dim))


def equilibrium_state(mass: float, grid: Grid) -> DistributionState:
    """Equilibrium of the requested mass sampled at the cell centers.

    The discrete mass of the result differs from `mass` by quadrature and
    truncation error; it is not rescaled.
    """
    spec = beta_of_mass(mass, grid.dim)
    return DistributionState(grid, fermi_dirac_eval(spec, grid.speed))


__all__ = [
    "FermiDiracSpec",
    "fermi_dirac_eval",
    "mass_of_beta",
    "beta_of_mass",
    "equilibrium_state",
    "CARTESIAN_1D",
]
