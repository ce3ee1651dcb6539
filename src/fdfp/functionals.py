"""Entropy and energy functionals, dissipation, and the moment-bound polynomials.

The free energy H = S + E with mixing entropy density
s(r) = (1-r)log(1-r) + r log(r) is the Lyapunov functional of the flow.
The discrete dissipation below uses the same interface mobility as the
finite-volume flux, so the semi-discrete chain rule dH/dt = -D is an
algebraic identity, but only while no cell clamped by `potential` borders a
filled one: there the clamped potential is not dH/df, and the integral of D
overshoots the drop of H (by 4.2 drops for 1/2 on [-1, 1], 128 cells, t = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .equilibrium import _fermi, beta_of_mass, equilibrium_state, radial_integral
from .grid import (DistributionState, Grid, as_integer, check_dim, l1_distance,
                   moment, row_dots, unit_ball_volume)

# The potential clamps f to [CLAMP_DELTA, 1 - CLAMP_DELTA] so its log stays
# finite; 0 would put log(0) into it, 1/2 or more would flatten every state.
CLAMP_DELTA = 1e-14
_TINY = np.finfo(float).tiny   # the smallest normal float
_ENTROPY_TOL = 1e-12   # roundoff allowed in the entropy-control inequalities


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x for x >= 0, with its limit 0 at x = 0 (raising the log's
    argument to _TINY moves subnormal x by less than 1e-305)."""
    return x * np.log(np.maximum(x, _TINY))


def entropy_density(r):
    """Mixing entropy density s(r) = (1-r)log(1-r) + r log r, <= 0 on [0, 1].

    The endpoint values are the analytic limits s(0) = s(1) = 0.
    """
    arr = np.asarray(r, dtype=float)
    if not ((arr >= 0) & (arr <= 1)).all():   # a NaN fails both comparisons
        raise ValueError("entropy density is defined on [0, 1]")
    out = _xlogx(arr) + _xlogx(1 - arr)
    return float(out) if np.isscalar(r) else out


def entropy(state: DistributionState) -> float:
    """S = sum qweight * s(f)."""
    return float(np.dot(state.grid.qweight, entropy_density(np.clip(state.values, 0.0, 1.0))))


def kinetic_energy(state: DistributionState) -> float:
    """E = (1/2) * second moment."""
    return 0.5 * moment(state, 2)


def free_energy(state: DistributionState) -> float:
    """H = S + E."""
    return entropy(state) + kinetic_energy(state)


def potential(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete driving potential |v|^2/2 + log(f/(1-f)) over the last axis,
    with f clamped to [CLAMP_DELTA, 1 - CLAMP_DELTA]; the state itself is
    never clamped."""
    f = np.clip(values, CLAMP_DELTA, 1.0 - CLAMP_DELTA)
    return grid.speed ** 2 / 2 + np.log(f / (1.0 - f))


def upwind_mobility(values: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Cross-upwind interface mobility f_donor * (1 - f_receiver) over the last axis.

    The donor is the higher-potential cell.  Unclamped values are used, so
    the mobility vanishes exactly for an empty donor or a full receiver,
    which is what keeps the scheme inside [0, 1].
    """
    left, right = values[..., :-1], values[..., 1:]
    dxi = np.diff(xi, axis=-1)
    return np.where(dxi < 0, left * (1.0 - right), right * (1.0 - left))


def _dissipation_terms(values: np.ndarray, grid: Grid) -> np.ndarray:
    """mobility * (dxi/h)^2 at each interior interface, over the last axis."""
    xi = potential(values, grid)
    return upwind_mobility(values, xi) * (np.diff(xi, axis=-1) / grid.width) ** 2


def dissipation(state: DistributionState) -> float:
    """Discrete entropy dissipation D >= 0.

    D = sum over interior interfaces of (h * area) * mobility * (dxi/h)^2,
    matching the finite-volume flux so that dH/dt = -D semi-discretely
    while no clamped cell borders a filled one (see the module docstring).
    """
    grid = state.grid
    return float(np.dot(grid.width * grid.interface_area[1:-1],
                        _dissipation_terms(state.values, grid)))


@lru_cache(maxsize=512)
def equilibrium_free_energy(mass: float, dim: int) -> float:
    """H of the equilibrium with the given mass, by converged radial quadrature.

    Computed independently of any solver grid so relative-entropy decay is
    measured against a grid-free reference.
    """
    log_beta = math.log(beta_of_mass(mass, dim).beta)
    coef = dim * unit_ball_volume(dim)

    # s(F) + F r^2/2 = -F log(beta) + log(1 - F), and log(1 - F) = -log(1 + e^{-x})
    def integrand(x):
        return -_fermi(x) * log_beta - np.logaddexp(0.0, -x)

    value, abserr = radial_integral(integrand, log_beta, dim)
    if abserr > max(1e-9 * abs(value), 1e-12):
        raise RuntimeError(f"free-energy quadrature did not converge (error {abserr:.2e})")
    return coef * value


def entropy_control_constant(eps: float, dim: int) -> float:
    """C_eps = integral of exp(-eps |v|^2 / 2) = (2 pi / eps)^(dim/2)."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return (2 * math.pi / eps) ** (check_dim(dim) / 2)


@dataclass(frozen=True)
class EntropyControlReport:
    eps: float
    max_pointwise_violation: float
    neg_entropy: float            # -S >= 0
    integrated_bound: float       # eps*E + C_eps

    pointwise_holds = property(lambda self: self.max_pointwise_violation <= _ENTROPY_TOL)
    integrated_holds = property(
        lambda self: -_ENTROPY_TOL <= self.neg_entropy <= self.integrated_bound + _ENTROPY_TOL)
    holds = property(lambda self: self.pointwise_holds and self.integrated_holds)


def check_entropy_control(state: DistributionState, eps: float) -> EntropyControlReport:
    """Verify -s(f(v)) <= (eps |v|^2/2) f(v) + exp(-eps |v|^2/2) at every node
    and the integrated form 0 <= -S <= eps E + C_eps."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    f = np.clip(state.values, 0.0, 1.0)
    half_sq = state.grid.speed ** 2 / 2
    lhs = -entropy_density(f)
    rhs = eps * half_sq * f + np.exp(-eps * half_sq)
    bound = eps * kinetic_energy(state) + entropy_control_constant(eps, state.grid.dim)
    return EntropyControlReport(eps=eps, max_pointwise_violation=float(np.max(lhs - rhs)),
                                neg_entropy=-entropy(state), integrated_bound=bound)


@dataclass(frozen=True)
class CsiszarKullbackReport:
    lhs: float   # ||f - F_M||_1^2
    rhs: float   # 2 M (H(f) - H(F_M))

    holds = property(lambda self: self.lhs <= self.rhs * (1 + 1e-6) + 1e-10)


def csiszar_kullback_check(state: DistributionState, mass: float) -> CsiszarKullbackReport:
    """Check ||f - F_M||_1^2 <= 2 M (H(f) - H(F_M)) on the state's grid.

    Both sides are evaluated discretely against the sampled equilibrium so
    the inequality is exact at the discrete minimizer.
    """
    eq = equilibrium_state(mass, state.grid)
    return CsiszarKullbackReport(lhs=l1_distance(state, eq) ** 2,
                                 rhs=2 * mass * (free_energy(state) - free_energy(eq)))


def moment_bound_polynomial(gamma: int, initial_moments, mass: float, dim: int) -> Polynomial:
    """Polynomial bound for the 2*gamma moment along the flow, as a numpy
    `Polynomial` (ascending coefficients in `.coef`).

    P_1(t) = m2(0) + 2*dim*mass*t, and each further order integrates the
    previous bound scaled by 2*gamma*(2*(gamma-1) + dim).
    `initial_moments[k]` must hold the 2k-moment of the initial state for
    k = 0..gamma.
    """
    gamma = as_integer(gamma, f"gamma must be an integer >= 1, got {gamma!r}", 1)
    dim = check_dim(dim)
    moments = [float(m) for m in initial_moments]
    if len(moments) < gamma + 1:
        raise ValueError(f"need initial moments up to order {2 * gamma} (got {len(moments)} entries)")
    coeffs = np.array([moments[1], 2.0 * dim * mass])  # P_1
    for g in range(2, gamma + 1):
        factor = 2.0 * g * (2.0 * (g - 1) + dim)
        integrated = np.concatenate(([0.0], coeffs / np.arange(1, coeffs.size + 1)))
        coeffs = factor * integrated
        coeffs[0] = moments[g]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("polynomial coefficients must be finite")
    return Polynomial(coeffs)


DIAGNOSTICS = ("mass", "energy", "entropy", "free_energy", "dissipation",
               "rel_entropy", "l1_to_eq")   # the columns, in diagnostics.csv order


def compute_diagnostics(values: np.ndarray, grid: Grid, eq_values: np.ndarray,
                        eq_free_energy: float) -> dict[str, np.ndarray]:
    """The DIAGNOSTICS columns of a (rows, cells) matrix against a fixed equilibrium
    reference, bit for bit the single-state functionals of each row: the elementwise
    parts run on the whole matrix, and each sum is numpy's dot of one row (`row_dots`),
    as theirs is."""
    q = grid.qweight
    s = row_dots(q, entropy_density(np.clip(values, 0.0, 1.0)))
    e = 0.5 * row_dots(q, grid.speed ** 2 * values)
    d = row_dots(grid.width * grid.interface_area[1:-1], _dissipation_terms(values, grid))
    if np.any(d < -1e-12):
        raise ValueError("dissipation must be nonnegative up to roundoff")
    h = s + e   # free_energy = entropy + energy, exactly
    return dict(zip(DIAGNOSTICS, (row_dots(q, values), e, s, h, d, h - eq_free_energy,
                                  row_dots(q, np.abs(values - eq_values)))))
