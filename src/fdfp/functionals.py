"""Entropy and energy functionals, dissipation, and the moment-bound polynomials.

The free energy H = S + E with mixing entropy density
s(r) = (1-r)log(1-r) + r log(r) is the Lyapunov functional of the flow.
The finite-volume flux is the exclusion Scharfetter-Gummel flux, whose
weights `sg_weights` builds; the discrete dissipation below pairs that
flux with the potential xi = dH/df, so the semi-discrete chain rule
dH/dt = -D is an algebraic identity wherever no cell is clamped by
`potential` (there the clamped potential is not dH/df).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .equilibrium import _fermi, beta_of_mass, discrete_equilibrium, radial_integral
from .grid import (DistributionState, Grid, as_integer, check_dim, l1_distance,
                   moment, row_dots, unit_ball_volume)

# The potential clamps f to [CLAMP_DELTA, 1 - CLAMP_DELTA] so its log stays
# finite; 0 would put log(0) into it, 1/2 or more would flatten every state.
CLAMP_DELTA = 1e-14
_TINY = np.finfo(float).tiny   # the smallest normal float
_ENTROPY_TOL = 1e-12   # roundoff allowed in the entropy-control inequalities


def _mixing_entropy(x: np.ndarray) -> np.ndarray:
    """x log x + (1 - x) log(1 - x) of x in [0, 1], unchecked, in two fresh
    buffers: each y log y is y log(max(y, _TINY)), with its limit 0 at y = 0
    (raising the log's argument to _TINY moves subnormal y by less than
    1e-305).  Outputs are passed positionally, as in `solver_fv._FvKernel`,
    except to `np.maximum`, which deprecates that form."""
    y_log_y, log_y = np.empty(x.shape), np.empty(x.shape)
    np.subtract(1.0, x, y_log_y)   # y = 1 - x
    np.maximum(y_log_y, _TINY, out=log_y)
    np.log(log_y, log_y)
    np.multiply(y_log_y, log_y, y_log_y)
    np.maximum(x, _TINY, out=log_y)
    np.log(log_y, log_y)
    np.multiply(x, log_y, log_y)   # x log x
    return np.add(log_y, y_log_y, log_y)


def entropy_density(r):
    """Mixing entropy density s(r) = (1-r)log(1-r) + r log r, <= 0 on [0, 1].

    The endpoint values are the analytic limits s(0) = s(1) = 0.
    """
    arr = np.asarray(r, dtype=float)
    if not ((arr >= 0) & (arr <= 1)).all():   # a NaN fails both comparisons
        raise ValueError("entropy density is defined on [0, 1]")
    out = _mixing_entropy(arr)
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
    """Cross-upwind mobility f_donor (1 - f_receiver) of the former
    log-potential flux.  No fdfp code calls it; it stays only because the
    benchmark's tracer wraps it by name, and goes with ROADMAP item 10."""
    left, right = values[..., :-1], values[..., 1:]
    dxi = np.diff(xi, axis=-1)
    return np.where(dxi < 0, left * (1.0 - right), right * (1.0 - left))


def sg_bernoulli(grid: Grid) -> np.ndarray:
    """B(dphi) and B(-dphi) at each interior interface, as a (2, cells - 1)
    array, with phi = |v|^2/2, dphi = phi_(i+1) - phi_i and B(x) = x/(e^x - 1),
    B(0) = 1."""
    dphi = np.diff(grid.speed ** 2 / 2)
    x = np.array((dphi, -dphi))
    with np.errstate(over="ignore"):   # e^x overflows to inf, and B(x) to 0
        return np.divide(x, np.expm1(x), out=np.ones_like(x), where=x != 0)


@lru_cache(maxsize=64)
def sg_weights(grid: Grid) -> np.ndarray:
    """The weights (w0, w1) = (A B(dphi), A B(-dphi)) / h of the exclusion
    Scharfetter-Gummel flux at each interior interface (`sg_bernoulli`), A
    the interface area, as a read-only array computed once per mesh value
    (a `Grid` hashes by its four parameters).  The area-weighted flux

        A F_(i+1/2) = w0 f_i (1 - f_(i+1)) - w1 f_(i+1) (1 - f_i)

    vanishes exactly when f_(i+1)/(1 - f_(i+1)) = e^(-dphi) f_i/(1 - f_i), so
    sampled Fermi-Dirac profiles are steady states, and is monotone
    (non-decreasing in f_i, non-increasing in f_(i+1)) on [0, 1].
    """
    weights = sg_bernoulli(grid) * (grid.interface_area[1:-1] / grid.width)
    weights.setflags(write=False)
    return weights


def _dissipations(values: np.ndarray, grid: Grid) -> np.ndarray:
    """D = sum over interior interfaces of |A F_(i+1/2) (xi_i - xi_(i+1))| of
    each row, with F the Scharfetter-Gummel flux and xi `potential`.

    Where no cell of an interface is clamped, F and xi_i - xi_(i+1) have one
    sign and D is -dH/dt of the semi-discrete flow; the absolute value acts
    only where a clamped cell, or roundoff at equilibrium, gives them
    opposite signs, so D is finite and non-negative.
    """
    xi = potential(values, grid)
    left, right = values[..., :-1], values[..., 1:]
    w = sg_weights(grid)
    flux = w[0] * left * (1.0 - right) - w[1] * right * (1.0 - left)
    return np.add.reduce(np.abs(flux * (xi[..., :-1] - xi[..., 1:])), axis=-1)


def dissipation(state: DistributionState) -> float:
    """Discrete entropy dissipation D >= 0 (see `_dissipations`)."""
    return float(_dissipations(state.values, state.grid))


@lru_cache(maxsize=512)
def equilibrium_free_energy(mass: float, dim: int) -> float:
    """H of the continuum equilibrium with the given mass, by converged radial
    quadrature.  No fdfp measurement uses it (they measure against
    `equilibrium.discrete_equilibrium`); the benchmark's set-up and tracer do.
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
    lhs: float   # ||f - F_h||_1^2
    rhs: float   # 2 M (H(f) - H(F_h))

    holds = property(lambda self: self.lhs <= self.rhs * (1 + 1e-6) + 1e-10)


def csiszar_kullback_check(state: DistributionState, mass: float) -> CsiszarKullbackReport:
    """Check ||f - F_h||_1^2 <= 2 M (H(f) - H(F_h)) on the state's grid.

    F_h is the discrete equilibrium of mass M (`discrete_equilibrium`), which
    minimises the discrete free energy at that mass, so the inequality is
    exact at F_h.
    """
    eq = discrete_equilibrium(mass, state.grid)
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


def free_energy_parts(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The entropy S and the energy E of each row of `values`, whose sum is the
    free energy; bit for bit the single-state functionals of each row (each
    sum is numpy's dot of one row, `row_dots`, as theirs is).

    One min and one max of `values` decide whether it lies in [0, 1], where
    clipping changes nothing: then the entropy density skips the clip and
    `entropy_density`'s range check.  Any other block, one holding a NaN
    among them, is clipped and checked as `entropy` does."""
    q = grid.qweight
    if 0.0 <= np.minimum.reduce(values, None) and np.maximum.reduce(values, None) <= 1.0:
        density = _mixing_entropy(values)
    else:
        density = entropy_density(np.clip(values, 0.0, 1.0))
    return row_dots(q, density), 0.5 * row_dots(q, grid.speed ** 2 * values)


def compute_diagnostics(values: np.ndarray, grid: Grid, eq_values: np.ndarray,
                        eq_free_energy: float) -> dict[str, np.ndarray]:
    """The DIAGNOSTICS columns of a (rows, cells) matrix against a fixed equilibrium
    reference, bit for bit the single-state functionals of each row: the elementwise
    parts run on the whole matrix, and each sum is numpy's dot of one row (`row_dots`),
    as theirs is."""
    q = grid.qweight
    s, e = free_energy_parts(values, grid)
    d = _dissipations(values, grid)
    h = s + e   # free_energy = entropy + energy, exactly
    return dict(zip(DIAGNOSTICS, (row_dots(q, values), e, s, h, d, h - eq_free_energy,
                                  row_dots(q, np.abs(values - eq_values)))))
