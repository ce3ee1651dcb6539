"""Independent references for checking fdfp's outputs.

Nothing here imports fdfp.  The Fermi-Dirac equilibria come from the
closed form of their mass and free energy in terms of polylogarithms,
evaluated with mpmath; the grid weights, the discrete mass, the free
energy and the L1 distance are written out from their definitions.

With F_beta(v) = 1/(1 + beta e^{|v|^2/2}) on R^N, s = N/2 and z = -1/beta:

    M(beta) = (2 pi)^s * (-Li_s(z))
    H(F_beta) = -M(beta) log(beta) - (2 pi)^s * (-Li_{s+1}(z))
    dM/dlog(beta) = (2 pi)^s * Li_{s-1}(z)

The free energy follows from s(F) + |v|^2 F / 2 = -F log(beta) + log(1 - F).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

PRECISION_DIGITS = 25


def _polylog(order, z) -> mpmath.mpf:
    # mpmath returns an mpc with a roundoff-sized imaginary part for |z| > 1
    return mpmath.re(mpmath.polylog(order, z))


def fd_mass(beta: float, dim: int) -> float:
    """Mass of the Fermi-Dirac equilibrium F_beta on R^dim."""
    with mpmath.workdps(PRECISION_DIGITS):
        s = mpmath.mpf(dim) / 2
        z = -1 / mpmath.mpf(beta)
        return float((2 * mpmath.pi) ** s * -_polylog(s, z))


def fd_free_energy(beta: float, dim: int) -> float:
    """Free energy H = int |v|^2 F / 2 + (1-F) log(1-F) + F log F of F_beta."""
    with mpmath.workdps(PRECISION_DIGITS):
        s = mpmath.mpf(dim) / 2
        b = mpmath.mpf(beta)
        c = (2 * mpmath.pi) ** s
        mass = c * -_polylog(s, -1 / b)
        return float(-mass * mpmath.log(b) - c * -_polylog(s + 1, -1 / b))


def beta_of_mass(mass: float, dim: int) -> float:
    """The beta with fd_mass(beta, dim) == mass, by Newton's method in log(beta).

    M is decreasing and convex in log(beta), so Newton started left of the
    root increases monotonically onto it.  The alternating series gives
    M(beta) >= (2 pi)^s (1/beta - 1/(2^s beta^2)); where that lower bound
    reaches the target mass lies such a start.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    with mpmath.workdps(PRECISION_DIGITS):
        s = mpmath.mpf(dim) / 2
        c = (2 * mpmath.pi) ** s
        target = mpmath.mpf(mass)
        disc = c * c - 4 * target * c / 2 ** s
        if disc > 0:
            lam = mpmath.log((c + mpmath.sqrt(disc)) / (2 * target))
        else:
            lam = mpmath.log(c / target) - 1
        for _ in range(200):
            z = -mpmath.exp(-lam)
            residual = c * -_polylog(s, z) - target
            slope = c * _polylog(s - 1, z)
            step = residual / slope
            lam -= step
            if abs(step) < mpmath.mpf(10) ** (-PRECISION_DIGITS + 5):
                return float(mpmath.exp(lam))
    raise RuntimeError(f"beta(mass) did not converge for mass {mass}")


def rate_constant(beta_star: float) -> float:
    """C = 1 - 1/(beta* + 1): relative entropy decays at least like exp(-2Ct)."""
    return 1.0 - 1.0 / (beta_star + 1.0)


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def nodes_and_weights(geometry: str, dim: int, extent: float, cells: int):
    """Cell centres and cell measures of the uniform mesh fdfp documents.

    cartesian1d: [-R, R] in `cells` cells of width h, measure h.
    radialNd: [0, R], measure N omega_N r^(N-1) h at the cell centre r.
    """
    if geometry == "cartesian1d":
        h = 2.0 * extent / cells
        node = -extent + (np.arange(cells) + 0.5) * h
        return node, np.full(cells, h)
    if geometry == "radialNd":
        h = extent / cells
        node = (np.arange(cells) + 0.5) * h
        return node, dim * unit_ball_volume(dim) * node ** (dim - 1) * h
    raise ValueError(f"unknown geometry {geometry!r}")


def fd_profile(beta: float, speed: np.ndarray) -> np.ndarray:
    """F_beta sampled at the given speeds, without overflow in the tails."""
    x = np.asarray(speed, dtype=float) ** 2 / 2 + math.log(beta)
    e = np.exp(-np.abs(x))
    return np.where(x > 0, e / (1.0 + e), 1.0 / (1.0 + e))


def fd_cell_averages(beta: float, geometry: str, dim: int, extent: float,
                     cells: int) -> np.ndarray:
    """Cell averages of F_beta in the mesh's own measure (8-point Gauss-Legendre per cell)."""
    x, w = np.polynomial.legendre.leggauss(8)
    node, _ = nodes_and_weights(geometry, dim, extent, cells)
    h = node[1] - node[0]
    r = node[:, None] + 0.5 * h * x[None, :]
    radial = np.abs(r) ** (dim - 1) if geometry == "radialNd" else np.ones_like(r)
    return (fd_profile(beta, np.abs(r)) * radial) @ w / (radial @ w)


def mass(weights: np.ndarray, values: np.ndarray) -> float:
    return float(np.dot(weights, values))


def free_energy(weights: np.ndarray, speed: np.ndarray, values: np.ndarray) -> float:
    """Sum of w * (|v|^2 f / 2 + f log f + (1-f) log(1-f)), with 0 log 0 = 0."""
    f = np.asarray(values, dtype=float)
    g = 1.0 - f
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(f > 0, f * np.log(f), 0.0) + np.where(g > 0, g * np.log(g), 0.0)
    return float(np.dot(weights, np.asarray(speed) ** 2 / 2 * f + s))


def l1_distance(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(weights, np.abs(np.asarray(a) - np.asarray(b))))


def log_slope(times, values) -> float:
    """Least-squares slope of log(values) against times."""
    t = np.asarray(times, dtype=float)
    y = np.log(np.asarray(values, dtype=float))
    tc = t - t.mean()
    return float(np.dot(tc, y - y.mean()) / np.dot(tc, tc))
