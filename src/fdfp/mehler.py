"""Fundamental solution of the linear Fokker-Planck equation and its operators.

The kernel is a Gaussian in the rescaled variable a(t)^(-1/2) v - w with
a(t) = exp(-2t) and nu(t) = exp(2t) - 1; applied to a density it realizes
the linear semigroup (an Ornstein-Uhlenbeck/Mehler kernel), which keeps
mass and nonnegativity but not the bound f <= 1.  The operators take and
return arrays of cell values:

* midpoint-quadrature `apply_kernel` / `apply_kernel_gradient`, accurate
  once nu(t)^(1/2) spans a few cells (nothing checks this), and
* the cell-edge integrated gradient, which integrates the kernel gradient
  exactly against the piecewise-constant reconstruction, uniformly
  accurate down to t -> 0; the integral-equation solver uses it inside its
  singular time quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import equilibrium_state
from .grid import CARTESIAN_1D, DistributionState, Grid

# keeps nu(t) ~ 2t > 0 in the midpoint operators; it does not make the kernel
# resolvable: on 256 cells of [-8, 8], nu(t)^(1/2) is below a cell for t < 0.002
T_MIN = 1e-6
# the times of the smoothing-bound sweep; at t = 0.01 the kernel's width
# sqrt(nu) is about two cells of a 256-cell mesh of [-8, 8]
BOUND_TIMES = (0.01, 0.1, 1.0, 2.0)
# the mass of the equilibrium in the bound test family: beta = 1 in 1-D
_FAMILY_MASS = 1.5162560428865945

# np.exp is far slower (15x to 100x) where its result is subnormal or
# underflows; Gaussian factors below exp(-700) ~ 1e-304 add nothing at
# double precision, so the exponent is clamped there.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class MehlerFactors:
    """Time-dependent scaling factors of the kernel."""

    t: float
    a: float
    nu: float

    @classmethod
    def from_time(cls, t: float) -> "MehlerFactors":
        if not t > 0:
            raise ValueError("kernel time must be positive")
        return cls(t=float(t), a=math.exp(-2 * t), nu=math.expm1(2 * t))


def kernel_eval(t: float, v, w):
    """Pointwise 1-D kernel value; integrates to 1 over v for fixed w.

    v and w are scalars or arrays of coordinates.  The exponent is clamped
    at _EXP_FLOOR, so a value below norm * exp(-700) reads as that.
    """
    fac = MehlerFactors.from_time(t)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    scale = fac.a ** -0.5
    sq = (scale * v - w) ** 2
    norm = fac.a ** -0.5 * (2 * math.pi * fac.nu) ** -0.5
    out = norm * np.exp(np.maximum(-sq / (2 * fac.nu), _EXP_FLOOR))
    return float(out) if out.ndim == 0 else out


def _require_cartesian(grid: Grid):
    if grid.geometry != CARTESIAN_1D:
        raise ValueError("kernel operators require a cartesian1d grid")


def apply_kernel(t: float, grid: Grid, values) -> np.ndarray:
    """K(t) applied to the cell values by midpoint quadrature in w.

    The result may exceed 1: K(t) does not keep the bound, and an
    unresolved kernel overshoots.  Refuses t < T_MIN; callers use the
    identity there.
    """
    _require_cartesian(grid)
    if t < T_MIN:
        raise ValueError(f"apply_kernel needs t >= {T_MIN}; use the identity for smaller t")
    v = grid.node
    K = kernel_eval(t, v[:, None], v[None, :])
    return K @ (grid.qweight * np.asarray(values, dtype=float))


def apply_kernel_gradient(t: float, grid: Grid, values) -> np.ndarray:
    """Gradient (in v) of the kernel applied to the cell values, by midpoint
    quadrature."""
    _require_cartesian(grid)
    if t < T_MIN:
        raise ValueError(f"apply_kernel_gradient needs t >= {T_MIN}")
    fac = MehlerFactors.from_time(t)
    scale = fac.a ** -0.5
    v = grid.node
    diff = scale * v[:, None] - v[None, :]
    K = kernel_eval(t, v[:, None], v[None, :])
    G = K * (-scale * diff / fac.nu)
    return G @ (grid.qweight * np.asarray(values, dtype=float))


def apply_kernel_gradient_edges(t: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """v-gradient of the kernel against the piecewise-constant reconstruction.

    The cell integrals reduce to Gaussian density differences at the cell
    edges; no small-t guard is needed.
    """
    gaussians = _edge_gaussians(np.array([t], dtype=float), grid)
    return _contract_edge_gaussians(gaussians, np.asarray(values, dtype=float)[None, :])[0]


def _edge_gaussians(times: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The edge Gaussians of the kernel gradient at several times.

    The edge-integrated kernel gradient at time t against the piecewise-
    constant reconstruction of u is

        (1/a) sum_m P[i, m] (u_m - u_{m-1}),   P[i, m] = phi_nu(c_i - e_m),

    with c = a^(-1/2) v, e the cell edges, phi_nu the centred Gaussian
    density of variance nu and u padded by a zero at both ends.  This is
    (P[:, :-1] - P[:, 1:]) @ u summed by parts, so no differenced matrix is
    formed.  The mesh is mirror symmetric (c_{n-1-i} = -c_i, e_{n-m} = -e_m),
    so P[n-1-i, n-m] = P[i, m]: only the top ceil(n/2) rows are built.

    Returns the unnormalised exponentials, shape (times, ceil(n/2), n + 1),
    and the normalisation a sqrt(2 pi nu) per time.  Nothing here depends on
    u, so one build serves any number of `_contract_edge_gaussians` calls.
    """
    _require_cartesian(grid)
    if not np.all(times > 0):
        raise ValueError("kernel time must be positive")
    n = grid.cells
    top = (n + 1) // 2
    a = np.exp(-2 * times)
    nu = np.expm1(2 * times)
    c = (a ** -0.5)[:, None] * grid.node[:top]
    P = np.subtract(c[:, :, None], grid.edges)
    np.square(P, out=P)
    P *= (-0.5 / nu)[:, None, None]
    np.maximum(P, _EXP_FLOOR, out=P)
    np.exp(P, out=P)
    return P, a * np.sqrt(2 * math.pi * nu)


def _contract_edge_gaussians(gaussians: tuple[np.ndarray, np.ndarray],
                             values: np.ndarray) -> np.ndarray:
    """Edge-integrated kernel gradient, one row per time of `gaussians`.

    Row j is the v-gradient of K(times[j]) against the piecewise-constant
    reconstruction of values[j].  The bottom rows are the top rows applied
    to the reversed differences, read backwards.
    """
    P, norm = gaussians
    top = P.shape[1]
    n = values.shape[1]
    du = np.diff(values, axis=1, prepend=0.0, append=0.0)
    rhs = np.stack([du, du[:, ::-1]], axis=2)
    R = np.matmul(P, rhs) / norm[:, None, None]
    out = np.empty((P.shape[0], n))
    out[:, :top] = R[:, :, 0]
    out[:, top:] = R[:, :n // 2, 1][:, ::-1]
    return out


def weighted_norm(values, grid: Grid, p: float, m: float) -> float:
    """Discrete (1 + |v|^m)-weighted p-norm of the cell values; p = inf is
    the weighted max, and m = 0 the plain (unweighted) norm."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if not m >= 0:
        raise ValueError(f"m must be >= 0, got {m!r}")
    weight = 1.0 if m == 0 else 1.0 + grid.speed ** m
    weighted = weight * np.abs(values)
    if math.isinf(p):
        return float(weighted.max())
    return float(np.dot(grid.qweight, weighted ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SmoothingBoundSpec:
    """Exponent/weight combination for one smoothing-bound measurement."""

    p: float
    q: float
    m: float
    alpha_order: int
    dim: int

    def __post_init__(self):
        if not 1 <= self.q <= self.p:
            raise ValueError("need 1 <= q <= p")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.alpha_order not in (0, 1):
            raise ValueError("only derivative orders 0 and 1 are supported")


def smoothing_bound_ratio(spec: SmoothingBoundSpec, t: float, g: DistributionState) -> float:
    """Measured smoothing-bound ratio.

    Returns ||D^alpha K(t) g||_{p,m} * nu^{(N/2)(1/q - 1/p) + |alpha|/2}
    * exp(-(N/p' + |alpha|) t) / ||g||_{q,m}; the claim is that this stays
    bounded by a constant independent of t.  K(t) g is not required to lie
    in [0, 1]: where the mesh cannot resolve the kernel, the midpoint
    quadrature overshoots, and the ratio shows it.
    """
    fac = MehlerFactors.from_time(t)
    den = weighted_norm(g.values, g.grid, spec.q, spec.m)
    if den == 0.0:
        raise ValueError("bound ratio undefined for the zero state")
    apply = apply_kernel if spec.alpha_order == 0 else apply_kernel_gradient
    num = weighted_norm(apply(t, g.grid, g.values), g.grid, spec.p, spec.m)
    inv_p = 0.0 if math.isinf(spec.p) else 1.0 / spec.p
    inv_q = 0.0 if math.isinf(spec.q) else 1.0 / spec.q
    inv_p_conj = 1.0 - inv_p
    exponent = fac.nu ** (spec.dim / 2 * (inv_q - inv_p) + spec.alpha_order / 2)
    damping = math.exp(-(spec.dim * inv_p_conj + spec.alpha_order) * t)
    return num * exponent * damping / den


def bound_test_family(grid: Grid) -> list[tuple[str, DistributionState]]:
    """Fixed family probing the smoothing bounds: a Gaussian, a narrow
    (delta-like) indicator that saturates the L1 -> Lp rates, and an
    equilibrium profile."""
    gauss = DistributionState(grid, 0.8 * np.exp(-grid.node ** 2 / 2))
    mid = grid.cells // 2
    vals = np.zeros(grid.cells)
    vals[max(mid - 1, 0):mid + 2] = 0.8
    narrow = DistributionState(grid, vals)
    return [("gaussian", gauss), ("narrow_indicator", narrow),
            ("equilibrium", equilibrium_state(_FAMILY_MASS, grid))]


@dataclass(frozen=True)
class BoundSweepCase:
    spec: SmoothingBoundSpec
    envelope: tuple[float, ...]   # max ratio over the family, per sweep time
    max_ratio: float
    spread: float                 # max/min of the envelope over the sweep


def kernel_bound_sweep(grid: Grid) -> list[BoundSweepCase]:
    """Measure the rescaled smoothing ratios at BOUND_TIMES.

    For each exponent combination of `standard_bound_specs(grid.dim)` the
    reported quantity is the envelope of the measured ratios over the test
    family (per-function ratios decay to zero at t -> 0 whenever that
    function cannot saturate the rate, which says nothing about the bound's
    constant)."""
    family = bound_test_family(grid)
    out = []
    for spec in standard_bound_specs(grid.dim):
        envelope = tuple(
            max(smoothing_bound_ratio(spec, t, g) for _, g in family) for t in BOUND_TIMES
        )
        out.append(BoundSweepCase(
            spec=spec,
            envelope=envelope,
            max_ratio=max(envelope),
            spread=max(envelope) / min(envelope),
        ))
    return out


def standard_bound_specs(dim: int = 1) -> list[SmoothingBoundSpec]:
    """The {1, 2, inf}^2 x {0, 1} x {0, 1} test matrix with q <= p."""
    specs = []
    for p in (1.0, 2.0, math.inf):
        for q in (1.0, 2.0, math.inf):
            if q > p:
                continue
            for m in (0.0, 1.0):
                for alpha in (0, 1):
                    specs.append(SmoothingBoundSpec(p=p, q=q, m=m, alpha_order=alpha, dim=dim))
    return specs
