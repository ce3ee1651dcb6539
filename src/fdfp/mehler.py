"""Fundamental solution of the linear Fokker-Planck equation and its operators.

The kernel is a Gaussian in the rescaled variable a(t)^(-1/2) v - w with
a(t) = exp(-2t) and nu(t) = exp(2t) - 1; applied to a density it realizes
the linear semigroup (an Ornstein-Uhlenbeck/Mehler kernel), which keeps
mass and nonnegativity but not the bound f <= 1.  The operators take and
return arrays of one value per cell, and floor their Gaussian factors
alike (`_floored_exp`):

* the midpoint-quadrature `apply_kernel`, accurate once nu(t)^(1/2)
  spans a few cells (nothing checks this), and
* the cell-edge integrated gradient, which integrates the kernel gradient
  exactly against the piecewise-constant reconstruction, uniformly
  accurate down to t -> 0; the integral-equation solver uses it inside its
  singular time quadrature, one banded build of several kernel times
  folded into dense matrices; `apply_kernel_gradient_edges` folds one,
  and the smoothing-bound sweep applies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import equilibrium_state
from .grid import CARTESIAN_1D, DistributionState, Grid

# keeps nu(t) ~ 2t > 0 in the midpoint operator; it does not make the kernel
# resolvable: on 256 cells of [-8, 8], nu(t)^(1/2) is below a cell for t < 0.002
T_MIN = 1e-6
# the times of the smoothing-bound sweep; at t = 0.01 the kernel's width
# sqrt(nu) is about two cells of a 256-cell mesh of [-8, 8]
BOUND_TIMES = (0.01, 0.1, 1.0, 2.0)
MAX_SPREAD = 10.0   # of an envelope over BOUND_TIMES; the bounds' constants do not depend on t
# the mass of the equilibrium in the bound test family: beta = 1 in 1-D
_FAMILY_MASS = 1.5162560428865945

# np.exp is far slower (15x to 100x) where its result is subnormal or
# underflows, so a Gaussian factor whose exponent is at or below -700 is an
# exact zero, in `kernel_eval` and the edge-Gaussian tensors alike; it would
# add nothing at double precision.  A zero, not exp(-700) ~ 1e-304, whose
# products with data below about 1e-4 are subnormal: those made every
# contraction 2.3x to 3.3x slower, and `apply_kernel`'s product up to 9x.
_EXP_FLOOR = -700.0
# The edge-Gaussian tensors keep, for each row, the edges within this many
# standard deviations sqrt(nu) of the row's centre.  A dropped entry is below
# exp(-9^2 / 2) ~ 2.6e-18 of the row's peak.
_BAND_SIGMAS = 9.0
# Rows are stored in blocks of this many, each block on its own range of
# edges, so that a block is folded by one slice addition.
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class MehlerFactors:
    """Time-dependent scaling factors of the kernel."""

    t: float
    a: float
    nu: float

    @classmethod
    def from_time(cls, t: float) -> "MehlerFactors":
        """The factors at time t > 0, which overflow from t ~ 354."""
        if not t > 0:
            raise ValueError("kernel time must be positive")
        try:
            fac = cls(t=float(t), a=math.exp(-2 * t), nu=math.expm1(2 * t))
            if fac.a > 0 and fac.nu < math.inf and 0 < fac.norm < math.inf:
                return fac
        except OverflowError:   # math.expm1, from t ~ 355
            pass
        raise ValueError(f"kernel time {t:g} is too large: nu(t), a(t) or the kernel's "
                         "normalisation is not a finite positive float")

    @property
    def norm(self) -> float:
        """The kernel's normalisation a^(-1/2) (2 pi nu)^(-1/2)."""
        return self.a ** -0.5 * (2 * math.pi * self.nu) ** -0.5


def _floored_exp(X: np.ndarray) -> np.ndarray:
    """exp(X) in place, with an exact zero where X <= _EXP_FLOOR; returns X."""
    if X.min(initial=np.inf) > _EXP_FLOOR:
        return np.exp(X, out=X)
    floor = X <= _EXP_FLOOR
    np.exp(np.maximum(X, _EXP_FLOOR, out=X), out=X)
    X[floor] = 0.0
    return X


def kernel_eval(t: float, v, w):
    """Pointwise 1-D kernel value; integrates to 1 over v for fixed w.

    v and w are scalars or arrays of coordinates.  A value whose exponent is
    at or below _EXP_FLOOR is an exact zero.
    """
    fac = MehlerFactors.from_time(t)
    diff = fac.a ** -0.5 * np.asarray(v, dtype=float) - np.asarray(w, dtype=float)
    out = fac.norm * _floored_exp(np.asarray(-diff ** 2 / (2 * fac.nu)))
    return float(out) if out.ndim == 0 else out


def require_cartesian(grid: Grid) -> None:
    """Raise ValueError unless the kernel operators accept `grid`."""
    if grid.geometry != CARTESIAN_1D:
        raise ValueError("kernel operators require a cartesian1d grid")


def _cell_values(grid: Grid, values) -> np.ndarray:
    """values as a float array, one per cell of a cartesian1d grid."""
    require_cartesian(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.cells,):
        raise ValueError(f"values of shape {values.shape} do not match a grid "
                         f"of {grid.cells} cells")
    return values


def apply_kernel(t: float, grid: Grid, values) -> np.ndarray:
    """K(t) applied to the cell values by midpoint quadrature in w.

    The result may exceed 1: K(t) does not keep the bound, and an
    unresolved kernel overshoots.  Refuses t < T_MIN; callers use the
    identity there.
    """
    values = _cell_values(grid, values)
    if t < T_MIN:
        raise ValueError(f"apply_kernel needs t >= {T_MIN}; use the identity for smaller t")
    v = grid.node
    K = kernel_eval(t, v[:, None], v[None, :])
    return K @ (grid.qweight * values)


def apply_kernel_gradient_edges(t: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """v-gradient of the kernel against the piecewise-constant reconstruction.

    The cell integrals reduce to Gaussian density differences at the cell
    edges; no small-t guard is needed.
    """
    values = _cell_values(grid, values)
    M = np.zeros(((grid.cells + 1) // 2, 1, grid.cells + 1))
    _fold_edge_gaussians(_edge_gaussians(np.array([t], dtype=float), grid), np.ones((1, 1)), M)
    return _apply_folded(M, values[None, :])


def _edge_gaussians(times: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge Gaussians of the kernel gradient at several times.

    The edge-integrated kernel gradient at time t against the piecewise-
    constant reconstruction of u is

        (1/a) sum_m P[i, m] (u_m - u_{m-1}),   P[i, m] = phi_nu(c_i - e_m),

    with c = a^(-1/2) v, e the cell edges, phi_nu the centred Gaussian
    density of variance nu and u padded by a zero at both ends.  This is
    (P[:, :-1] - P[:, 1:]) @ u summed by parts, so no differenced matrix is
    formed.  The mesh is mirror symmetric (c_{n-1-i} = -c_i, e_{n-m} = -e_m),
    so P[n-1-i, n-m] = P[i, m]: only the top ceil(n/2) rows are built.

    The rows come in blocks of _BLOCK_ROWS (the last block repeats the last
    row) on one band of `width` edges: block b holds the edges from first[b]
    on, those within _BAND_SIGMAS sqrt(nu) of its centres for the build's
    largest nu, at its smallest and largest scale a^(-1/2).  Every centre
    lies between the two, so the band holds each time's own.  An entry
    whose exponent is at or below _EXP_FLOOR is an exact zero.

    Returns first, the (times, blocks, _BLOCK_ROWS, width) tensor of
    unnormalised exponentials and the normalisation a sqrt(2 pi nu) per
    time.  Nothing here depends on u: one build serves any number of folds.
    """
    # the factors are valid on an interval of times: checking the ends checks all
    for t in (times.min(), times.max()):
        MehlerFactors.from_time(t)
    scale = np.exp(times)           # a^(-1/2)
    nu = np.expm1(2 * times)
    n = grid.cells
    rows = (n + 1) // 2
    blocks = -(-rows // _BLOCK_ROWS)
    v = grid.node[np.minimum(np.arange(blocks * _BLOCK_ROWS), rows - 1)].reshape(blocks, -1)
    reach = _BAND_SIGMAS * math.sqrt(nu.max())
    ends = (scale.min() * v, scale.max() * v)
    lo = np.searchsorted(grid.edges, np.minimum(*ends) - reach, "left").min(axis=1)
    hi = np.searchsorted(grid.edges, np.maximum(*ends) + reach, "right").max(axis=1)
    width = max(int((hi - lo).max()), 1)
    first = np.minimum(lo, n + 1 - width)
    edges = grid.edges[first[:, None] + np.arange(width)][:, None, :]
    P = np.subtract((scale[:, None, None] * v)[..., None], edges)
    np.square(P, out=P)
    P *= (-0.5 / nu)[:, None, None, None]
    return first, _floored_exp(P), np.exp(-2 * times) * np.sqrt(2 * math.pi * nu)


def _mirrored(values: np.ndarray) -> np.ndarray:
    """The edge differences of each row of values padded by a zero at both
    ends, and of the reversed row: shape (..., 2, n + 1)."""
    n = values.shape[-1]
    du = np.empty(values.shape[:-1] + (2, n + 1))
    du[..., 0, 0] = values[..., 0]
    np.subtract(values[..., 1:], values[..., :-1], out=du[..., 0, 1:n])
    du[..., 0, n] = -values[..., -1]
    du[..., 1, :] = du[..., 0, ::-1]
    return du


def _unmirror(R: np.ndarray, n: int) -> np.ndarray:
    """Rows of a mirrored contraction R (..., 2, top): the top rows, then the
    bottom rows read backwards off the reversed data."""
    return np.concatenate([R[..., 0, :], R[..., 1, :n // 2][..., ::-1]], axis=-1)


def _fold_edge_gaussians(gaussians, weights: np.ndarray, out: np.ndarray) -> None:
    """Add the weighted sums M_x = sum_j weights[x, j] P_j / norm_j over the
    times of `gaussians` to the dense (rows, x, n + 1) array `out`."""
    first, P, norm = gaussians
    count, blocks, size, width = P.shape
    sums = ((weights / norm) @ P.reshape(count, -1)).reshape(-1, blocks, size, width)
    for b, lo in enumerate(first):
        block = out[b * size:(b + 1) * size, :, lo:lo + width]
        block += sums[:, b, :block.shape[0]].transpose(1, 0, 2)


def _apply_folded(M: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_x of the edge-integrated gradient of M_x against values[x]
    (`_fold_edge_gaussians`): one matrix product for all rows."""
    du = _mirrored(values)                                  # (x, 2, n + 1)
    R = M.reshape(M.shape[0], -1) @ du.transpose(0, 2, 1).reshape(-1, 2)
    return _unmirror(R.T, values.shape[1])


def weighted_norm(values, grid: Grid, p: float, m: float) -> float:
    """Discrete (1 + |v|^m)-weighted p-norm of the cell values; p = inf is
    the weighted max, and m = 0 the plain (unweighted) norm."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    if not 0 <= m < math.inf:
        raise ValueError(f"m must be >= 0 and finite, got {m!r}")
    weight = 1.0 if m == 0 else 1.0 + grid.speed ** m
    weighted = weight * np.abs(values)
    if math.isinf(p):
        return float(weighted.max())
    return float(np.dot(grid.qweight, weighted ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SmoothingBoundSpec:
    """Exponent/weight combination for one smoothing-bound measurement; the
    dimension N is that of the state's grid."""

    p: float
    q: float
    m: float
    alpha_order: int

    def __post_init__(self):
        if not 1 <= self.q <= self.p:
            raise ValueError("need 1 <= q <= p")
        if not 0 <= self.m < math.inf:
            raise ValueError("m must be >= 0 and finite")
        if self.alpha_order not in (0, 1):
            raise ValueError("only derivative orders 0 and 1 are supported")


def smoothing_bound_ratio(spec: SmoothingBoundSpec, t: float, g: DistributionState) -> float:
    """Measured smoothing-bound ratio.

    Returns ||D^alpha K(t) g||_{p,m} * nu^{(N/2)(1/q - 1/p) + |alpha|/2}
    * exp(-(N/p' + |alpha|) t) / ||g||_{q,m}; the claim is that this stays
    bounded by a constant independent of t.  The operators are those of the
    Picard oracle: the midpoint `apply_kernel` for alpha = 0 and the
    edge-integrated `apply_kernel_gradient_edges` for |alpha| = 1.  K(t) g
    is not required to lie in [0, 1]: where the mesh cannot resolve the
    kernel, the midpoint quadrature overshoots, and the ratio shows it.
    """
    return _rescaled_ratio(spec, t, g, _image(spec.alpha_order, t, g))


def _image(alpha_order: int, t: float, g: DistributionState) -> np.ndarray:
    """D^alpha K(t) g by `smoothing_bound_ratio`'s operator, looked up when called."""
    return (apply_kernel, apply_kernel_gradient_edges)[alpha_order](t, g.grid, g.values)


def _rescaled_ratio(spec: SmoothingBoundSpec, t: float, g: DistributionState, image) -> float:
    """`smoothing_bound_ratio` of g, given `image`, its operator's image of g at time t."""
    den = weighted_norm(g.values, g.grid, spec.q, spec.m)
    if den == 0.0:
        raise ValueError("bound ratio undefined for the zero state")
    inv_p, inv_q = (0.0 if math.isinf(x) else 1.0 / x for x in (spec.p, spec.q))
    dim = g.grid.dim
    exponent = MehlerFactors.from_time(t).nu ** (dim / 2 * (inv_q - inv_p) + spec.alpha_order / 2)
    damping = math.exp(-(dim * (1.0 - inv_p) + spec.alpha_order) * t)
    return weighted_norm(image, g.grid, spec.p, spec.m) * exponent * damping / den


def bound_test_family(grid: Grid) -> list[DistributionState]:
    """Fixed family probing the smoothing bounds: a Gaussian, a narrow
    (delta-like) indicator that saturates the L1 -> Lp rates, and an
    equilibrium profile."""
    gauss = DistributionState(grid, 0.8 * np.exp(-grid.node ** 2 / 2))
    mid = grid.cells // 2
    vals = np.zeros(grid.cells)
    vals[max(mid - 1, 0):mid + 2] = 0.8
    narrow = DistributionState(grid, vals)
    return [gauss, narrow, equilibrium_state(_FAMILY_MASS, grid)]


@dataclass(frozen=True)
class BoundSweepCase:
    spec: SmoothingBoundSpec
    envelope: tuple[float, ...]   # max ratio over the family, per sweep time

    max_ratio = property(lambda self: max(self.envelope))
    spread = property(lambda self: max(self.envelope) / min(self.envelope))   # over the sweep

    @property
    def holds(self) -> bool:   # finite ratios, an envelope that spreads by <= MAX_SPREAD
        # max and min pass over a NaN that is not the first entry: test every entry
        return all(map(math.isfinite, self.envelope)) and self.spread <= MAX_SPREAD


def kernel_bound_sweep(grid: Grid) -> list[BoundSweepCase]:
    """Measure the rescaled smoothing ratios at BOUND_TIMES.

    For each exponent combination of `standard_bound_specs()` the
    reported quantity is the envelope of the measured ratios over the test
    family (per-function ratios decay to zero at t -> 0 whenever that
    function cannot saturate the rate, which says nothing about the bound's
    constant).  Each operator is applied once per (time, member): the specs
    differ only in their norms and rescaling."""
    family = bound_test_family(grid)
    pairs = {(alpha, t): [(g, _image(alpha, t, g)) for g in family]
             for alpha in (0, 1) for t in BOUND_TIMES}
    return [BoundSweepCase(spec, tuple(max(_rescaled_ratio(spec, t, *pair)
                                           for pair in pairs[spec.alpha_order, t])
                                       for t in BOUND_TIMES))
            for spec in standard_bound_specs()]


def standard_bound_specs() -> list[SmoothingBoundSpec]:
    """The {1, 2, inf}^2 x {0, 1} x {0, 1} test matrix with q <= p."""
    specs = []
    for p in (1.0, 2.0, math.inf):
        for q in (1.0, 2.0, math.inf):
            if q > p:
                continue
            for m in (0.0, 1.0):
                for alpha in (0, 1):
                    specs.append(SmoothingBoundSpec(p=p, q=q, m=m, alpha_order=alpha))
    return specs
