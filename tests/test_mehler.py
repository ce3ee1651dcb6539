import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdfp
from fdfp import mehler
from fdfp.solver_duhamel import _lag_rule
from fdfp.mehler import (
    SmoothingBoundSpec,
    MehlerFactors,
    smoothing_bound_ratio,
    apply_kernel,
    apply_kernel_gradient_edges,
    kernel_bound_sweep,
    kernel_eval,
    weighted_norm,
)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 20.0))
def test_factors_identity(t):
    fac = MehlerFactors.from_time(t)
    assert 0 < fac.a < 1 and fac.nu > 0
    assert fac.a * (1 + fac.nu) == pytest.approx(1.0, rel=1e-12)


def test_factors_validation():
    with pytest.raises(ValueError):
        MehlerFactors.from_time(0.0)
    with pytest.raises(ValueError):
        kernel_eval(-1.0, 0.0, 0.0)


def test_kernel_value_large_time():
    # at large t the kernel at the origin approaches the Maxwellian peak
    assert kernel_eval(10.0, 0.0, 0.0) == pytest.approx(
        (2 * math.pi) ** -0.5, abs=1e-9)


def test_kernel_eval_exponent_clamp(grid256):
    # the floor at exp(-700) changes only entries below norm * 1e-304, and
    # those by less than 1e-300; every other entry is the unclamped formula
    v = grid256.node
    clamped = 0
    for t in (mehler.T_MIN, 1e-4, 0.01, 0.1, 1.0):
        fac = MehlerFactors.from_time(t)
        exponent = -((fac.a ** -0.5 * v[:, None] - v[None, :]) ** 2) / (2 * fac.nu)
        with np.errstate(under="ignore"):
            exact = fac.a ** -0.5 * (2 * math.pi * fac.nu) ** -0.5 * np.exp(exponent)
        got = kernel_eval(t, v[:, None], v[None, :])
        assert np.abs(got - exact).max() <= 1e-300
        kept = exponent >= mehler._EXP_FLOOR
        assert np.array_equal(got[kept], exact[kept])
        clamped += int((~kept).sum())
    assert clamped > 0


def test_kernel_eval_floor_is_an_exact_zero(grid256):
    # one floor policy, that of the edge-Gaussian tensors: a value whose
    # exponent is at or below the floor is an exact zero, so apply_kernel's
    # matrix holds no norm * exp(-700), whose products are subnormal
    v = grid256.node
    for t in (mehler.T_MIN, 1e-4, 0.01):
        fac = MehlerFactors.from_time(t)
        exponent = -((fac.a ** -0.5 * v[:, None] - v[None, :]) ** 2) / (2 * fac.nu)
        floor = exponent <= mehler._EXP_FLOOR
        K = kernel_eval(t, v[:, None], v[None, :])
        assert floor.any() and np.all(K[floor] == 0.0)
        assert not np.any((K > 0) & (K <= fac.norm * np.exp(mehler._EXP_FLOOR)))
        # apply_kernel's column j, times q_j, is its matrix's
        for j in (0, 100, 255):
            column = apply_kernel(t, grid256, np.eye(grid256.cells)[j])
            assert np.array_equal(column, K[:, j] * grid256.qweight[j])
    assert kernel_eval(0.01, 0.0, 8.0) == 0.0


@pytest.mark.parametrize("t", [354.2, 400.0, math.inf])
def test_kernel_operators_reject_times_whose_factors_overflow(grid256, eq_beta1, t):
    # from t ~ 354 the normalisation, then nu(t), overflow: at 354.2
    # apply_kernel lost the mass (all zeros) and the gradients gave NaN, and
    # larger times raised OverflowError or ZeroDivisionError
    spec = SmoothingBoundSpec(p=2.0, q=1.0, m=0.0, alpha_order=1)
    for call in (lambda: MehlerFactors.from_time(t),
                 lambda: apply_kernel(t, grid256, eq_beta1.values),
                 lambda: apply_kernel_gradient_edges(t, grid256, eq_beta1.values),
                 lambda: mehler._edge_gaussians(np.array([0.1, t]), grid256),
                 lambda: smoothing_bound_ratio(spec, t, eq_beta1)):
        with pytest.raises(ValueError, match="too large"):
            call()


def test_kernel_operators_at_a_large_finite_time(grid256, eq_beta1):
    # at t = 300 the factors are finite and the data has relaxed to the
    # Maxwellian of its mass
    mass = fdfp.integrate(eq_beta1)
    maxw = mass * (2 * math.pi) ** -0.5 * np.exp(-grid256.node ** 2 / 2)
    assert l1(grid256, apply_kernel(300.0, grid256, eq_beta1.values), maxw) <= 1e-10
    assert np.all(np.isfinite(apply_kernel_gradient_edges(300.0, grid256, eq_beta1.values)))


def test_kernel_integrates_to_one_over_v(grid512):
    for t in (0.1, 1.0):
        for w in (0.0, 1.5, -2.0):
            vals = kernel_eval(t, grid512.node, w)
            assert float(np.dot(grid512.qweight, vals)) == pytest.approx(1.0, abs=1e-8)


def l1(grid, a, b):
    return float(np.dot(grid.qweight, np.abs(a - b)))


def test_maxwellian_is_fixed_point(grid256):
    maxw = (2 * math.pi) ** -0.5 * np.exp(-grid256.node ** 2 / 2)
    out = apply_kernel(0.7, grid256, maxw)
    assert l1(grid256, out, maxw) <= 1e-10


def test_apply_kernel_small_time_is_near_identity():
    # needs a mesh fine enough to resolve nu(1e-4)^(1/2) ~ 0.014
    fine = fdfp.make_grid("cartesian1d", 1, 8.0, 4096)
    g = 0.6 * np.exp(-(fine.node - 1.0) ** 2)
    t = 1e-4
    out = apply_kernel(t, fine, g)
    assert l1(fine, out, g) <= 10 * t


def test_apply_kernel_guard_and_geometry(grid256, radial256):
    g = 0.5 * np.exp(-grid256.node ** 2)
    with pytest.raises(ValueError):
        apply_kernel(1e-7, grid256, g)
    with pytest.raises(ValueError):
        apply_kernel(0.5, radial256, 0.5 * np.exp(-radial256.node ** 2))
    # data of the wrong length: 255 values gave 255 gradients from the edge
    # gradient, and 200 an IndexError
    for operator in (apply_kernel, apply_kernel_gradient_edges):
        for cells in (200, 255, 257):
            with pytest.raises(ValueError, match=rf"\({cells},\).* 256 cells"):
                operator(0.1, grid256, np.ones(cells))


def test_apply_kernel_equilibration(grid256):
    g = fdfp.DistributionState(grid256, np.where(np.abs(grid256.node) <= 1, 0.5, 0.0))
    m = fdfp.integrate(g)
    out = apply_kernel(10.0, grid256, g.values)
    maxw = m * (2 * math.pi) ** -0.5 * np.exp(-grid256.node ** 2 / 2)
    assert l1(grid256, out, maxw) <= 1e-3


def test_apply_kernel_may_exceed_one(grid256):
    # K(t) keeps mass and positivity but not the bound f <= 1: its drift
    # gathers 0.9 on |v| <= 2 towards 0 (peak 1.29 at t = 0.5), and the
    # result is an array, so nothing raises
    g = np.where(np.abs(grid256.node) <= 2, 0.9, 0.0)
    out = apply_kernel(0.5, grid256, g)
    assert out.max() > 1.0
    assert np.dot(grid256.qweight, out) == pytest.approx(np.dot(grid256.qweight, g), abs=1e-8)
    assert out.min() >= 0.0


def test_second_moment_law(grid256):
    # oracle: the closed-form solution of d m2/dt = -2 m2 + 2 N mass
    g = fdfp.DistributionState(grid256, 0.6 * np.exp(-(grid256.node - 1.0) ** 2))
    m0, m2_0 = fdfp.integrate(g), fdfp.moment(g, 2)
    for t in (0.3, 1.0):
        out = fdfp.DistributionState(grid256, apply_kernel(t, grid256, g.values))
        expected = math.exp(-2 * t) * m2_0 + m0 * (1 - math.exp(-2 * t))
        assert fdfp.moment(out, 2) == pytest.approx(expected, abs=1e-5)


def test_mass_conservation_and_positivity(grid256, rng):
    for _ in range(5):
        vals = np.minimum(0.9, np.abs(rng.normal(0.3, 0.2)) * np.exp(-(grid256.node - rng.uniform(-2, 2)) ** 2))
        out = apply_kernel(rng.uniform(0.05, 1.5), grid256, vals)
        assert np.dot(grid256.qweight, out) == pytest.approx(np.dot(grid256.qweight, vals),
                                                             abs=1e-8)
        assert out.min() >= 0.0


def test_semigroup_composition(grid256):
    g = 0.6 * np.exp(-(grid256.node - 1.0) ** 2)
    for s in (0.1, 0.5):
        for t in (0.1, 0.5):
            ab = apply_kernel(t, grid256, apply_kernel(s, grid256, g))
            c = apply_kernel(s + t, grid256, g)
            assert l1(grid256, ab, c) <= 1e-6


def test_gradient_parity(grid256):
    g = 0.5 * np.exp(-grid256.node ** 2)  # even
    grad = apply_kernel_gradient_edges(0.4, grid256, g)
    assert np.abs(grad + grad[::-1]).max() <= 1e-12  # odd


def test_gradient_matches_finite_differences(grid256, grid512):
    errs = []
    for grid in (grid256, grid512):
        g = 0.6 * np.exp(-(grid.node - 1.0) ** 2)
        out = apply_kernel(0.3, grid, g)
        grad = apply_kernel_gradient_edges(0.3, grid, g)
        fd = np.gradient(out, grid.width)
        errs.append(np.abs(grad - fd)[2:-2].max())
    assert errs[0] / errs[1] > 3.0  # centered differences are O(h^2)


def test_edge_gradient_of_a_gaussian_is_second_order(grid256, grid512):
    # oracle: K(t) maps A exp(-(w - mu)^2 / (2 s2)) to the Gaussian
    # a^(-1/2) A (s2 / S)^(1/2) exp(-(c - mu)^2 / (2 S)), with c = a^(-1/2) v
    # and S = nu + s2, whose v-gradient is -a^(-1/2) (c - mu) / S times it
    fac = MehlerFactors.from_time(0.3)
    var = fac.nu + 0.5
    errs = []
    for grid in (grid256, grid512):
        c = fac.a ** -0.5 * grid.node
        Kg = fac.a ** -0.5 * 0.6 * math.sqrt(0.5 / var) * np.exp(-(c - 1.0) ** 2 / (2 * var))
        exact = -fac.a ** -0.5 * (c - 1.0) / var * Kg
        grad = apply_kernel_gradient_edges(0.3, grid, 0.6 * np.exp(-(grid.node - 1.0) ** 2))
        errs.append(np.abs(grad - exact).max())
    assert errs[0] <= 2e-4 and errs[0] / errs[1] > 3.5


def test_edge_gradient_small_time_no_blowup(grid256):
    # the edge-integrated gradient stays finite and of the size of the data's
    # own gradient down to times where the midpoint quadrature is unusable
    g = 0.6 * np.exp(-(grid256.node - 1.0) ** 2)
    slope_scale = np.abs(np.gradient(g, grid256.width)).max()
    for t in (1e-8, 1e-5, 1e-3):
        grad = apply_kernel_gradient_edges(t, grid256, g)
        assert np.all(np.isfinite(grad))
        assert np.abs(grad).max() <= 2 * slope_scale


def test_kernel_gradient_batch_rejects_nonpositive_time(grid256):
    with pytest.raises(ValueError, match="positive"):
        mehler._edge_gaussians(np.array([0.1, 0.0]), grid256)
    with pytest.raises(ValueError, match="positive"):
        apply_kernel_gradient_edges(-1e-3, grid256, np.zeros(256))


def _lag_thetas(t_final, time_nodes):
    # the kernel times theta_j of every lag of a Picard solve, one build each
    dt = t_final / (time_nodes - 1)
    return [_lag_rule(d, dt)[0] for d in range(time_nodes - 1)]


def _band_exponents(first, width, theta, grid):
    # the exponents -(c_i - e_m)^2 / (2 nu) of a band's entries, written out
    blocks, size = first.size, mehler._BLOCK_ROWS
    row = np.minimum(np.arange(blocks * size), (grid.cells + 1) // 2 - 1).reshape(blocks, size)
    nu = np.expm1(2 * theta)[:, None, None, None]
    c = np.exp(theta)[:, None, None, None] * grid.node[row][..., None]
    edges = grid.edges[first[:, None] + np.arange(width)]
    return -((c - edges[:, None, :]) ** 2) / (2 * nu)


def test_edge_gaussians_hold_no_subnormal_or_floor_entries():
    # an entry whose exponent is at or below the floor is an exact zero, not
    # exp(-700) ~ 1e-304, whose products with small data differences are
    # subnormal and slow every contraction; every other entry is its
    # Gaussian factor.  The builds of the cross_check setting (16 time nodes
    # to t = 1), and two single times
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 128)
    zeros = 0
    for theta in _lag_thetas(1.0, 16) + [np.array([1e-9]), np.array([1.0])]:
        first, P, _ = mehler._edge_gaussians(theta, grid)
        assert not np.any((P > 0) & (P <= np.exp(mehler._EXP_FLOOR)))
        exponent = _band_exponents(first, P.shape[-1], theta, grid)
        floor = exponent <= mehler._EXP_FLOOR
        assert np.all(P[floor] == 0.0)
        assert np.allclose(P[~floor], np.exp(exponent[~floor]), rtol=1e-12, atol=0)
        zeros += int(floor.sum())
    assert zeros > 0


def test_edge_gaussian_bands_keep_every_entry_above_the_cut():
    # outside its band a row's Gaussian factors are below exp(-9^2 / 2) ~
    # 2.6e-18 of its peak of 1, 9 standard deviations from its centre: for
    # every time of the builds of a 512-cell solve with 31 time nodes to
    # t = 1/4, and of one build whose times span nine decades
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 512)
    cut = math.exp(-9 ** 2 / 2)
    rows = 256
    widths = []
    for theta in _lag_thetas(0.25, 31) + [np.geomspace(1e-9, 1.0, 40)]:
        first, P, _ = mehler._edge_gaussians(theta, grid)
        size, width = P.shape[2:]
        kept = np.zeros((rows, grid.cells + 1), dtype=bool)
        for b, lo in enumerate(first):
            kept[b * size:(b + 1) * size, lo:lo + width] = True
        for t in theta:
            c = math.exp(t) * grid.node[:rows]
            full = np.exp(-((c[:, None] - grid.edges) ** 2) / (2 * math.expm1(2 * t)))
            assert full[~kept].max(initial=0.0) <= cut
        widths.append(width)
    # every lag's band drops edges; the build spanning nine decades keeps all
    assert max(widths[:-1]) <= grid.cells and widths[-1] == grid.cells + 1


def test_weighted_norm_basics(grid256, eq_beta1):
    eq = eq_beta1.values
    assert weighted_norm(eq, grid256, 1, 0) == pytest.approx(fdfp.integrate(eq_beta1), rel=1e-13)
    assert weighted_norm(eq, grid256, math.inf, 0) == eq.max()
    # oracle: quadrature of (1+|v|)^2 e^{-v^2}, frozen; the |v| kink needs a
    # fine mesh before the midpoint sum reaches 1e-6 agreement
    fine = fdfp.make_grid("cartesian1d", 1, 8.0, 8192)
    assert weighted_norm(np.exp(-fine.node ** 2 / 2), fine, 2, 1) == pytest.approx(
        2.158397733588106, abs=1e-6)
    with pytest.raises(ValueError):
        weighted_norm(eq, grid256, 0.5, 0)
    # a nan exponent or weight gave a nan norm
    with pytest.raises(ValueError, match="p must be >= 1"):
        weighted_norm(eq, grid256, math.nan, 0)
    with pytest.raises(ValueError, match="m must be >= 0"):
        weighted_norm(eq, grid256, 2, math.nan)


def test_smoothing_ratio_scale_invariance(grid256, eq_beta1):
    spec = SmoothingBoundSpec(p=2.0, q=1.0, m=1.0, alpha_order=1)
    r1 = smoothing_bound_ratio(spec, 0.5, eq_beta1)
    half = fdfp.DistributionState(grid256, 0.5 * eq_beta1.values)
    r2 = smoothing_bound_ratio(spec, 0.5, half)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_smoothing_contraction_cases(grid256, eq_beta1):
    # alpha = 0, p = q, m = 0: the rescaled kernel is essentially a
    # contraction; the measured ratio stays below a modest constant
    for p in (1.0, 2.0, math.inf):
        spec = SmoothingBoundSpec(p=p, q=p, m=0.0, alpha_order=0)
        for t in (0.01, 0.1, 1.0, 2.0):
            assert smoothing_bound_ratio(spec, t, eq_beta1) <= 3.0


def test_smoothing_gradient_ratio_applies_the_edge_gradient(grid256):
    # |alpha| = 1 measures the gradient the Picard oracle applies, bit for bit:
    # in 1-D the ratio is ||D K(t) g||_{p,m} nu^((1/q - 1/p + 1) / 2)
    # exp(-(2 - 1/p) t) / ||g||_{q,m}
    for spec in (s for s in mehler.standard_bound_specs() if s.alpha_order == 1):
        inv_p, inv_q = (0.0 if math.isinf(x) else 1.0 / x for x in (spec.p, spec.q))
        for t in mehler.BOUND_TIMES:
            fac = MehlerFactors.from_time(t)
            for _, g in mehler.bound_test_family(grid256):
                grad = apply_kernel_gradient_edges(t, grid256, g.values)
                ratio = (weighted_norm(grad, grid256, spec.p, spec.m)
                         * fac.nu ** ((inv_q - inv_p + 1) / 2) * math.exp(-(2 - inv_p) * t)
                         / weighted_norm(g.values, grid256, spec.q, spec.m))
                assert smoothing_bound_ratio(spec, t, g) == ratio


def test_smoothing_gradient_no_small_time_blowup(grid256, eq_beta1):
    spec = SmoothingBoundSpec(p=2.0, q=2.0, m=0.0, alpha_order=1)
    r_small = smoothing_bound_ratio(spec, 0.01, eq_beta1)
    r_one = smoothing_bound_ratio(spec, 1.0, eq_beta1)
    assert max(r_small, r_one) / min(r_small, r_one) <= mehler.MAX_SPREAD


def test_smoothing_ratio_of_an_unresolved_kernel_is_finite():
    # where the mesh cannot resolve the kernel the midpoint quadrature
    # overshoots [0, 1]; the ratio reports the overshoot instead of raising
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 16)
    g = fdfp.DistributionState(grid, 0.8 * np.exp(-grid.node ** 2 / 2))
    spec = SmoothingBoundSpec(p=math.inf, q=math.inf, m=0.0, alpha_order=0)
    ratio = smoothing_bound_ratio(spec, 0.001, g)
    assert math.isfinite(ratio) and ratio > 1.5


def test_bound_sweep_full_matrix(grid256):
    cases = kernel_bound_sweep(grid256)
    assert len(cases) == 24
    assert all(case.holds for case in cases)


@pytest.mark.parametrize("max_ratio,at_bound", [(1.0, True), (math.inf, False), (math.nan, False)])
def test_bound_sweep_case_holds_up_to_max_spread(max_ratio, at_bound):
    # an envelope spreading by MAX_SPREAD, then by the next float past it, with
    # `max_ratio` at each position: a non-finite entry fails wherever it stands
    spec = SmoothingBoundSpec(p=2.0, q=1.0, m=0.0, alpha_order=0)
    bound = mehler.MAX_SPREAD
    for top, holds in ((bound, at_bound), (math.nextafter(bound, math.inf), False)):
        for k in range(3):
            envelope = [1.0, top]
            envelope.insert(k, max_ratio)
            case = mehler.BoundSweepCase(spec, tuple(envelope))
            assert case.holds is holds
            if at_bound:
                assert (case.max_ratio, case.spread) == (top, top)


@pytest.mark.parametrize("field", ["max_ratio", "spread"])
def test_bound_sweep_case_derives_its_ratio_and_spread(field):
    spec = SmoothingBoundSpec(p=2.0, q=1.0, m=0.0, alpha_order=0)
    assert getattr(mehler.BoundSweepCase(spec, (2.0, 1.0, 1.5)), field) == 2.0
    with pytest.raises(TypeError):
        mehler.BoundSweepCase(spec, (1.0, 2.0), **{field: 2.0})


def test_smoothing_spec_validation():
    with pytest.raises(ValueError):
        SmoothingBoundSpec(p=1.0, q=2.0, m=0.0, alpha_order=0)
    with pytest.raises(ValueError):
        SmoothingBoundSpec(p=2.0, q=1.0, m=-1.0, alpha_order=0)
    with pytest.raises(ValueError):
        SmoothingBoundSpec(p=2.0, q=1.0, m=0.0, alpha_order=2)
    # m = nan passed the check m < 0
    with pytest.raises(ValueError, match="m must be >= 0"):
        SmoothingBoundSpec(p=2.0, q=1.0, m=math.nan, alpha_order=0)


def test_zero_state_rejected(grid256):
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    spec = SmoothingBoundSpec(p=2.0, q=1.0, m=0.0, alpha_order=0)
    with pytest.raises(ValueError):
        smoothing_bound_ratio(spec, 0.5, zero)
