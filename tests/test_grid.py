import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdfp
from fdfp.grid import boundary_density


def test_cartesian_mesh_arithmetic():
    g = fdfp.make_grid("cartesian1d", 1, 8.0, 16)
    assert g.width == 1.0
    assert np.allclose(g.node, -7.5 + np.arange(16))
    assert np.all(g.qweight == 1.0)
    assert np.all(np.diff(g.node) > 0)


def test_radial_weights_n3():
    g = fdfp.make_grid("radialNd", 3, 8.0, 16)
    r = (np.arange(16) + 0.5) * 0.5
    assert np.allclose(g.node, r)
    assert np.allclose(g.qweight, 4 * math.pi * r ** 2 * 0.5, rtol=1e-14)


def test_radial_disc_area():
    # midpoint quadrature of the unit disc: oracle is the exact area pi
    with pytest.warns(UserWarning):
        g = fdfp.make_grid("radialNd", 2, 1.0, 8)
    assert abs(g.qweight.sum() - math.pi) <= 0.01 * math.pi


def test_make_grid_errors():
    with pytest.raises(ValueError):
        fdfp.make_grid("cartesian1d", 1, -1.0, 16)
    with pytest.raises(ValueError):
        fdfp.make_grid("cartesian1d", 1, 8.0, 4)
    with pytest.raises(ValueError):
        fdfp.make_grid("cartesian1d", 2, 8.0, 16)
    with pytest.raises(ValueError):
        fdfp.make_grid("spherical", 1, 8.0, 16)
    # an infinite extent used to give NaN nodes
    with pytest.raises(ValueError, match="extent must be finite"):
        fdfp.make_grid("radialNd", 3, math.inf, 16)


def test_radial_weight_ratio_constant():
    g = fdfp.make_grid("radialNd", 3, 8.0, 64)
    ratio = g.qweight / g.node ** 2
    assert np.allclose(ratio, ratio[0], rtol=1e-13)


def test_state_validation(grid256):
    with pytest.raises(ValueError):
        fdfp.DistributionState(grid256, np.full(grid256.cells, 1.5))
    with pytest.raises(ValueError):
        fdfp.DistributionState(grid256, np.full(grid256.cells, np.nan))
    with pytest.raises(ValueError):
        fdfp.DistributionState(grid256, np.zeros(7))


def test_integrate_zero_and_ones(grid256):
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    assert fdfp.integrate(zero) == 0.0
    ones = fdfp.DistributionState(grid256, np.ones(256))
    assert fdfp.integrate(ones) == pytest.approx(16.0, abs=1e-12)


def test_integrate_equilibrium_against_quadrature(grid512, eq_beta1):
    # oracle: adaptive quadrature of 1/(1 + e^{v^2/2}) over the line
    eq = fdfp.equilibrium_state(1.5162560428865945, grid512)
    assert abs(fdfp.integrate(eq) - 1.5162560428865945) <= 1e-6


def test_second_moment_against_quadrature(eq_beta1):
    # oracle: adaptive quadrature of v^2/(1 + e^{v^2/2}), frozen
    assert abs(fdfp.moment(eq_beta1, 2) - 1.9179391661758298) <= 1e-6


def test_moment_order_validation(eq_beta1):
    assert fdfp.moment(eq_beta1, 0) == fdfp.integrate(eq_beta1)
    with pytest.raises(ValueError):
        fdfp.moment(eq_beta1, 3)
    with pytest.raises(ValueError):
        fdfp.moment(eq_beta1, -2)


def test_moment_reflection_invariance(grid256, rng):
    vals = rng.uniform(0, 1, 256)
    a = fdfp.DistributionState(grid256, vals)
    b = fdfp.DistributionState(grid256, vals[::-1])
    for order in (0, 2, 4):
        assert fdfp.moment(a, order) == pytest.approx(fdfp.moment(b, order), rel=1e-13)


def test_l1_distance_basics(grid256, rng):
    vals = rng.uniform(0, 1, 256)
    a = fdfp.DistributionState(grid256, vals)
    assert fdfp.l1_distance(a, a) == 0.0
    b = fdfp.DistributionState(grid256, np.clip(vals + 0.25, 0, 1))
    shifted = fdfp.DistributionState(grid256, np.full(256, 0.25))
    base = fdfp.DistributionState(grid256, np.zeros(256))
    assert fdfp.l1_distance(shifted, base) == pytest.approx(2 * 8.0 * 0.25, rel=1e-13)


def test_l1_grid_mismatch(grid256, grid512):
    a = fdfp.DistributionState(grid256, np.zeros(256))
    b = fdfp.DistributionState(grid512, np.zeros(512))
    with pytest.raises(ValueError):
        fdfp.l1_distance(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_l1_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 32)
    a, b, c = (fdfp.DistributionState(grid, rng.uniform(0, 1, 32)) for _ in range(3))
    assert fdfp.l1_distance(a, c) <= fdfp.l1_distance(a, b) + fdfp.l1_distance(b, c) + 1e-12


def test_midpoint_refinement_order():
    # cos has nonzero boundary derivatives, so the midpoint rule error is
    # genuinely O(h^2); doubling n should shrink it by about 4
    exact = 2 * math.sin(8.0)
    errs = []
    for n in (128, 256):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        vals = 0.5 + 0.4 * np.cos(g.node)
        st_ = fdfp.DistributionState(g, vals)
        approx = fdfp.integrate(st_) - 0.5 * 16.0
        errs.append(abs(approx - 0.4 * exact))
    assert errs[0] / errs[1] > 3.0


def test_boundary_density(grid256):
    vals = np.zeros(256)
    vals[0] = 0.25
    st_ = fdfp.DistributionState(grid256, vals)
    assert boundary_density(st_) == 0.25
