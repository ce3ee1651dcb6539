import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdfp
from fdfp.functionals import entropy_control_constant, moment_bound_polynomial
from fdfp.grid import MAX_DIM, Grid, boundary_density, row_dots

from conftest import DIM_RULE


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
    # a fractional dim built a mesh of its integer part, and a fractional
    # cell count failed inside numpy with a TypeError
    for dim in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=DIM_RULE):
            fdfp.make_grid("radialNd", dim, 8.0, 64)
    with pytest.raises(ValueError, match="cartesian1d requires dim = 1"):
        fdfp.make_grid("cartesian1d", 1.5, 8.0, 64)
    for cells in (16.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="cells must be an integer"):
            fdfp.make_grid("cartesian1d", 1, 8.0, cells)
    # a str or None was compared with numbers: numpy's TypeError
    for field, value in (("cells", "64"), ("cells", None), ("extent", "8"), ("extent", None)):
        with pytest.raises(ValueError, match=f"{field} must be a number, got {value!r}"):
            fdfp.Grid(**{"geometry": "cartesian1d", "dim": 1, "extent": 8.0, "cells": 64,
                         field: value})
    # a cell measure below the smallest normal float: the solver divides by
    # it.  `Grid` keeps accepting it, as snapshots describe a mesh
    with pytest.raises(ValueError, match="below the smallest normal float"):
        fdfp.make_grid("cartesian1d", 1, 1e-306, 1024)
    assert fdfp.Grid("cartesian1d", 1, 1e-306, 1024).qweight[0] < np.finfo(float).tiny
    # integral floats are integers
    g = fdfp.make_grid("radialNd", 3.0, 8, 16.0)
    assert (g.dim, g.extent, g.cells) == (3, 8.0, 16)
    assert (type(g.dim), type(g.extent), type(g.cells)) == (int, float, int)
    assert np.array_equal(g.qweight, fdfp.make_grid("radialNd", 3, 8.0, 16).qweight)


def test_every_bare_dimension_meets_one_rule():
    # five entries took a dim, each with its own check or none; dims up to
    # 341 reached the numerics, and from 137 on their floats overflowed
    entries = (lambda d: Grid("radialNd", d, 8.0, 64),
               lambda d: fdfp.FermiDiracSpec(beta=1.0, dim=d),
               lambda d: fdfp.beta_of_mass(1.0, d),
               lambda d: moment_bound_polynomial(1, [1.0, 0.5], mass=1.0, dim=d),
               lambda d: entropy_control_constant(0.5, d))
    for entry in entries:
        for dim in (0, -1, 2.5, math.nan, math.inf, "3", None, MAX_DIM + 1, 342, 10 ** 400):
            message = f"dim must be an integer in [1, {MAX_DIM}], got {dim!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                entry(dim)
        for dim in (1, 2.0, MAX_DIM):
            entry(dim)


def test_grid_is_its_four_parameters():
    assert [f.name for f in dataclasses.fields(Grid)] == ["geometry", "dim", "extent", "cells"]
    a, b = Grid("radialNd", 3, 8.0, 64), Grid("radialNd", 3.0, 8, 64)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Grid("radialNd", 2, 8.0, 64) and a != Grid("radialNd", 3, 8.0, 32)
    # building a grid allocates nothing, so a huge one is just its parameters
    assert Grid("cartesian1d", 1, 8.0, 10 ** 13).cells == 10 ** 13
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.cells = 32
    # the derived arrays are cached and shared: writing one raises, where
    # writing the edges silently moved every later Picard build on the grid
    for grid in (a, Grid("cartesian1d", 1, 8.0, 64)):
        for name in ("node", "qweight", "edges", "speed", "interface_area"):
            with pytest.raises(ValueError):
                getattr(grid, name)[0] = 0.0
    # the refined mesh of a nested level
    fine = dataclasses.replace(a, cells=2 * a.cells)
    assert fine == fdfp.make_grid("radialNd", 3, 8.0, 128)
    assert fine.width == a.width / 2
    assert np.array_equal(fine.node[1::2] - fine.width / 2, a.node)


def test_derived_arrays_follow_their_formulas():
    # the formulas of the mesh, operation for operation
    for cells, extent in ((16, 8.0), (99, 7.3), (65, 6.5)):
        g = Grid("cartesian1d", 1, extent, cells)
        h = 2 * extent / cells
        assert g.width == h
        assert np.array_equal(g.node, -extent + (np.arange(cells) + 0.5) * h)
        assert np.array_equal(g.qweight, np.full(cells, h))
        for dim in (1, 2, 3, 5):
            g = Grid("radialNd", dim, extent, cells)
            h = extent / cells
            node = (np.arange(cells) + 0.5) * h
            assert g.width == h and np.array_equal(g.node, node)
            assert np.array_equal(g.qweight,
                                  dim * fdfp.grid.unit_ball_volume(dim) * node ** (dim - 1) * h)


def test_unit_ball_volume_overflow_is_a_value_error():
    # math.gamma(172) overflows: an OverflowError traceback from check, run
    # and snapshot-info before.  No mesh reaches it now: the dim rule stops it
    for dim in (MAX_DIM + 1, 341, 342):
        with pytest.raises(ValueError, match=DIM_RULE):
            Grid("radialNd", dim, 8.0, 64)
    assert Grid("radialNd", MAX_DIM, 8.0, 64).qweight.min() > 0


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
    # inf raised OverflowError and nan numpy's conversion error
    for order in (math.inf, math.nan, 2.5, "2"):
        with pytest.raises(ValueError, match="moment order must be an even integer"):
            fdfp.moment(eq_beta1, order)
    assert fdfp.moment(eq_beta1, 2.0) == fdfp.moment(eq_beta1, 2)


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


@pytest.mark.parametrize("cells", [1, 2, 7, 64, 128, 1000, 4096])
def test_row_dots_are_the_dots_of_single_rows(cells, rng):
    # the bits of np.dot of each row as a state holds it (contiguous), however
    # the rows are laid out; np.dot of a strided row may round otherwise
    weights = rng.uniform(0, 2, cells)
    values = rng.uniform(0, 1, (9, cells))
    mask = rng.uniform(size=cells) < 0.6
    for rows, w in ((values, weights), (np.asfortranarray(values), weights),
                    (values[:, mask], weights[mask])):
        dots = row_dots(w, rows)
        assert dots.shape == (len(rows),)
        assert all(dots[i] == np.dot(w, np.ascontiguousarray(rows[i])) for i in range(len(rows)))


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
    assert boundary_density(grid256, vals) == 0.25
