import dataclasses
import math

import numpy as np
import pytest

import fdfp
from fdfp.functionals import DEFAULT_CLAMP_DELTA, free_energy, potential
from fdfp.solver_fv import (
    DecayBound,
    FvParams,
    _free_energy_from_potential,
    comparison_experiment,
    decay_bound,
    decay_rate_fit,
    interface_flux,
    max_stable_dt,
    radial_moment_propagation,
    solve,
    step,
)

from conftest import MASS_BETA1_N1, fuzz_state


def test_params_validation():
    with pytest.raises(ValueError):
        FvParams(t_final=-1.0)
    with pytest.raises(ValueError):
        FvParams(t_final=1.0, cfl_safety=1.5)
    with pytest.raises(ValueError):
        FvParams(t_final=1.0, output_stride=0)
    # cfl_safety above 1/2 can overshoot the invariant-region bound; a clamp
    # of 0 puts log(0) into the potential, one of 1/2 or more flattens it
    for key, value in (("cfl_safety", 0.75), ("cfl_safety", 1.0), ("cfl_safety", 0.0),
                       ("cfl_safety", -1.0), ("clamp_delta", 0.0), ("clamp_delta", -1.0),
                       ("clamp_delta", 0.5), ("clamp_delta", 0.6)):
        with pytest.raises(ValueError, match=key):
            FvParams(t_final=1.0, **{key: value})
    FvParams(t_final=1.0, cfl_safety=0.5, clamp_delta=0.49)


def test_fused_free_energy_matches_free_energy(rng):
    # the potential clips f to [delta, 1 - delta], which moves the term of a
    # cell with 0 < f < delta or f > 1 - delta (exact 1 cells among them) by
    # at most delta * q; exact 0 cells and all others agree to roundoff
    delta = DEFAULT_CLAMP_DELTA
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        for n in (32, 64, 128):
            grid = fdfp.make_grid(geometry, dim, 8.0, n)
            for trial in range(200):
                if trial % 2:
                    v = fuzz_state(grid, rng).values
                else:
                    # exact 0 and 1 cells among U(0, 1) draws, sometimes compactly supported
                    kind = rng.choice(3, size=n, p=[0.3, 0.2, 0.5])
                    v = np.where(kind == 0, 0.0,
                                 np.where(kind == 1, 1.0, rng.uniform(0, 1, n)))
                    if trial % 4:
                        v[np.abs(grid.node - rng.uniform(0, 3)) > rng.uniform(0.5, 3)] = 0.0
                clipped = ((v > 0) & (v < delta)) | (v > 1 - delta)
                slack = delta * float(grid.qweight[clipped].sum())
                exact = free_energy(fdfp.DistributionState(grid, v))
                fused = _free_energy_from_potential(v, potential(v, grid, delta), grid, delta)
                assert abs(fused - exact) <= 1e-13 * abs(exact) + slack


def test_equilibrium_fluxes_vanish(eq_beta1):
    J = interface_flux(eq_beta1)
    assert np.abs(J).max() <= 1e-12
    assert J[0] == 0.0 and J[-1] == 0.0


def test_full_state_has_no_interior_flux(grid256):
    ones = fdfp.DistributionState(grid256, np.ones(256))
    assert np.abs(interface_flux(ones)).max() == 0.0


def test_flux_antisymmetry_for_even_states(grid256):
    vals = 0.5 * np.exp(-grid256.node ** 2 / 3)
    st_ = fdfp.DistributionState(grid256, vals)
    J = interface_flux(st_)
    assert np.abs(J + J[::-1]).max() <= 1e-13


def test_max_stable_dt_flat_state_formula():
    # h = 0.05, R = 8, safety 0.5: dt = 0.5 * 0.0025 / (2 + 0.4)
    g = fdfp.make_grid("cartesian1d", 1, 8.0, 320)
    flat = fdfp.DistributionState(g, np.full(320, 0.3))
    dt = max_stable_dt(flat, FvParams(t_final=1.0))
    assert dt == pytest.approx(0.5 * 0.0025 / 2.4, rel=1e-12)


def test_max_stable_dt_scales_like_h_squared():
    # at large n the drift term h*R in the denominator is negligible
    dts = []
    for n in (1600, 3200):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        flat = fdfp.DistributionState(g, np.full(n, 0.3))
        dts.append(max_stable_dt(flat, FvParams(t_final=1.0)))
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=0.05)


def test_step_preserves_invariant_region_fuzz(rng):
    # single explicit steps from rough random states never leave [0, 1]
    params = FvParams(t_final=1.0)
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        grid = fdfp.make_grid(geometry, dim, 8.0, 64)
        for _ in range(2000):
            st_ = fuzz_state(grid, rng)
            out = step(st_, max_stable_dt(st_, params))
            assert out.values.min() >= 0.0
            assert out.values.max() <= 1.0


def test_step_conserves_mass_and_dissipates(grid256, rng):
    params = FvParams(t_final=1.0)
    for _ in range(200):
        st_ = fuzz_state(grid256, rng)
        dt = max_stable_dt(st_, params)
        out = step(st_, dt)
        m0, m1 = fdfp.integrate(st_), fdfp.integrate(out)
        assert abs(m1 - m0) <= 1e-13 * max(1.0, abs(m0))
        assert free_energy(out) <= free_energy(st_) + 1e-10


def test_step_equilibrium_fixed_point(eq_beta1):
    out = step(eq_beta1, 5e-4)
    assert np.abs(out.values - eq_beta1.values).max() <= 1e-12


def test_step_rejects_oversized_dt(grid256):
    vals = np.where(np.abs(grid256.node) <= 1, 1.0, 0.0)
    st_ = fdfp.DistributionState(grid256, vals)
    with pytest.raises(ValueError, match="too large"):
        step(st_, 1e-2)


def test_solve_indicator_short_run(grid256):
    vals = np.where(np.abs(grid256.node) <= 1.0, 0.5, 0.0)
    f0 = fdfp.DistributionState(grid256, vals)
    traj = solve(f0, FvParams(t_final=2.0, output_stride=200))
    assert traj.meta["max_mass_drift_rel"] <= 1e-12
    assert traj.meta["min_value"] >= 0.0
    assert traj.meta["max_value"] <= 1.0
    assert traj.meta["max_free_energy_rise"] <= 1e-10
    rel = traj.column("rel_entropy")
    assert rel[-1] < rel[0]
    assert np.all(rel >= -1e-8)


def test_solve_second_moment_growth_bound_smooth_data(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.5 * eq_beta1.values)
    M = fdfp.integrate(f0)
    traj = solve(f0, FvParams(t_final=1.0, output_stride=50))
    m2 = np.array([fdfp.moment(s, 2) for s in traj.states])
    assert np.all(m2 <= m2[0] + 2 * 1 * M * traj.times + 1e-8)


def test_second_moment_front_overshoot_vanishes_with_h():
    # at an unresolved front the upwind mobility exceeds the mean-value
    # mobility, so the discrete second moment can transiently outrun the
    # continuum growth bound; the overshoot is a mesh artifact and shrinks
    # under refinement
    overshoots = []
    for n in (128, 256, 512):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        f0 = fdfp.DistributionState(g, np.where(np.abs(g.node) <= 1.0, 0.5, 0.0))
        M = fdfp.integrate(f0)
        traj = solve(f0, FvParams(t_final=0.5, output_stride=20))
        m2 = np.array([fdfp.moment(s, 2) for s in traj.states])
        overshoots.append(float(np.max(m2 - (m2[0] + 2 * M * traj.times))))
    assert overshoots[0] > overshoots[1] > overshoots[2]
    assert overshoots[2] <= 0.05


def test_solve_dt_override_and_errors(grid256, eq_beta1):
    traj = solve(eq_beta1, FvParams(t_final=0.01, dt_override=1e-3, output_stride=5))
    assert traj.meta["steps"] == 10
    vals = np.where(np.abs(grid256.node) <= 1, 1.0, 0.0)
    rough = fdfp.DistributionState(grid256, vals)
    with pytest.raises(ValueError, match="invariant-region"):
        solve(rough, FvParams(t_final=0.01, dt_override=1e-2))


def test_comparison_nested_equilibria(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.3 * eq_beta1.values)
    rep = comparison_experiment(f0, eq_beta1, FvParams(t_final=1.0))
    assert rep.max_positive_part <= 1e-10
    assert rep.max_contraction_slack <= 1e-9


def test_comparison_identical_inputs(eq_beta1):
    rep = comparison_experiment(eq_beta1, eq_beta1, FvParams(t_final=0.5))
    assert rep.max_positive_part == 0.0
    assert rep.max_contraction_slack == 0.0


def test_comparison_requires_order(grid256, eq_beta1):
    above = fdfp.DistributionState(grid256, np.minimum(1.0, eq_beta1.values + 0.1))
    with pytest.raises(ValueError):
        comparison_experiment(above, eq_beta1, FvParams(t_final=0.5))


def test_comparison_random_ordered_pairs(grid256, rng):
    for _ in range(3):
        base = np.minimum(1.0, np.abs(rng.normal(0.3, 0.2))
                          * np.exp(-(grid256.node - rng.uniform(-2, 2)) ** 2 / rng.uniform(0.5, 4)))
        extra = np.minimum(1.0 - base, np.abs(rng.normal(0.2, 0.1))
                           * np.exp(-(grid256.node - rng.uniform(-2, 2)) ** 2 / rng.uniform(0.5, 4)))
        f = fdfp.DistributionState(grid256, base)
        g = fdfp.DistributionState(grid256, base + extra)
        rep = comparison_experiment(f, g, FvParams(t_final=1.0))
        assert rep.max_positive_part <= 1e-10
        assert rep.max_contraction_slack <= 1e-9


def test_decay_bound_constant():
    b = decay_bound(mass=1.0, m_star_mass=MASS_BETA1_N1, dim=1)
    assert b.beta_star == pytest.approx(1.0, rel=1e-7)
    assert b.rate_constant == pytest.approx(0.5, rel=1e-7)
    with pytest.raises(ValueError):
        DecayBound(mass=2.0, m_star_mass=1.0, beta_star=1.0, rate_constant=0.5)
    with pytest.raises(ValueError):
        DecayBound(mass=0.5, m_star_mass=1.0, beta_star=1.0, rate_constant=0.9)


def test_decay_fit_skips_at_equilibrium(eq_beta1):
    traj = solve(eq_beta1, FvParams(t_final=0.2, output_stride=20))
    bound = decay_bound(fdfp.integrate(eq_beta1), fdfp.integrate(eq_beta1) + 0.1, 1)
    rep = decay_rate_fit(traj, bound, (0.0, 0.2))
    assert rep.at_equilibrium and rep.slope is None and rep.bound_satisfied


def test_decay_fit_recovers_exact_exponential(eq_beta1):
    # relative entropy replaced by 2 exp(-3t): the fitted slope is -3
    traj = solve(eq_beta1, FvParams(t_final=0.2, output_stride=5))
    rows = [dataclasses.replace(row, rel_entropy=2.0 * math.exp(-3.0 * row.time))
            for row in traj.diagnostics]
    synthetic = dataclasses.replace(traj, diagnostics=rows)
    bound = decay_bound(fdfp.integrate(eq_beta1), fdfp.integrate(eq_beta1) + 0.1, 1)
    rep = decay_rate_fit(synthetic, bound, (0.0, 0.2))
    assert rep.slope == pytest.approx(-3.0, abs=1e-10)
    assert rep.n_points == traj.times.size


def test_decay_fit_window_validation(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.5 * eq_beta1.values)
    traj = solve(f0, FvParams(t_final=0.5, output_stride=50))
    bound = decay_bound(fdfp.integrate(f0), MASS_BETA1_N1, 1)
    with pytest.raises(ValueError):
        decay_rate_fit(traj, bound, (0.0, 5.0))


def test_radial_moment_propagation_stationary(radial256):
    eq = fdfp.equilibrium_state(2.0, radial256)
    traj = solve(eq, FvParams(t_final=2.0, output_stride=200))
    rep = radial_moment_propagation(traj, order=4)
    assert rep.horizons == (0.5, 1.0, 2.0)
    assert rep.spread <= 1e-10
    assert rep.monotone_preserved


def test_radial_moment_propagation_rejects_bad_input(radial256, grid256):
    short = FvParams(t_final=1e-3)
    increasing = fdfp.DistributionState(radial256, np.linspace(0.0, 0.5, 256))
    with pytest.raises(ValueError, match="non-increasing"):
        radial_moment_propagation(solve(increasing, short))
    eq = fdfp.equilibrium_state(1.0, grid256)
    with pytest.raises(ValueError, match="radialNd"):
        radial_moment_propagation(solve(eq, short))
    radial_eq = solve(fdfp.equilibrium_state(1.0, radial256), short)
    for order in (3, 0):
        with pytest.raises(ValueError, match="order"):
            radial_moment_propagation(radial_eq, order=order)


def test_radial_equilibrium_stationary(radial256):
    eq = fdfp.equilibrium_state(2.0, radial256)
    out = step(eq, 1e-4)
    assert np.abs(out.values - eq.values).max() <= 1e-12
