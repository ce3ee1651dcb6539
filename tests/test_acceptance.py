"""Acceptance suite: every quantitative claim checked at desk scale.

Each test prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
Desk scale: 1-D Cartesian R = 8 with n = 256-512, radial N = 3 with n = 256.
Expensive runs are shared through module-scoped fixtures, and the
cross-solver levels through `conftest.cross_solver_level`, which solves each
once a session.
"""

import math

import numpy as np
import pytest

import fdfp
from fdfp.functionals import (
    check_entropy_control,
    csiszar_kullback_check,
    entropy_control_constant,
    moment_bound_polynomial,
)
from fdfp.mehler import MAX_SPREAD, apply_kernel, kernel_bound_sweep
from fdfp.solver_duhamel import (CROSS_CHECK_TOL, PICARD_TOL, DuhamelParams, _linear_terms,
                                 apply_T, picard_solve)
from fdfp.solver_fv import (
    FREE_ENERGY_RISE_TOL,
    MASS_DRIFT_TOL,
    FvParams,
    comparison_experiment,
    decay_rate_fit,
    radial_moment_propagation,
    rate_constant,
    solve,
)

from conftest import MASS_BETA1_N1, cross_solver_level, fuzz_state

EXTENT = 8.0


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def cart_grid():
    return fdfp.make_grid("cartesian1d", 1, EXTENT, 256)


@pytest.fixture(scope="module")
def indicator_run(cart_grid):
    """FV, f0 = 0.5 * indicator([-1, 1]), to t = 20."""
    vals = np.where(np.abs(cart_grid.node) <= 1.0, 0.5, 0.0)
    f0 = fdfp.DistributionState(cart_grid, vals)
    return solve(f0, FvParams(t_final=20.0, output_stride=100))


@pytest.fixture(scope="module")
def decay_run(cart_grid):
    """FV, f0 = 0.5 * F_{M*} with beta(M*) = 1, to t = 8."""
    eq_star = fdfp.equilibrium_state(MASS_BETA1_N1, cart_grid)
    f0 = fdfp.DistributionState(cart_grid, 0.5 * eq_star.values)
    return solve(f0, FvParams(t_final=8.0, output_stride=100))


@pytest.fixture(scope="module")
def gaussian_run(cart_grid):
    norm = 1.0 / math.sqrt(2 * math.pi * 1.5 ** 2)
    vals = np.minimum(1.0, norm * np.exp(-cart_grid.node ** 2 / (2 * 1.5 ** 2)))
    f0 = fdfp.DistributionState(cart_grid, vals)
    return solve(f0, FvParams(t_final=5.0, output_stride=100))


@pytest.fixture(scope="module")
def radial_run():
    grid = fdfp.make_grid("radialNd", 3, EXTENT, 256)
    eq = fdfp.equilibrium_state(2.0, grid)
    f0 = fdfp.DistributionState(grid, np.minimum(1.0, 2.0 * eq.values))
    return solve(f0, FvParams(t_final=10.0, output_stride=200))


@pytest.fixture(scope="module")
def cross_validation():
    """Duhamel vs FV on the same smooth data, two refinement levels."""
    out = {}
    for n, time_nodes in ((256, 16), (512, 31)):
        level = cross_solver_level("smooth", n, time_nodes)
        out[n] = {"traj": level.picard, "final_l1": float(level.gaps[-1])}
    return out


@pytest.fixture(scope="module")
def all_fv_runs(indicator_run, decay_run, gaussian_run, radial_run):
    return {"indicator": indicator_run, "decay": decay_run,
            "gaussian": gaussian_run, "radial": radial_run}


def test_01_mass_conservation(indicator_run):
    drift = indicator_run.meta.max_mass_drift_rel
    report(1, "mass-conservation", drift <= MASS_DRIFT_TOL, f"relative drift {drift:.2e} over t=20")


def test_02_invariant_region_fuzz():
    # solves from fuzzed states at every drawn dimension; the run record's
    # extrema cover every step of the march
    rng = np.random.default_rng(12345)
    worst_lo, worst_hi, steps = 0.0, 1.0, {}
    for geometry, dim in [("cartesian1d", 1)] + [("radialNd", n) for n in (1, 2, 3, 4, 5, 8)]:
        grid = fdfp.make_grid(geometry, dim, EXTENT, 128)
        name = f"{geometry} N={dim}"
        steps[name] = 0
        for _ in range(10):
            run = solve(fuzz_state(grid, rng), FvParams(t_final=0.25, output_stride=10 ** 9)).meta
            worst_lo, worst_hi = min(worst_lo, run.min_value), max(worst_hi, run.max_value)
            steps[name] += run.steps
    ok = worst_lo >= 0.0 and worst_hi <= 1.0
    counts = ", ".join(f"{name} {n}" for name, n in steps.items())
    report(2, "invariant-region", ok, f"10 fuzzed solves to t=0.25 per geometry, steps: {counts}; "
           f"range [{worst_lo:.3g}, {worst_hi:.6g}]")


def test_03_entropy_monotonicity(all_fv_runs):
    worst = max(run.meta.max_free_energy_rise for run in all_fv_runs.values())
    report(3, "entropy-monotonicity", worst <= FREE_ENERGY_RISE_TOL,
           f"max per-step free-energy rise {worst:.2e} across {len(all_fv_runs)} runs")


def test_04_entropy_sandwich(all_fv_runs):
    ok = True
    worst_neg, worst_exceed = 0.0, 0.0
    for run in all_fv_runs.values():
        rel = run.column("rel_entropy")
        worst_neg = min(worst_neg, float(rel.min()))
        worst_exceed = max(worst_exceed, float((rel - rel[0]).max()))
        ok = ok and rel.min() >= -1e-8 and np.all(rel <= rel[0] + 1e-12)
    report(4, "entropy-sandwich", ok,
           f"min rel entropy {worst_neg:.2e}, max exceedance of initial {worst_exceed:.2e}")


def test_05_contraction_and_comparison(cart_grid):
    rng = np.random.default_rng(777)
    params = FvParams(t_final=5.0)
    reports = []
    for _ in range(20):
        base = np.minimum(1.0, abs(rng.normal(0.3, 0.2))
                          * np.exp(-(cart_grid.node - rng.uniform(-2, 2)) ** 2
                                   / rng.uniform(0.5, 4)))
        extra = np.minimum(1.0 - base, abs(rng.normal(0.2, 0.1))
                           * np.exp(-(cart_grid.node - rng.uniform(-2, 2)) ** 2
                                    / rng.uniform(0.5, 4)))
        f0 = fdfp.DistributionState(cart_grid, base)
        g0 = fdfp.DistributionState(cart_grid, base + extra)
        reports.append(comparison_experiment(f0, g0, params))
    worst_pos = max(rep.max_positive_part for rep in reports)
    worst_slack = max(rep.max_contraction_slack for rep in reports)
    report(5, "l1-contraction-comparison", all(rep.holds for rep in reports),
           f"20 ordered pairs to t=5: (f-g)+ {worst_pos:.2e}, slack {worst_slack:.2e}")


def test_06_moment_growth(decay_run, gaussian_run, radial_run):
    ok = True
    details = []
    for name, run, dim in (("decay", decay_run, 1), ("gaussian", gaussian_run, 1),
                           ("radial", radial_run, 3)):
        mass = run.column("mass")[0]
        t = run.times
        m2 = np.array([fdfp.moment(s, 2) for s in run.states])
        m4 = np.array([fdfp.moment(s, 4) for s in run.states])
        slacks = m2 - (m2[0] + 2 * dim * mass * t)
        poly = moment_bound_polynomial(2, [mass, m2[0], m4[0]], mass, dim)
        ratios = m4 / poly(t)
        slack, ratio = float(np.max(slacks)), float(np.max(ratios))
        ok = ok and slack <= 1e-8 and ratio <= 1.05
        # the t = 0 row holds slack 0 and ratio 1 by construction; the claim
        # can fail only at t > 0, so its margin is read there
        later = t > 0
        details.append(f"{name}: m2 slack {slack:.1e}, m4/P2 {ratio:.3f}, at t > 0 "
                       f"{np.max(slacks[later]):.1e}, {np.max(ratios[later]):.3f}")
    report(6, "moment-growth", ok, "; ".join(details))


def test_07_uniform_energy_bound(all_fv_runs):
    ok = True
    details = []
    for name, run in all_fv_runs.items():
        dim = run.states[0].grid.dim
        h0 = run.column("free_energy")[0]
        bound = 2 * (entropy_control_constant(0.5, dim) + h0)
        worst = float(run.column("energy").max())
        ok = ok and worst <= bound
        details.append(f"{name}: E max {worst:.3f} <= {bound:.3f}")
    report(7, "uniform-energy-bound", ok, "; ".join(details))


def test_08_convergence_to_equilibrium(indicator_run):
    l1 = indicator_run.column("l1_to_eq")
    t = indicator_run.times
    final = float(l1[-1])
    second_half = l1[t >= t[-1] / 2]
    monotone = bool(np.all(np.diff(second_half) <= 1e-12))
    ok = final <= 1e-3 and monotone
    report(8, "convergence-to-equilibrium", ok,
           f"l1_to_eq(t=20) = {final:.2e}, monotone on [10, 20]: {monotone}")


def test_09_exponential_decay_bound(decay_run):
    c = rate_constant(MASS_BETA1_N1, 1)
    rel = decay_run.column("rel_entropy")
    t = decay_run.times
    envelope = rel[0] * np.exp(-2 * c * t) * 1.05
    envelope_ok = bool(np.all(rel <= envelope))
    fit = decay_rate_fit(t, rel, c, (0.5, 6.0))
    ok = envelope_ok and not fit.at_equilibrium and fit.holds
    report(9, "exponential-decay", ok,
           f"C = {c:.3f}, slope {fit.slope:.2f} <= {fit.rate_bound:.2f}, "
           f"envelope holds: {envelope_ok}")


def test_10_csiszar_kullback(all_fv_runs, cross_validation):
    ok = True
    checked = 0
    trajectories = [run for run in all_fv_runs.values()] + [cross_validation[256]["traj"]]
    for run in trajectories:
        mass = run.column("mass")[0]
        for state in run.states:
            rep = csiszar_kullback_check(state, mass)
            ok = ok and rep.holds
            checked += 1
    report(10, "csiszar-kullback", ok, f"{checked} states across {len(trajectories)} runs")


def test_11_cross_validation(cross_validation):
    l1_coarse = cross_validation[256]["final_l1"]
    l1_fine = cross_validation[512]["final_l1"]
    ok = l1_coarse <= CROSS_CHECK_TOL and l1_coarse / l1_fine >= 2.0
    report(11, "duhamel-fv-cross-validation", ok,
           f"L1 at t=0.25: {l1_coarse:.2e} (n=256) -> {l1_fine:.2e} (n=512), "
           f"factor {l1_coarse / l1_fine:.2f}")


def test_12_picard_contraction(cart_grid):
    # the cross-solver data read the march of their shared level
    marches = {"scaled_equilibrium": cross_solver_level("smooth", 256, 16).picard,
               "indicator": cross_solver_level("indicator", 256, 16).picard}
    suite = {name: march.states[0] for name, march in marches.items()}
    suite["equilibrium"] = fdfp.equilibrium_state(1.0, cart_grid)
    norm = 1.0 / math.sqrt(2 * math.pi)
    suite["gaussian"] = fdfp.DistributionState(
        cart_grid, np.minimum(1.0, norm * np.exp(-cart_grid.node ** 2 / 2)))
    params = DuhamelParams(t_final=0.25)
    ok = True
    details = []
    for name, f0 in suite.items():
        # the plain map, iterated from the linear evolution
        lin = _linear_terms(f0, params)
        F, inc = lin, []
        while len(inc) < 20 and not (inc and inc[-1] <= PICARD_TOL):
            F_next = apply_T(F, f0, params, lin)
            inc.append(float(np.max(np.dot(np.abs(F_next - F), cart_grid.qweight))))
            F = F_next
        ratios = [inc[i + 1] / inc[i] for i in range(len(inc) - 1)]
        geometric = all(r < 0.9 for r in ratios[-3:])
        # the solver's node-by-node march reaches the same fixed point
        march = marches[name] if name in marches else picard_solve(f0, params)
        gap = max(float(np.dot(cart_grid.qweight, np.abs(s.values - row)))
                  for s, row in zip(march.states, F))
        ok = ok and inc[-1] <= PICARD_TOL and geometric and gap <= PICARD_TOL
        details.append(f"{name}: {len(inc)} iters")
    report(12, "picard-contraction", ok, "; ".join(details))


def test_13_mehler_kernel_laws(cart_grid):
    g = fdfp.DistributionState(cart_grid, 0.6 * np.exp(-(cart_grid.node - 1.0) ** 2))
    semi_err = 0.0
    for s in (0.1, 0.5):
        for t in (0.1, 0.5):
            ab = apply_kernel(t, cart_grid, apply_kernel(s, cart_grid, g.values))
            c = apply_kernel(s + t, cart_grid, g.values)
            semi_err = max(semi_err, float(np.dot(cart_grid.qweight, np.abs(ab - c))))
    m0, m2_0 = fdfp.integrate(g), fdfp.moment(g, 2)
    mass_err, law_err = 0.0, 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        # K(t) may leave [0, 1]; this g's images stay inside, so they are states
        out = fdfp.DistributionState(cart_grid, apply_kernel(t, cart_grid, g.values))
        mass_err = max(mass_err, abs(fdfp.integrate(out) - m0))
        expected = math.exp(-2 * t) * m2_0 + m0 * (1 - math.exp(-2 * t))
        law_err = max(law_err, abs(fdfp.moment(out, 2) - expected))
    ok = semi_err <= 1e-6 and mass_err <= 1e-8 and law_err <= 1e-5
    report(13, "mehler-kernel-laws", ok,
           f"semigroup {semi_err:.1e}, mass {mass_err:.1e}, m2 law {law_err:.1e}")


def test_14_kernel_smoothing_bounds(cart_grid):
    cases = kernel_bound_sweep(cart_grid)
    worst = max(case.spread for case in cases)
    report(14, "kernel-smoothing-bounds", all(case.holds for case in cases),
           f"{len(cases)} exponent cases, worst envelope spread {worst:.2f} <= {MAX_SPREAD:g}")


def test_15_radial_moment_propagation():
    grid = fdfp.make_grid("radialNd", 3, EXTENT, 256)
    eq = fdfp.equilibrium_state(2.0, grid)
    f0 = fdfp.DistributionState(grid, np.minimum(1.0, 2.0 * eq.values))
    rep = radial_moment_propagation(solve(f0, FvParams(t_final=40.0, output_stride=200)),
                                    order=4)
    report(15, "radial-moment-propagation", rep.holds,
           f"sup m4 over horizons {rep.horizons}: spread {rep.spread:.2e}, "
           f"monotone: {rep.monotone_preserved}")


def test_16_entropy_control():
    rng = np.random.default_rng(999)
    grids = [fdfp.make_grid("cartesian1d", 1, EXTENT, 256),
             fdfp.make_grid("radialNd", 3, EXTENT, 128)]
    worst = -math.inf
    ok = True
    for eps in (0.1, 0.5, 0.9):
        for k in range(1000):
            grid = grids[k % 2]
            st = fdfp.DistributionState(grid, rng.uniform(0, 1, grid.cells))
            rep = check_entropy_control(st, eps)
            worst = max(worst, rep.max_pointwise_violation)
            ok = ok and rep.holds
    report(16, "entropy-control", ok,
           f"1000 states x 3 eps, max pointwise violation {worst:.2e}")
