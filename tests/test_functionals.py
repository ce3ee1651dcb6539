import dataclasses
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fdfp
from fdfp.equilibrium import discrete_equilibrium
from fdfp.functionals import (
    _ENTROPY_TOL,
    CsiszarKullbackReport,
    EntropyControlReport,
    check_entropy_control,
    compute_diagnostics,
    csiszar_kullback_check,
    dissipation,
    entropy_control_constant,
    entropy_density,
    equilibrium_free_energy,
    free_energy,
    moment_bound_polynomial,
)
from fdfp.solver_fv import FvParams, solve

from conftest import DIM_RULE, MASS_BETA1_N1, fuzz_state


def test_entropy_density_values():
    assert entropy_density(0.0) == 0.0
    assert entropy_density(1.0) == 0.0
    assert entropy_density(0.5) == pytest.approx(math.log(0.5), abs=1e-15)
    with pytest.raises(ValueError):
        entropy_density(-0.1)
    with pytest.raises(ValueError):
        entropy_density(1.1)


@pytest.mark.parametrize("r", [math.nan, np.array([0.5, np.nan]), np.array([[np.nan, 0.0]])])
def test_entropy_density_rejects_nan(r):
    with pytest.raises(ValueError, match=r"defined on \[0, 1\]"):
        entropy_density(r)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0))
def test_entropy_density_symmetric_and_nonpositive(r):
    assert entropy_density(r) <= 0.0
    assert entropy_density(r) == pytest.approx(entropy_density(1.0 - r), abs=1e-12)


def test_functionals_on_zero_state(grid256):
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    assert fdfp.entropy(zero) == 0.0
    assert fdfp.kinetic_energy(zero) == 0.0
    assert fdfp.free_energy(zero) == 0.0


def test_free_energy_additivity(grid256, rng):
    st_ = fuzz_state(grid256, rng)
    assert fdfp.free_energy(st_) == fdfp.entropy(st_) + fdfp.kinetic_energy(st_)


def test_energy_against_quadrature_oracle(grid256):
    # E of 0.3 exp(-v^2/2) is 0.15 sqrt(2 pi); oracle frozen from quadrature
    g = fdfp.DistributionState(grid256, 0.3 * np.exp(-grid256.node ** 2 / 2))
    assert fdfp.kinetic_energy(g) == pytest.approx(0.3759942411946501, abs=1e-6)


def test_equilibrium_minimizes_among_same_mass(grid256, eq_beta1, rng):
    h_eq = fdfp.free_energy(eq_beta1)
    w = grid256.qweight
    for _ in range(20):
        # mass-preserving perturbation, kept inside [0, 1]
        bump = rng.normal(0, 1, 256) * np.exp(-grid256.node ** 2 / 4)
        bump -= w * bump.sum() / w.sum() / w * 0 + bump.mean()  # zero-mean in the weights
        bump -= np.dot(w, bump) / np.dot(w, np.ones(256))
        vals = np.clip(eq_beta1.values + 0.05 * bump, 0, 1)
        # restore the exact discrete mass by a final uniform shift where room allows
        diff = (fdfp.integrate(eq_beta1) - float(np.dot(w, vals))) / w.sum()
        vals = np.clip(vals + diff, 0, 1)
        st_ = fdfp.DistributionState(grid256, vals)
        if abs(fdfp.integrate(st_) - fdfp.integrate(eq_beta1)) > 1e-10:
            continue
        assert fdfp.free_energy(st_) > h_eq - 1e-12


def test_dissipation_zero_at_equilibrium(eq_beta1):
    assert dissipation(eq_beta1) <= 1e-12


def test_dissipation_nonnegative(grid256, radial256, rng):
    for grid in (grid256, radial256):
        for _ in range(50):
            assert dissipation(fuzz_state(grid, rng)) >= 0.0


def test_summation_by_parts_identity_symbolic():
    """The semi-discrete chain rule dH/dt = -D is an algebraic identity.

    With the potential entries and interface mobilities treated as free
    symbols, sum_i w_i xi_i (df_i/dt) must cancel against the interface sum
    exactly, independent of the mobility choice; verified on an 8-cell mesh.
    """
    n = 8
    h = sympy.symbols("h", positive=True)
    xi = sympy.symbols(f"xi0:{n}")
    mu = sympy.symbols(f"mu0:{n - 1}")
    area = sympy.symbols(f"a0:{n + 1}")
    w = sympy.symbols(f"w0:{n}", positive=True)
    # interface fluxes with zero boundary flux
    J = [sympy.Integer(0)] * (n + 1)
    for k in range(1, n):
        J[k] = -mu[k - 1] * (xi[k] - xi[k - 1]) / h
    dHdt = sympy.Integer(0)
    for i in range(n):
        rhs_i = -(area[i + 1] * J[i + 1] - area[i] * J[i]) / w[i]
        dHdt += w[i] * xi[i] * rhs_i
    D = sum(area[k] * h * mu[k - 1] * ((xi[k] - xi[k - 1]) / h) ** 2 for k in range(1, n))
    assert sympy.simplify(dHdt + D) == 0


def test_entropy_dissipation_residual_is_first_order_in_dt(grid256):
    eq = fdfp.equilibrium_state(1.0, grid256)
    vals = np.minimum(1.0, 1.5 * eq.values + 0.1 * np.exp(-(grid256.node - 1) ** 2))
    residuals = []
    for dt in (2e-4, 1e-4):
        state, worst = fdfp.DistributionState(grid256, vals), 0.0
        for _ in range(round(0.02 / dt)):
            traj = solve(state, FvParams(t_final=dt))
            assert traj.meta.steps == 1
            after = traj.states[-1]
            worst = max(worst, abs((free_energy(after) - free_energy(state)) / dt
                                   + dissipation(state)))
            state = after
        residuals.append(worst)
    assert residuals[0] / residuals[1] > 1.7  # O(dt)


def _rel_entropy(values, grid, mass):
    """The rel_entropy diagnostics column of the rows `values` against F_h,
    the discrete equilibrium of that mass."""
    eq = discrete_equilibrium(mass, grid)
    reference = eq.values, free_energy(eq)
    return compute_diagnostics(np.atleast_2d(values), grid, *reference)["rel_entropy"]


def test_rel_entropy_column_at_equilibrium(eq_beta1):
    assert abs(_rel_entropy(eq_beta1.values, eq_beta1.grid, MASS_BETA1_N1)[0]) <= 1e-8


def test_rel_entropy_column_nonnegative_same_mass(grid256, eq_beta1, rng):
    m = fdfp.integrate(eq_beta1)
    rows = []
    for _ in range(10):
        vals = np.clip(eq_beta1.values * (1 + 0.2 * np.sin(rng.integers(1, 5) * grid256.node)), 0, 1)
        scale = m / fdfp.integrate(fdfp.DistributionState(grid256, vals))
        rows.append(scale * vals if scale <= 1.0 else vals)
    assert (_rel_entropy(rows, grid256, m) >= -1e-8).all()


def test_entropy_control_constant_values():
    # oracle: Gaussian quadrature of exp(-eps v^2/2)
    val, _ = quad(lambda v: math.exp(-0.25 * v * v), -40, 40)
    assert entropy_control_constant(0.5, 1) == pytest.approx(val, rel=1e-10)
    assert entropy_control_constant(0.5, 1) == pytest.approx(3.5449077018110318, rel=1e-12)
    assert entropy_control_constant(0.5, 3) == pytest.approx(44.54662397465366, rel=1e-12)
    with pytest.raises(ValueError):
        entropy_control_constant(0.0, 1)
    with pytest.raises(ValueError):
        entropy_control_constant(1.0, 1)


def test_check_entropy_control_rejects_eps_outside_0_1(eq_beta1):
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\)$"):
        check_entropy_control(eq_beta1, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(1, 4))
def test_entropy_control_scaling_law(eps1, eps2, dim):
    lhs = entropy_control_constant(eps1, dim) / entropy_control_constant(eps2, dim)
    assert lhs == pytest.approx((eps2 / eps1) ** (dim / 2), rel=1e-10)


def test_check_entropy_control_zero_and_equilibrium(grid256, eq_beta1):
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    rep = check_entropy_control(zero, 0.5)
    assert rep.holds and rep.neg_entropy == 0.0
    rep = check_entropy_control(eq_beta1, 0.5)
    assert rep.holds
    assert rep.neg_entropy < rep.integrated_bound  # strict slack


def test_check_entropy_control_fuzz(grid256, radial256, rng):
    for grid in (grid256, radial256):
        for _ in range(100):
            st_ = fdfp.DistributionState(grid, rng.uniform(0, 1, grid.cells))
            rep = check_entropy_control(st_, 0.5)
            assert rep.holds


_CONTROL = EntropyControlReport(eps=0.5, max_pointwise_violation=0.0, neg_entropy=0.0,
                                integrated_bound=1.0)


# each inequality with `field` at its bound, then at the next float past it
@pytest.mark.parametrize("report,field,bound,verdict", [
    (_CONTROL, "max_pointwise_violation", _ENTROPY_TOL, "pointwise_holds"),
    (_CONTROL, "neg_entropy", 1.0 + _ENTROPY_TOL, "integrated_holds"),
    (_CONTROL, "neg_entropy", -_ENTROPY_TOL, "integrated_holds"),
    (CsiszarKullbackReport(lhs=0.0, rhs=1.0), "lhs", 1.0 * (1 + 1e-6) + 1e-10, "holds"),
], ids=["pointwise", "integrated_above", "integrated_below", "csiszar_kullback"])
def test_entropy_verdicts_hold_up_to_their_bounds(report, field, bound, verdict):
    past = math.nextafter(bound, math.inf if bound > 0 else -math.inf)
    at, beyond = (dataclasses.replace(report, **{field: x}) for x in (bound, past))
    assert getattr(at, verdict) and at.holds
    assert not getattr(beyond, verdict) and not beyond.holds


@pytest.mark.parametrize("report,removed", [
    (_CONTROL, "pointwise_holds"), (_CONTROL, "integrated_holds"), (_CONTROL, "holds"),
    (CsiszarKullbackReport(lhs=0.0, rhs=1.0), "holds"),
])
def test_entropy_reports_store_no_verdict(report, removed):
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    with pytest.raises(TypeError):
        type(report)(**values, **{removed: True})


def test_csiszar_kullback_at_equilibrium(grid256):
    # the check's reference is F_h, the discrete equilibrium of the mass
    eq = discrete_equilibrium(MASS_BETA1_N1, grid256)
    rep = csiszar_kullback_check(eq, MASS_BETA1_N1)
    assert rep.lhs == 0.0 and rep.holds


def test_csiszar_kullback_perturbed(grid256, eq_beta1):
    pert = fdfp.DistributionState(grid256, eq_beta1.values * (1 + 0.1 * np.cos(grid256.node)))
    m = fdfp.integrate(pert)
    rep = csiszar_kullback_check(pert, m)
    # oracle: recompute both sides directly
    eq = discrete_equilibrium(m, grid256)
    lhs = fdfp.l1_distance(pert, eq) ** 2
    rhs = 2 * m * (fdfp.free_energy(pert) - fdfp.free_energy(eq))
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)
    assert rep.holds and lhs <= rhs


def test_moment_bound_polynomial_base_case():
    poly = moment_bound_polynomial(1, [1.0, 0.5], mass=1.0, dim=1)
    assert np.allclose(poly.coef, [0.5, 2.0])


def test_moment_bound_polynomial_gamma2():
    # hand-checked integration of the recursion with factor 2*g*(2(g-1)+N):
    # P1 = 0.5 + 2t; P2 = 1 + 12*int_0^t P1 = 1 + 6t + 12 t^2
    poly = moment_bound_polynomial(2, [1.0, 0.5, 1.0], mass=1.0, dim=1)
    assert np.allclose(poly.coef, [1.0, 6.0, 12.0])
    assert poly(0.0) == 1.0


def test_moment_bound_polynomial_validation():
    with pytest.raises(ValueError):
        moment_bound_polynomial(0, [1.0], mass=1.0, dim=1)
    with pytest.raises(ValueError):
        moment_bound_polynomial(2, [1.0, 0.5], mass=1.0, dim=1)
    with pytest.raises(ValueError, match="finite"):
        moment_bound_polynomial(1, [1.0, math.inf], mass=1.0, dim=1)
    # inf raised OverflowError and nan numpy's conversion error
    for gamma in (math.inf, math.nan, 1.5):
        with pytest.raises(ValueError, match="gamma must be an integer >= 1"):
            moment_bound_polynomial(gamma, [1.0, 0.5, 1.0], mass=1.0, dim=1)
    assert np.array_equal(moment_bound_polynomial(2.0, [1.0, 0.5, 1.0], mass=1.0, dim=1).coef,
                          moment_bound_polynomial(2, [1.0, 0.5, 1.0], mass=1.0, dim=1).coef)
    # dim = 2.5 gave a bound for a 2.5-dimensional space
    for dim in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=DIM_RULE):
            moment_bound_polynomial(2, [1.0, 0.5, 1.0], mass=1.0, dim=dim)
    assert np.array_equal(moment_bound_polynomial(2, [1.0, 0.5, 1.0], mass=1.0, dim=3.0).coef,
                          moment_bound_polynomial(2, [1.0, 0.5, 1.0], mass=1.0, dim=3).coef)


def test_moment_bound_polynomial_evaluates_as_polyval():
    poly = moment_bound_polynomial(3, [1.5, 0.7, 1.1, 2.3], mass=1.5, dim=3)
    t = np.linspace(0.0, 40.0, 101)
    assert np.array_equal(poly(t), np.polynomial.polynomial.polyval(t, poly.coef))


def test_diagnostics_row_invariants(grid256, eq_beta1):
    h_eq = equilibrium_free_energy(MASS_BETA1_N1, 1)
    values = np.stack([eq_beta1.values, 0.5 * eq_beta1.values])
    cols = compute_diagnostics(values, grid256, eq_beta1.values, h_eq)
    assert cols["free_energy"].tolist() == (cols["entropy"] + cols["energy"]).tolist()
    assert np.all(cols["dissipation"] >= -1e-12)
    # cells just above 1, inside the bounds slack: every mobility is negative
    over = np.full((1, 256), 1.0 + 1e-6)
    with pytest.raises(ValueError, match="dissipation must be nonnegative"):
        compute_diagnostics(over, grid256, eq_beta1.values, h_eq)
