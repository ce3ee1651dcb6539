import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import fdfp
from fdfp import equilibrium
from fdfp.equilibrium import FermiDiracSpec, discrete_equilibrium, mass_of_beta
from fdfp.functionals import equilibrium_free_energy

from conftest import DIM_RULE, MASS_BETA1_N1


def trapezoid_mass_oracle(beta: float, dim: int) -> float:
    """High-resolution trapezoid on [0, 12] plus a tail bound < 1e-12."""
    r = np.linspace(0.0, 12.0, 400_001)
    integrand = r ** (dim - 1) * expit(-(r * r / 2 + math.log(beta)))
    coef = dim * math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    return coef * float(np.trapezoid(integrand, r))


def test_eval_simple_values():
    spec = FermiDiracSpec(beta=1.0, dim=1)
    assert fdfp.fermi_dirac_eval(spec, 0.0) == pytest.approx(0.5, abs=1e-15)
    s = math.sqrt(2 * math.log(3.0))  # e^{s^2/2} = 3
    assert fdfp.fermi_dirac_eval(spec, s) == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ValueError):
        fdfp.fermi_dirac_eval(spec, -1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.01, 100.0))
def test_eval_monotone_in_beta(speed, beta):
    lo = fdfp.fermi_dirac_eval(FermiDiracSpec(beta=2 * beta, dim=1), speed)
    hi = fdfp.fermi_dirac_eval(FermiDiracSpec(beta=beta, dim=1), speed)
    assert 0 < lo < hi < 1


def test_spec_validation():
    with pytest.raises(ValueError):
        FermiDiracSpec(beta=0.0, dim=1)
    with pytest.raises(ValueError):
        FermiDiracSpec(beta=-1.0, dim=3)
    # beta = inf gave mass 0 and an all-zero profile
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            FermiDiracSpec(beta=beta, dim=1)
    # dim = 2.5 was accepted
    for dim in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=DIM_RULE):
            FermiDiracSpec(beta=1.0, dim=dim)
    assert FermiDiracSpec(beta=1.0, dim=2.0) == FermiDiracSpec(beta=1.0, dim=2)


def test_mass_of_beta_against_trapezoid_oracle():
    value = mass_of_beta(FermiDiracSpec(beta=1.0, dim=1))
    assert abs(value - trapezoid_mass_oracle(1.0, 1)) <= 1e-8
    assert abs(value - MASS_BETA1_N1) <= 1e-10


def test_mass_of_beta_saturation_limit():
    # beta*M -> (2 pi)^{N/2} as beta grows
    value = mass_of_beta(FermiDiracSpec(beta=1e6, dim=1))
    assert abs(1e6 * value - math.sqrt(2 * math.pi)) <= 1e-3 * math.sqrt(2 * math.pi)


def test_mass_monotone_in_beta():
    for beta in (0.1, 1.0, 10.0):
        assert (mass_of_beta(FermiDiracSpec(beta=2 * beta, dim=2))
                < mass_of_beta(FermiDiracSpec(beta=beta, dim=2)))


def test_beta_of_mass_round_trips():
    m = mass_of_beta(FermiDiracSpec(beta=1.0, dim=1))
    assert fdfp.beta_of_mass(m, 1).beta == pytest.approx(1.0, rel=1e-7)
    for beta in (1e-3, 1e3):
        m = mass_of_beta(FermiDiracSpec(beta=beta, dim=3))
        assert fdfp.beta_of_mass(m, 3).beta == pytest.approx(beta, rel=1e-7)


def test_beta_of_mass_monotone():
    assert fdfp.beta_of_mass(2.0, 1).beta < fdfp.beta_of_mass(1.0, 1).beta
    with pytest.raises(ValueError):
        fdfp.beta_of_mass(-1.0, 1)
    with pytest.raises(ValueError):
        fdfp.beta_of_mass(0.0, 1)
    for mass in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            fdfp.beta_of_mass(mass, 1)
    # dim = 2.5 solved the 2-D problem, and inf or nan died converting
    for dim in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=DIM_RULE):
            fdfp.beta_of_mass(1.0, dim)
    assert fdfp.beta_of_mass(1.0, 2.0) == fdfp.beta_of_mass(1.0, 2)


@pytest.mark.parametrize("mass, dim", [(3000.0, 1), (1e6, 1), (1e6, 3), (1e-305, 1)])
def test_beta_of_mass_names_the_supported_range(mass, dim):
    # these raised "failed to bracket beta(mass)"
    with pytest.raises(ValueError, match=r"outside .* log\(beta\) in \[-700, 690\]"):
        fdfp.beta_of_mass(mass, dim)


@pytest.mark.parametrize("dim", [137, 341])
def test_beta_of_mass_rejects_dims_whose_masses_overflow(dim, fresh_caches):
    # r^(dim-1) overflows the quadrature from dim 137 on: the range read
    # [nan, nan], with RuntimeWarnings.  The dim rule stops them first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=DIM_RULE):
            fdfp.beta_of_mass(1.0, dim)


def neg_polylog(s, z):
    """-Li_s(-z) for z > 0, to 30 digits.  Up to z = 1/2 the alternating
    series: mpmath's Li_1(-z) = -log(1 + z) rounds 1 + z to 1 for tiny z."""
    with mpmath.workdps(30):
        s, z = mpmath.mpf(s), mpmath.mpf(z)
        if z <= 0.5:
            return sum((-1) ** k * z ** (k + 1) / mpmath.mpf(k + 1) ** s for k in range(90))
        return -mpmath.re(mpmath.polylog(s, -z))


def closed_forms(beta: float, dim: int) -> tuple[float, float, float]:
    """Mass, free energy and condition |d log(beta) / d log(mass)| of F_beta.

    With s = dim/2 and c = (2 pi)^s: M = c (-Li_s(-1/beta)),
    H = -M log(beta) - c (-Li_{s+1}(-1/beta)) and
    dM/dlog(beta) = -c (-Li_{s-1}(-1/beta)).
    """
    with mpmath.workdps(30):
        s = mpmath.mpf(dim) / 2
        c = (2 * mpmath.pi) ** s
        z = 1 / mpmath.mpf(beta)
        mass = c * neg_polylog(s, z)
        free_energy = -mass * mpmath.log(beta) - c * neg_polylog(s + 1, z)
        return float(mass), float(free_energy), float(neg_polylog(s, z) / neg_polylog(s - 1, z))


LOG_BETAS = sorted({*np.linspace(-700.0, 690.0, 29).tolist(), -2.5, -0.3, 0.7, 3.1})


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_equilibria_match_the_polylog_closed_forms(dim):
    for log_beta in LOG_BETAS:
        beta = math.exp(log_beta)
        mass, free_energy, cond = closed_forms(beta, dim)
        assert mass_of_beta(FermiDiracSpec(beta, dim)) == pytest.approx(mass, rel=1e-13, abs=0)
        # a mass rounded to a float fixes beta only to within cond times that rounding
        assert fdfp.beta_of_mass(mass, dim).beta == pytest.approx(
            beta, rel=1e-13 * max(1.0, cond), abs=0)
        assert equilibrium_free_energy(mass, dim) == pytest.approx(free_energy, rel=1e-13, abs=0)


@pytest.fixture
def fresh_caches():
    caches = (equilibrium._mass_range, equilibrium._log_beta_of_mass, equilibrium_free_energy)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def two_point_panel_rule(panels):
    """The 2-point Gauss-Legendre rule on unit panels: too coarse for every check."""
    x, w = np.polynomial.legendre.leggauss(2)
    return (np.arange(panels)[:, None] + 0.5 * (x + 1)).ravel(), np.tile(0.5 * w, panels)


def test_mass_quadrature_check_rejects_a_coarse_rule(monkeypatch, fresh_caches):
    monkeypatch.setattr(equilibrium, "_panel_rule", two_point_panel_rule)
    for call in (lambda: mass_of_beta(FermiDiracSpec(1.0, 1)), lambda: fdfp.beta_of_mass(1.0, 1)):
        with pytest.raises(RuntimeError, match="mass quadrature did not converge"):
            call()


def test_free_energy_quadrature_check_rejects_a_coarse_rule(monkeypatch, fresh_caches):
    fdfp.beta_of_mass(1.0, 3)   # cached: beta comes from the 16-point rule
    monkeypatch.setattr(equilibrium, "_panel_rule", two_point_panel_rule)
    with pytest.raises(RuntimeError, match="free-energy quadrature did not converge"):
        equilibrium_free_energy(1.0, 3)


def test_beta_of_mass_residual_check_rejects_an_unconverged_solve(monkeypatch, fresh_caches):
    monkeypatch.setattr(equilibrium, "NEWTON_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="beta\\(mass\\) solve left residual"):
        fdfp.beta_of_mass(1.0, 1)


def test_equilibrium_state_sampling(grid256, eq_beta1):
    # center cells sit at |v| = h/2, so the value is just below 1/2
    assert eq_beta1.values[127] == pytest.approx(0.5, abs=1e-3)
    assert fdfp.integrate(eq_beta1) == pytest.approx(MASS_BETA1_N1, rel=0.01)
    spec = fdfp.beta_of_mass(MASS_BETA1_N1, 1)
    assert np.array_equal(eq_beta1.values, fdfp.fermi_dirac_eval(spec, grid256.speed))


def test_equilibrium_state_radial(radial256):
    eq = fdfp.equilibrium_state(2.0, radial256)
    assert np.all(np.diff(eq.values) < 0)
    assert fdfp.integrate(eq) == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_discrete_equilibrium_has_the_discrete_mass(dim):
    geometry = "cartesian1d" if dim == 1 else "radialNd"
    for cells in (16, 256):
        grid = fdfp.make_grid(geometry, dim, 8.0, cells)
        for mass in (0.3, 2.0, 10.0):
            eq = discrete_equilibrium(mass, grid)
            assert fdfp.integrate(eq) == pytest.approx(mass, rel=1e-14, abs=0)
            # a sampled F_beta: its potential log(F/(1 - F)) + |v|^2/2 is one constant
            xi = np.log(eq.values / (1 - eq.values)) + grid.speed ** 2 / 2
            assert np.ptp(xi) <= 1e-9 * max(1.0, np.abs(xi).max())
            if dim in (1, 3) and cells == 256 and mass <= 2.0:
                # the midpoint rule is spectrally accurate at odd N: F_h is F_M sampled
                continuum = fdfp.equilibrium_state(mass, grid).values
                assert np.abs(eq.values - continuum).max() <= 1e-12


def test_discrete_equilibrium_raises_where_no_beta_gives_the_mass():
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        grid = fdfp.make_grid(geometry, dim, 8.0, 32)
        ones = fdfp.DistributionState(grid, np.ones(grid.cells))   # f0 = 1 on the whole mesh
        with pytest.raises(ValueError, match="log\\(beta\\) in \\[-700.0, 690.0\\]"):
            discrete_equilibrium(fdfp.integrate(ones), grid)
