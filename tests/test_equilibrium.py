import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import fdfp
from fdfp.equilibrium import FermiDiracSpec, mass_of_beta

from conftest import MASS_BETA1_N1


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
