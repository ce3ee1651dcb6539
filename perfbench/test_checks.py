"""The benchmark's references and output checks.

    python3 -m pytest perfbench/test_checks.py

The checks must accept a trajectory with the method's structural
properties and reject one that breaks any of them.
"""

import math

import mpmath
import numpy as np
import pytest

import checks
import reference as ref


def test_closed_form_mass():
    # -Li_{1/2}(-1) is the Dirichlet eta function (1 - sqrt 2) zeta(1/2)
    eta = float((1 - mpmath.sqrt(2)) * mpmath.zeta(0.5))
    assert math.isclose(ref.fd_mass(1.0, 1), 1.5162560428865939, rel_tol=1e-15)
    assert math.isclose(ref.fd_mass(1.0, 1), math.sqrt(2 * math.pi) * eta, rel_tol=1e-15)


@pytest.mark.parametrize("mass, dim", [(0.1, 1), (0.758, 1), (1.5162560428865939, 1),
                                       (3.6, 3), (4.0, 3)])
def test_beta_of_mass_inverts_the_mass(mass, dim):
    beta = ref.beta_of_mass(mass, dim)
    assert math.isclose(ref.fd_mass(beta, dim), mass, rel_tol=1e-14)


def test_beta_one_gives_the_decay_constant_one_half():
    assert math.isclose(ref.beta_of_mass(1.5162560428865939, 1), 1.0, rel_tol=1e-14)
    assert ref.rate_constant(1.0) == 0.5


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_closed_forms_match_fine_grid_sums(geometry, dim):
    # the midpoint rule is spectrally accurate for these smooth, even integrands
    beta = 2.0
    node, weights = ref.nodes_and_weights(geometry, dim, 12.0, 4096)
    f = ref.fd_profile(beta, np.abs(node))
    assert math.isclose(ref.mass(weights, f), ref.fd_mass(beta, dim), rel_tol=1e-12)
    assert math.isclose(ref.free_energy(weights, np.abs(node), f),
                        ref.fd_free_energy(beta, dim), rel_tol=1e-12)


def valid_trajectory():
    """States F + t phi with sum(w phi) = 0 and t falling to 0.

    F minimises the convex free energy at fixed mass, so the free energy
    falls along the sequence while the mass stays put.
    """
    node, weights = ref.nodes_and_weights("cartesian1d", 1, 8.0, 128)
    speed = np.abs(node)
    eq = ref.fd_profile(2.0, speed)
    c = np.dot(weights, eq * speed ** 2) / np.dot(weights, eq)
    phi = eq * (speed ** 2 - c)
    states = [eq + 0.1 * t * phi for t in (1.0, 0.75, 0.5, 0.25, 0.0)]
    return weights, speed, states


def test_valid_trajectory_passes():
    weights, speed, states = valid_trajectory()
    assert checks.trajectory("valid", weights, speed, states) == []


def test_negative_cell_is_rejected():
    weights, speed, states = valid_trajectory()
    states[2] = states[2].copy()
    states[2][60] = -1e-3
    errors = checks.trajectory("corrupt", weights, speed, states)
    assert any("leave [0, 1]" in e for e in errors)


def test_cell_above_one_is_rejected():
    weights, speed, states = valid_trajectory()
    states[1] = np.minimum(states[1] + 0.7, 1.0 + 1e-15)
    assert any("leave [0, 1]" in e for e in checks.trajectory("c", weights, speed, states))


def test_mass_drift_is_rejected():
    weights, speed, states = valid_trajectory()
    states[-1] = states[-1] * (1 + 1e-9)
    errors = checks.trajectory("corrupt", weights, speed, states)
    assert any("mass drift" in e for e in errors)


def test_rising_free_energy_is_rejected():
    weights, speed, states = valid_trajectory()
    states[1], states[3] = states[3], states[1]
    errors = checks.trajectory("corrupt", weights, speed, states)
    assert errors and all("free energy rises" in e for e in errors)


def test_radial_profile_that_increases_is_rejected():
    node, _ = ref.nodes_and_weights("radialNd", 3, 8.0, 64)
    f = ref.fd_profile(4.0, node)
    assert checks.radially_non_increasing("ok", f) == []
    bumped = f.copy()
    bumped[20] = bumped[19] * (1 + 1e-6)
    assert checks.radially_non_increasing("bumped", bumped)


def test_nested_sup_spread():
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert checks.nested_sup_spread(times, [5, 4, 3, 2, 1], (1.0, 2.0, 4.0)) == 0.0
    assert math.isclose(checks.nested_sup_spread(times, [1, 1, 1, 1, 1.5], (1.0, 2.0, 4.0)),
                        0.5)
