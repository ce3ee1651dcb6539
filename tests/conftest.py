import numpy as np
import pytest

import fdfp
from fdfp.grid import MAX_DIM

# the message of the one dimension rule, `grid.check_dim`, as a regex
DIM_RULE = rf"dim must be an integer in \[1, {MAX_DIM}\]"

# mass of the beta = 1 equilibrium in 1-D (frozen from adaptive quadrature,
# cross-checked by a high-resolution trapezoid oracle in test_equilibrium)
MASS_BETA1_N1 = 1.5162560428865945


@pytest.fixture(scope="session")
def grid256():
    return fdfp.make_grid("cartesian1d", 1, 8.0, 256)


@pytest.fixture(scope="session")
def grid512():
    return fdfp.make_grid("cartesian1d", 1, 8.0, 512)


@pytest.fixture(scope="session")
def radial256():
    return fdfp.make_grid("radialNd", 3, 8.0, 256)


@pytest.fixture(scope="session")
def eq_beta1(grid256):
    return fdfp.equilibrium_state(MASS_BETA1_N1, grid256)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def fuzz_state(grid, rng):
    """Random admissible states, biased toward awkward cases (exact 0/1 cells,
    sharp fronts, oscillations)."""
    kind = rng.integers(0, 5)
    n = grid.cells
    if kind == 0:
        v = rng.uniform(0, 1, n)
    elif kind == 1:
        v = rng.uniform(0, 1, n)
        v[rng.uniform(size=n) < 0.2] = 0.0
        v[rng.uniform(size=n) < 0.2] = 1.0
    elif kind == 2:
        center = rng.uniform(-4, 4) if grid.geometry == "cartesian1d" else rng.uniform(0, 4)
        v = np.where(np.abs(grid.node - center) < rng.uniform(0.5, 3),
                     rng.uniform(0.01, 1.0), 0.0)
    elif kind == 3:
        k = rng.integers(1, 6)
        v = 0.5 + 0.49 * np.sin(k * grid.node + rng.uniform(0, 6))
    else:
        from scipy.special import expit
        v = expit(-(grid.speed ** 2 / 2 + rng.uniform(-3, 3))) * rng.uniform(0.1, 1)
    return fdfp.DistributionState(grid, v)


def state_diagnostics(states, eq, h_eq):
    """The diagnostics columns of `states`, as lists, from the single-state
    functionals; a trajectory's columns must equal them bit for bit."""
    from fdfp.functionals import dissipation, entropy, kinetic_energy

    s = np.array([entropy(x) for x in states])
    e = np.array([kinetic_energy(x) for x in states])
    return {
        "mass": [fdfp.integrate(x) for x in states],
        "energy": e.tolist(),
        "entropy": s.tolist(),
        "free_energy": (s + e).tolist(),
        "dissipation": [dissipation(x) for x in states],
        "rel_entropy": ((s + e) - h_eq).tolist(),
        "l1_to_eq": [fdfp.l1_distance(x, eq) for x in states],
    }


def columns(traj):
    """Every diagnostics column of a trajectory, as lists."""
    from fdfp.functionals import DIAGNOSTICS

    return {name: traj.column(name).tolist() for name in DIAGNOSTICS}
