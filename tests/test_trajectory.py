import numpy as np
import pytest

import fdfp
from fdfp import trajectory
from fdfp.functionals import equilibrium_free_energy
from fdfp.grid import BOUNDS_TOL
from fdfp.solver_duhamel import PicardRun
from fdfp.solver_fv import FvRun
from fdfp.trajectory import RunRecord, Trajectory

from conftest import columns, state_diagnostics


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_columns_are_measured_against_the_equilibrium_of_the_initial_mass(geometry, dim):
    grid = fdfp.make_grid(geometry, dim, 8.0, 256)
    eq_star = fdfp.equilibrium_state(1.0, grid)
    traj = Trajectory([0.0, 0.5], [0.5 * eq_star.values, 0.25 * eq_star.values], grid)
    mass = fdfp.integrate(traj.states[0])
    eq = fdfp.equilibrium_state(mass, grid)
    assert columns(traj) == state_diagnostics(traj.states, eq, equilibrium_free_energy(mass, dim))


def test_columns_at_zero_mass_are_measured_against_the_zero_state(grid256):
    zero = np.zeros(256)
    bump = np.where(np.abs(grid256.node) < 1, 0.5, 0.0)
    traj = Trajectory([0.0, 1.0], [zero, bump], grid256)
    assert columns(traj) == state_diagnostics(traj.states, fdfp.DistributionState(grid256, zero), 0.0)
    assert traj.column("l1_to_eq")[1] == fdfp.integrate(traj.states[1])


def test_columns_are_computed_once_and_on_first_use(eq_beta1, monkeypatch):
    calls = []
    compute = trajectory.compute_diagnostics
    monkeypatch.setattr(trajectory, "compute_diagnostics",
                        lambda *args: calls.append(args) or compute(*args))
    traj = Trajectory([0.0, 0.5, 1.0], [eq_beta1.values] * 3, eq_beta1.grid)
    assert calls == []
    mass = traj.column("mass")
    assert traj.column("rel_entropy") is traj.column("rel_entropy")
    assert len(calls) == 1 and mass.shape == (3,) and not mass.flags.writeable


def test_values_and_states_are_read_only_views(eq_beta1):
    source = np.stack([eq_beta1.values, 0.5 * eq_beta1.values])
    traj = Trajectory([0.0, 1.0], source, eq_beta1.grid)
    source[1] = 0.0   # the trajectory holds its own copy
    assert np.array_equal(traj.values[1], 0.5 * eq_beta1.values)
    assert not traj.values.flags.writeable and not traj.times.flags.writeable
    assert len(traj.states) == 2 and traj.states is traj.states
    for row, state in zip(traj.values, traj.states):
        assert not state.values.flags.writeable
        assert np.shares_memory(state.values, traj.values)
        assert np.array_equal(state.values, row)
    with pytest.raises(ValueError, match="read-only"):
        traj.values[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        traj.states[1].values[0] = 0.5


def test_trajectory_validates_its_matrix_once(grid256):
    ok = np.full((2, 256), 0.5)
    Trajectory([0.0, 1.0], ok, grid256)
    for bad in (np.full((2, 255), 0.5), np.full(256, 0.5), np.full((2, 1, 256), 0.5)):
        with pytest.raises(ValueError, match="does not match 2 times and 256 cells"):
            Trajectory([0.0, 1.0], bad, grid256)
    with pytest.raises(ValueError, match="does not match 3 times"):
        Trajectory([0.0, 0.5, 1.0], ok, grid256)
    with pytest.raises(ValueError, match="does not match 1 times"):
        Trajectory([0.0], ok, grid256)
    for value in (np.nan, np.inf):
        bad = ok.copy()
        bad[1, 7] = value
        with pytest.raises(ValueError, match="finite"):
            Trajectory([0.0, 1.0], bad, grid256)
    # the slack of DistributionState, and not beyond it
    edge = ok.copy()
    edge[0, 3], edge[1, 4] = -BOUNDS_TOL, 1.0 + BOUNDS_TOL
    Trajectory([0.0, 1.0], edge, grid256)
    for value in (-2 * BOUNDS_TOL, 1.0 + 2 * BOUNDS_TOL):
        bad = ok.copy()
        bad[1, 7] = value
        with pytest.raises(ValueError, match="outside"):
            Trajectory([0.0, 1.0], bad, grid256)


def test_run_record_from_hand_written_series():
    rec = FvRun.from_monitors(np.array([0.1, -0.2]), np.array([0.9, 1.1]),
                              [2.0, 2.0, 2.5, 1.0], [3.0, 1.0, 1.5, 0.5, 0.75], steps=4)
    assert rec == FvRun(min_value=-0.2, max_value=1.1, max_mass_drift_rel=0.5,
                        max_free_energy_rise=0.5, steps=4)
    # 2-D cell values, as the Picard solver passes its trajectory matrix
    values = np.array([[0.5, 0.25], [0.0, 0.75]])
    rec = PicardRun.from_monitors(values, values, [1.0, 1.0], [0.0, -1.0],
                                  iterations=2, self_iterations=3, kernel_times=4,
                                  increments=((1.0, 0.1), (0.5,)))
    assert (rec.min_value, rec.max_value, rec.iterations) == (0.0, 0.75, 2)


@pytest.mark.parametrize("masses, free_energies", [
    ([1.5, 1.5, 1.5], [2.0, 1.0, -3.0]),
    ([0.0, 0.0], [0.0, 0.0]),     # zero data: no drift, no division by zero
    ([1.0], [1.0]),               # the initial state alone
])
def test_run_record_of_monotone_series_is_zero(masses, free_energies):
    rec = RunRecord.from_monitors([0.0], [1.0], masses, free_energies)
    assert rec.max_mass_drift_rel == 0.0 and rec.max_free_energy_rise == 0.0
