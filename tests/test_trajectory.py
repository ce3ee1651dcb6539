import dataclasses

import numpy as np
import pytest

import fdfp
from fdfp.functionals import compute_diagnostics, equilibrium_free_energy
from fdfp.solver_duhamel import PicardRun
from fdfp.solver_fv import FvRun
from fdfp.trajectory import RunRecord, Trajectory


def test_rows_are_measured_against_the_equilibrium_of_the_initial_mass(eq_beta1):
    f0 = fdfp.DistributionState(eq_beta1.grid, 0.5 * eq_beta1.values)
    later = fdfp.DistributionState(eq_beta1.grid, 0.25 * eq_beta1.values)
    traj = Trajectory([0.0, 0.5], [f0, later])
    mass = fdfp.integrate(f0)
    eq = fdfp.equilibrium_state(mass, f0.grid)
    h_eq = equilibrium_free_energy(mass, f0.grid.dim)
    assert traj.diagnostics == [compute_diagnostics(f0, 0.0, eq, h_eq),
                                compute_diagnostics(later, 0.5, eq, h_eq)]


def test_rows_at_zero_mass_are_measured_against_the_zero_state(grid256):
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    bump = fdfp.DistributionState(grid256, np.where(np.abs(grid256.node) < 1, 0.5, 0.0))
    traj = Trajectory([0.0, 1.0], [zero, bump])
    assert traj.diagnostics == [compute_diagnostics(zero, 0.0, zero, 0.0),
                                compute_diagnostics(bump, 1.0, zero, 0.0)]
    assert traj.diagnostics[1].l1_to_eq == fdfp.integrate(bump)


def test_rows_passed_in_are_kept_and_replace_carries_them_over(eq_beta1):
    traj = Trajectory([0.0, 0.5], [eq_beta1, eq_beta1])
    rows = [dataclasses.replace(row, rel_entropy=1.0) for row in traj.diagnostics]
    assert Trajectory(traj.times, traj.states, rows).diagnostics is rows
    record = RunRecord(min_value=0.0, max_value=1.0, max_mass_drift_rel=0.0,
                       max_free_energy_rise=0.0)
    assert dataclasses.replace(traj, meta=record).diagnostics is traj.diagnostics
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(traj.times, traj.states, rows[:1])


def test_run_record_from_hand_written_series():
    rec = FvRun.from_monitors(np.array([0.1, -0.2]), np.array([0.9, 1.1]),
                              [2.0, 2.0, 2.5, 1.0], [3.0, 1.0, 1.5, 0.5, 0.75], steps=4)
    assert rec == FvRun(min_value=-0.2, max_value=1.1, max_mass_drift_rel=0.5,
                        max_free_energy_rise=0.5, steps=4)
    # 2-D cell values, as the Picard solver passes its trajectory matrix
    values = np.array([[0.5, 0.25], [0.0, 0.75]])
    rec = PicardRun.from_monitors(values, values, [1.0, 1.0], [0.0, -1.0],
                                  iterations=2, increments=((1.0, 0.1), (0.5,)))
    assert (rec.min_value, rec.max_value, rec.iterations) == (0.0, 0.75, 2)


@pytest.mark.parametrize("masses, free_energies", [
    ([1.5, 1.5, 1.5], [2.0, 1.0, -3.0]),
    ([0.0, 0.0], [0.0, 0.0]),     # zero data: no drift, no division by zero
    ([1.0], [1.0]),               # the initial state alone
])
def test_run_record_of_monotone_series_is_zero(masses, free_energies):
    rec = RunRecord.from_monitors([0.0], [1.0], masses, free_energies)
    assert rec.max_mass_drift_rel == 0.0 and rec.max_free_energy_rise == 0.0
