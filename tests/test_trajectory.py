import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdfp
from fdfp import trajectory
from fdfp.equilibrium import discrete_equilibrium
from fdfp.functionals import free_energy
from fdfp.grid import BOUNDS_TOL
from fdfp.solver_fv import FvRun
from fdfp.trajectory import Trajectory

from conftest import columns, state_diagnostics


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_columns_are_measured_against_the_equilibrium_of_the_initial_mass(geometry, dim):
    grid = fdfp.make_grid(geometry, dim, 8.0, 256)
    eq_star = fdfp.equilibrium_state(1.0, grid)
    traj = Trajectory([0.0, 0.5], [0.5 * eq_star.values, 0.25 * eq_star.values], grid)
    # F_h: the scheme's steady state with f0's discrete mass, and its discrete free energy
    eq = discrete_equilibrium(fdfp.integrate(traj.states[0]), grid)
    assert columns(traj) == state_diagnostics(traj.states, eq, free_energy(eq))


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


def test_reading_a_state_builds_that_state_alone(eq_beta1, monkeypatch):
    # a read builds and checks the state of that row alone, not the whole tuple
    built = []
    check = fdfp.DistributionState.__post_init__
    monkeypatch.setattr(fdfp.DistributionState, "__post_init__",
                        lambda state: built.append(state) or check(state))
    rows = [(1.0 - k / 8) * eq_beta1.values for k in range(6)]
    traj = Trajectory(np.linspace(0.0, 1.0, 6), rows, eq_beta1.grid)
    assert built == []
    last = traj.states[-1]
    assert built == [last] and np.array_equal(last.values, rows[-1])
    assert len(traj.states) == 6 and len(built) == 1
    assert [s.values[0] for s in traj.states[1:3]] == [rows[1][0], rows[2][0]]
    assert [s.values[0] for s in traj.states] == [row[0] for row in rows]
    with pytest.raises(IndexError):
        traj.states[6]


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
    # np.diff(t) <= 0 is false at NaN: [0, nan] passed before
    for times in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="times must be finite"):
            Trajectory(times, ok, grid256)
    # the slack of DistributionState, and not beyond it
    edge = ok.copy()
    edge[0, 3], edge[1, 4] = -BOUNDS_TOL, 1.0 + BOUNDS_TOL
    Trajectory([0.0, 1.0], edge, grid256)
    for value in (-2 * BOUNDS_TOL, 1.0 + 2 * BOUNDS_TOL):
        bad = ok.copy()
        bad[1, 7] = value
        with pytest.raises(ValueError, match="outside"):
            Trajectory([0.0, 1.0], bad, grid256)


@pytest.mark.parametrize("values, message", [
    # max=1 alone would hide the overshoot of 2e-5
    ([0.5, 1.0 + 2e-5], "min=0.5, max=1 (2e-05 above 1)"),
    ([-2e-5, 0.5], "min=-2e-05, max=0.5 (2e-05 below 0)"),
    ([-3e-5, 1.25], "min=-3e-05, max=1.25 (3e-05 below 0, 0.25 above 1)"),
])
def test_invariant_region_error_gives_the_size_of_the_excursion(values, message):
    with pytest.raises(ValueError) as err:
        fdfp.grid.require_invariant_region(np.array(values), " at t = 1")
    assert str(err.value) == "state values outside [0, 1] at t = 1: " + message


def test_run_record_from_hand_written_series():
    rec = FvRun.from_monitors(np.array([0.1, -0.2]), np.array([0.9, 1.1]),
                              [2.0, 2.0, 2.5, 1.0], [3.0, 1.0, 1.5, 0.5, 0.75], steps=4)
    assert rec == FvRun(min_value=-0.2, max_value=1.1, max_mass_drift_rel=0.5,
                        max_free_energy_rise=0.5, steps=4)


@pytest.mark.parametrize("masses, free_energies", [
    ([1.5, 1.5, 1.5], [2.0, 1.0, -3.0]),
    ([0.0, 0.0], [0.0, 0.0]),     # zero data: no drift, no division by zero
    ([1.0], [1.0]),               # the initial state alone
])
def test_run_record_of_monotone_series_is_zero(masses, free_energies):
    rec = FvRun.from_monitors([0.0], [1.0], masses, free_energies, steps=0)
    assert rec.max_mass_drift_rel == 0.0 and rec.max_free_energy_rise == 0.0


# Reference forms of the checks and of the run record, written with numpy's
# wrappers (np.all, np.any, np.diff, np.min of a list): the forms in use must
# accept, reject and word their errors exactly as these do.
def _ref_require_invariant_region(values, where=""):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"state values must be finite{where}")
    if values.min() < -BOUNDS_TOL or values.max() > 1.0 + BOUNDS_TOL:
        below = [f"{-values.min():.3g} below 0"] * bool(values.min() < -BOUNDS_TOL)
        above = [f"{values.max() - 1.0:.3g} above 1"] * bool(values.max() > 1.0 + BOUNDS_TOL)
        raise ValueError(f"state values outside [0, 1]{where}: "
                         f"min={values.min():.3g}, max={values.max():.3g} "
                         f"({', '.join(below + above)})")


def _ref_state(grid, values):
    vals = np.array(values, dtype=float)
    if vals.shape != (grid.cells,):
        raise ValueError(f"values shape {vals.shape} does not match grid "
                         f"with {grid.cells} cells")
    _ref_require_invariant_region(vals)


def _ref_trajectory(times, values, grid):
    t = np.array(times, dtype=float)
    if t.size == 0 or t[0] != 0.0 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
        raise ValueError("trajectory times must be finite, start at 0 and increase strictly")
    vals = np.array(values, dtype=float)
    if vals.shape != (t.size, grid.cells):
        raise ValueError(f"values shape {vals.shape} does not match "
                         f"{t.size} times and {grid.cells} cells")
    _ref_require_invariant_region(vals)


def _ref_run(lowest, highest, masses, free_energies, steps):
    m = np.asarray(masses, dtype=float)
    return FvRun(min_value=float(np.min(lowest)), max_value=float(np.max(highest)),
                 max_mass_drift_rel=float(np.max(np.abs(m - m[0])) / max(abs(m[0]), 1e-300)),
                 max_free_energy_rise=float(np.max(np.diff(free_energies), initial=0.0)),
                 steps=steps)


def _error(make, *args):
    """The message of the ValueError that make(*args) raises, or None."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


_EDGES = [0.0, 1.0, 0.5, -BOUNDS_TOL, 1.0 + BOUNDS_TOL,
          np.nextafter(-BOUNDS_TOL, -1.0), np.nextafter(1.0 + BOUNDS_TOL, 2.0),
          np.nan, np.inf, -np.inf, -0.0]
_CELL = st.one_of(st.sampled_from(_EDGES), st.floats(-2e-5, 1.0 + 2e-5))
_TIME = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, -1.0, np.nan, np.inf, -np.inf]),
                  st.floats(0.0, 10.0))
_GRID8 = fdfp.make_grid("cartesian1d", 1, 8.0, 8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_state_checks_match_their_reference_forms(data):
    # rows of 8 cells (7 for a shape error), mostly admissible, some with NaN,
    # +-inf or values just past the BOUNDS_TOL slack; times either valid for
    # the rows, or mostly from 0 and some repeated, decreasing or not finite
    rows = data.draw(st.integers(1, 4))
    cells = data.draw(st.sampled_from([8, 8, 8, 7]))
    values = np.array(data.draw(st.lists(_CELL, min_size=rows * cells, max_size=rows * cells)))
    values = values.reshape(rows, cells)
    if data.draw(st.booleans()):
        times = [0.0, *np.cumsum(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=rows - 1,
                                                    max_size=rows - 1)))]
    else:
        times = data.draw(st.lists(_TIME, min_size=0, max_size=5))
        if times and data.draw(st.booleans()):
            times[0] = 0.0
    assert _error(fdfp.grid.require_invariant_region, values, " at t = 1") == \
        _error(_ref_require_invariant_region, values, " at t = 1")
    assert _error(fdfp.DistributionState, _GRID8, values[0]) == _error(_ref_state, _GRID8, values[0])
    assert _error(Trajectory, times, values, _GRID8) == _error(_ref_trajectory, times, values, _GRID8)


def _bits(record):
    return [np.float64(field).tobytes() for field in dataclasses.astuple(record)]


_SERIES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e-300]),
                             st.floats(-1e3, 1e3)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_SERIES, _SERIES, _SERIES, _SERIES, st.integers(0, 10), st.booleans())
def test_run_record_matches_its_reference_reduction(lowest, highest, masses, free_energies,
                                                     steps, as_arrays):
    # lists of numpy scalars as `solve` passes them, or arrays; bit for bit,
    # NaN and signed zeros included
    lowest, highest = [np.float64(x) for x in lowest], [np.float64(x) for x in highest]
    series = (lowest, highest, masses, free_energies)
    if as_arrays:
        series = tuple(np.array(x) for x in series)
    with np.errstate(all="ignore"):
        record, ref = FvRun.from_monitors(*series, steps), _ref_run(*series, steps)
    assert _bits(record) == _bits(ref)
