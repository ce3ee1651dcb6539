"""What a solve reports, from what its solver marched and monitored: the
states, their diagnostics rows and the run record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import equilibrium_state
from .functionals import DiagnosticsRow, compute_diagnostics, equilibrium_free_energy
from .grid import DistributionState, integrate


@dataclass(frozen=True)
class RunRecord:
    """Invariant extrema over the states a solver monitors: the lowest and
    highest cell value, the largest relative mass drift and free-energy rise."""

    min_value: float
    max_value: float
    max_mass_drift_rel: float
    max_free_energy_rise: float

    @classmethod
    def from_monitors(cls, lowest, highest, masses, free_energies, **extra):
        """The record of cell values, masses and free energies monitored from
        the initial state on; `extra` holds a subclass's own fields."""
        m = np.asarray(masses, dtype=float)
        return cls(min_value=float(np.min(lowest)), max_value=float(np.max(highest)),
                   max_mass_drift_rel=float(np.max(np.abs(m - m[0])) / max(abs(m[0]), 1e-300)),
                   max_free_energy_rise=float(np.max(np.diff(free_energies), initial=0.0)),
                   **extra)


def _reference(f0: DistributionState) -> tuple[DistributionState, float]:
    """F_M and its free energy for f0's mass M, or the zero state and 0 at M = 0."""
    mass = integrate(f0)
    if mass > 0:
        return equilibrium_state(mass, f0.grid), equilibrium_free_energy(mass, f0.grid.dim)
    return DistributionState(f0.grid, np.zeros(f0.grid.cells)), 0.0


@dataclass(frozen=True)
class Trajectory:
    """Ordered output of a solver run.

    `times[0]` is 0 and `states[0]` the initial condition.  `diagnostics`,
    when not given, are one row per state against `_reference(states[0])`.
    `meta` is the solver's run record, which the harness and the acceptance
    suite read back (None for a trajectory no solve produced).
    """

    times: np.ndarray
    states: list[DistributionState]
    diagnostics: list[DiagnosticsRow] | None = None
    meta: RunRecord | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.size == 0 or t[0] != 0.0:
            raise ValueError("trajectory times must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if len(self.states) != t.size:
            raise ValueError("times and states must have equal length")
        if self.diagnostics is None:
            eq, h_eq = _reference(self.states[0])
            object.__setattr__(self, "diagnostics", [
                compute_diagnostics(s, time, eq, h_eq)
                for time, s in zip(t.tolist(), self.states)])
        elif len(self.diagnostics) != t.size:
            raise ValueError("times and diagnostics must have equal length")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def column(self, name: str) -> np.ndarray:
        """Diagnostics column as an array (e.g. 'rel_entropy')."""
        return np.array([getattr(row, name) for row in self.diagnostics])
