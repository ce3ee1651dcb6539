"""Time-indexed solver output: times, state snapshots and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import DiagnosticsRow
from .grid import DistributionState


@dataclass(frozen=True)
class RunRecord:
    """Invariant extrema over the states a solver monitors: the lowest and
    highest cell value, the largest relative mass drift and free-energy rise."""

    min_value: float
    max_value: float
    max_mass_drift_rel: float
    max_free_energy_rise: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered output of a solver run.

    `times[0]` is 0 and `states[0]` the initial condition; `meta` is the
    solver's run record, which the harness and the acceptance suite read
    back (None for a trajectory no solve produced).
    """

    times: np.ndarray
    states: list[DistributionState]
    diagnostics: list[DiagnosticsRow]
    meta: RunRecord | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.size == 0 or t[0] != 0.0:
            raise ValueError("trajectory times must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if len(self.states) != t.size or len(self.diagnostics) != t.size:
            raise ValueError("times, states and diagnostics must have equal length")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def column(self, name: str) -> np.ndarray:
        """Diagnostics column as an array (e.g. 'rel_entropy')."""
        return np.array([getattr(row, name) for row in self.diagnostics])
