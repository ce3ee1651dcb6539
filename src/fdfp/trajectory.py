"""What a solve reports, from what its solver marched and monitored: the
matrix of its rows, their diagnostics columns and the run record."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibrium import equilibrium_state
from .functionals import compute_diagnostics, equilibrium_free_energy
from .grid import DistributionState, Grid, integrate, require_invariant_region


def _reference(f0: DistributionState) -> tuple[np.ndarray, float]:
    """The values of F_M and its free energy for f0's mass M, or zeros and 0 at M = 0."""
    mass = integrate(f0)
    if mass > 0:
        return equilibrium_state(mass, f0.grid).values, equilibrium_free_energy(mass, f0.grid.dim)
    return np.zeros(f0.grid.cells), 0.0


@dataclass(frozen=True)
class Trajectory:
    """Ordered output of a solver run: a read-only (rows, cells) matrix of
    cell values, checked once, with `times[0]` = 0 and `values[0]` the
    initial condition.  `states` views the rows as `DistributionState`s;
    `column(name)` computes every diagnostics column on first use, against
    `_reference(states[0])`.  `meta` is the solver's run record, an
    `FvRun` or a `PicardRun`, which the harness and the acceptance suite
    read back (None if no solve made it).
    """

    times: np.ndarray
    values: np.ndarray
    grid: Grid
    meta: object = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.size == 0 or t[0] != 0.0 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be finite, start at 0 and increase strictly")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (t.size, self.grid.cells):
            raise ValueError(f"values shape {vals.shape} does not match "
                             f"{t.size} times and {self.grid.cells} cells")
        require_invariant_region(vals)
        for name, arr in (("times", t), ("values", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def states(self) -> tuple[DistributionState, ...]:
        return tuple(DistributionState(self.grid, row) for row in self.values)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        columns = compute_diagnostics(self.values, self.grid, *_reference(self.states[0]))
        for col in columns.values():
            col.setflags(write=False)
        return columns

    def column(self, name: str) -> np.ndarray:
        """One of `functionals.DIAGNOSTICS` (e.g. 'rel_entropy'), one entry per row."""
        return self._columns[name]
