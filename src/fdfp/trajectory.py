"""What a solve reports, from what its solver marched and monitored: the
matrix of its rows, their diagnostics columns and the run record."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .equilibrium import discrete_equilibrium
from .functionals import compute_diagnostics, free_energy
from .grid import DistributionState, Grid, integrate, require_invariant_region


def _reference(f0: DistributionState) -> tuple[np.ndarray, float]:
    """The values of F_h, the discrete equilibrium of f0's mass M, and its free
    energy, or zeros and 0 at M = 0."""
    mass = integrate(f0)
    if mass > 0:
        eq = discrete_equilibrium(mass, f0.grid)
        return eq.values, free_energy(eq)
    return np.zeros(f0.grid.cells), 0.0


class _States(Sequence):
    """The rows of a (rows, cells) matrix as `DistributionState`s, each
    built when it is read; a slice reads as a tuple of them."""

    def __init__(self, values: np.ndarray, grid: Grid):
        self._values, self._grid = values, grid

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        rows = self._values[index]
        if rows.ndim == 2:
            return tuple(DistributionState(self._grid, row) for row in rows)
        return DistributionState(self._grid, rows)


@dataclass(frozen=True)
class Trajectory:
    """Ordered output of a solver run: a read-only (rows, cells) matrix of
    cell values, checked once, with `times[0]` = 0 and `values[0]` the
    initial condition.  `states` views the rows as `DistributionState`s,
    building one only for a row that is read; `column(name)` computes every
    diagnostics column on first use, against `_reference(states[0])`.
    `meta` is the solver's run record, an `FvRun` or a `PicardRun`, which
    the harness and the acceptance suite read back (None if no solve made
    it).
    """

    times: np.ndarray
    values: np.ndarray
    grid: Grid
    meta: object = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.size == 0 or t[0] != 0.0 or not np.isfinite(t).all() or (t[1:] <= t[:-1]).any():
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
    def states(self) -> Sequence[DistributionState]:
        return _States(self.values, self.grid)

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        columns = compute_diagnostics(self.values, self.grid, *_reference(self.states[0]))
        for col in columns.values():
            col.setflags(write=False)
        return columns

    def column(self, name: str) -> np.ndarray:
        """One of `functionals.DIAGNOSTICS` (e.g. 'rel_entropy'), one entry per row."""
        return self._columns[name]
