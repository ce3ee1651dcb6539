"""Output checks shared by the workloads.

Every check takes plain arrays (or a snapshot file fdfp wrote) and
returns a list of failure messages, empty when the output is correct.
The reference quantities come from `reference`, never from fdfp itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference as ref

MASS_REL_TOL = 1e-12          # the FV flux telescopes: mass is exact up to roundoff
FREE_ENERGY_ROUNDOFF = 1e-13  # relative slack of a free-energy sum against its neighbour
SNAPSHOT_MAGIC = "fdfp-snapshot v1"


class Snapshot:
    """One fdfp snapshot file read with the benchmark's own parser."""

    def __init__(self, path):
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a snapshot file")
        geometry, dim, cells, extent, time = lines[1].split(",")
        self.geometry = geometry
        self.dim = int(dim)
        self.cells = int(cells)
        self.extent = float(extent)
        self.time = float(time)
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:] if ln.strip()])
        if rows.shape != (self.cells, 2):
            raise ValueError(f"{path}: expected {self.cells} rows of node,value")
        self.node, self.values = rows[:, 0], rows[:, 1]


def region(label: str, values: np.ndarray) -> list[str]:
    """Every cell lies in the invariant region [0, 1], with no slack."""
    v = np.asarray(values)
    if not np.all(np.isfinite(v)):
        return [f"{label}: non-finite values"]
    if v.min() < 0.0 or v.max() > 1.0:
        return [f"{label}: values leave [0, 1] (min {v.min():.3e}, max {v.max():.17g})"]
    return []


def mass_conserved(label: str, weights: np.ndarray, states, mass0: float) -> list[str]:
    drift = max(abs(ref.mass(weights, s) - mass0) for s in states) / abs(mass0)
    if drift > MASS_REL_TOL:
        return [f"{label}: relative mass drift {drift:.3e} exceeds {MASS_REL_TOL:.0e}"]
    return []


def free_energy_non_increasing(label: str, weights: np.ndarray, speed: np.ndarray,
                               states) -> list[str]:
    h = [ref.free_energy(weights, speed, s) for s in states]
    scale = max(1.0, max(abs(x) for x in h))
    rise = max((b - a for a, b in zip(h, h[1:])), default=0.0)
    if rise > FREE_ENERGY_ROUNDOFF * scale:
        return [f"{label}: free energy rises by {rise:.3e}"]
    return []


def radially_non_increasing(label: str, values: np.ndarray) -> list[str]:
    """A radial profile may not increase outwards beyond roundoff of its peak."""
    v = np.asarray(values)
    rise = float(np.diff(v).max())
    if rise > 1e-14 * float(v.max()):
        return [f"{label}: radial profile increases by {rise:.3e}"]
    return []


def trajectory(label: str, weights: np.ndarray, speed: np.ndarray, states) -> list[str]:
    """The three structural properties every output trajectory must have."""
    errors = []
    for k, s in enumerate(states):
        errors += region(f"{label}[{k}]", s)
    if errors:
        return errors
    errors += mass_conserved(label, weights, states, ref.mass(weights, states[0]))
    errors += free_energy_non_increasing(label, weights, speed, states)
    return errors


def nested_sup_spread(times, moments, horizons) -> float:
    """max/min - 1 of sup{moment(t) : t <= horizon} over the nested horizons."""
    t = np.asarray(times)
    m = np.asarray(moments)
    sups = [float(m[t <= hz * (1 + 1e-12)].max()) for hz in horizons]
    return max(sups) / min(sups) - 1.0
