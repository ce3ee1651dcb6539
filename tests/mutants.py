"""Run pytest with one mutant of the scheme patched in, in this process.

    PYTHONPATH=src python tests/mutants.py MUTANT [pytest arguments]

A mutant changes one formula of the scheme, here without a switch in
`src/`: it replaces `Grid.interface_area` before any test runs.  A check
that can tell a wrong solver fails under it (ROADMAP item 9).

* A: the radial interface area is N omega_N r^(N-2);
* F: the radial interface area is N omega_N r^N.

Cartesian interfaces keep their unit area.  The exit status is pytest's:
1 (tests failed) means the tests caught the mutant.
"""

import sys

import numpy as np
import pytest

from fdfp.grid import CARTESIAN_1D, Grid, unit_ball_volume

# the power of r in each mutant's radial interface area, from the dimension N
MUTANTS = {"A": lambda dim: dim - 2, "F": lambda dim: dim}


def mutant_area(power):
    """An `interface_area` property whose radial areas are N omega_N r^power(N)."""
    def interface_area(grid):
        if grid.geometry == CARTESIAN_1D:
            return np.ones(grid.cells + 1)
        return grid.dim * unit_ball_volume(grid.dim) * grid.edges ** power(grid.dim)
    return property(interface_area)


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    Grid.interface_area = mutant_area(MUTANTS[name])
    sys.exit(pytest.main(args))
