"""Criteria 04 and 10 on the radial run of the acceptance suite at even N.

For even N the midpoint cell measures integrate r^(N-1) g(r) only to O(h^2),
so the continuum equilibrium and the scheme's steady state F_h differ by
more than round-off.  Both rules hold against F_h, the one reference of the
diagnostics and of the Csiszar-Kullback check, in every dimension.
"""

import numpy as np
import pytest

import fdfp
from fdfp.functionals import csiszar_kullback_check
from fdfp.solver_fv import FvParams, solve


def _radial_run(dim):
    """The acceptance suite's radial run, min(1, 2 F_2) on 256 cells to t = 10, at `dim`."""
    grid = fdfp.make_grid("radialNd", dim, 8.0, 256)
    eq = fdfp.equilibrium_state(2.0, grid)
    f0 = fdfp.DistributionState(grid, np.minimum(1.0, 2.0 * eq.values))
    return solve(f0, FvParams(t_final=10.0, output_stride=200))


@pytest.fixture(scope="module")
def run_n2():
    return _radial_run(2)


def test_entropy_sandwich_at_n2(run_n2):
    # criterion 04's rule: H(f0) >= H(f(t)) >= H(F_h), up to round-off
    rel = run_n2.column("rel_entropy")
    assert rel.min() >= -1e-8, f"min rel entropy {rel.min():.3e}"
    assert np.all(rel <= rel[0] + 1e-12)


def test_csiszar_kullback_at_n4():
    # criterion 10's rule on every state of the run
    run = _radial_run(4)
    mass = run.column("mass")[0]
    failing = [k for k, state in enumerate(run.states)
               if not csiszar_kullback_check(state, mass).holds]
    assert not failing, f"{len(failing)} of {len(run.states)} states fail"
