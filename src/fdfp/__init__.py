"""Numerical laboratory for the Fermi-Dirac-Fokker-Planck equation.

Solvers (finite-volume and mild/integral-equation), Fermi-Dirac
equilibria, entropy/energy functionals, Mehler-kernel operators, and a
scenario harness that turns the equation's conservation and decay
properties into executable checks.
"""

from .equilibrium import (
    FermiDiracSpec,
    beta_of_mass,
    equilibrium_state,
    fermi_dirac_eval,
    mass_of_beta,
)
from .functionals import (
    check_entropy_control,
    csiszar_kullback_check,
    dissipation,
    entropy,
    entropy_control_constant,
    entropy_density,
    free_energy,
    kinetic_energy,
    moment_bound_polynomial,
    relative_entropy,
)
from .grid import (
    CARTESIAN_1D,
    RADIAL_ND,
    DistributionState,
    Grid,
    integrate,
    l1_distance,
    make_grid,
    moment,
)
from .mehler import (
    SmoothingBoundSpec,
    MehlerFactors,
    smoothing_bound_ratio,
    apply_kernel,
    apply_kernel_gradient,
    kernel_eval,
    weighted_norm,
)
from .solver_duhamel import DuhamelParams, apply_T, picard_solve
from .solver_fv import (
    FvParams,
    comparison_experiment,
    decay_rate_fit,
    max_stable_dt,
    radial_moment_propagation,
    rate_constant,
    solve,
    step,
)
from .trajectory import Trajectory

__version__ = "0.1.0"
