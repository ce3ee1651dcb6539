#!/usr/bin/env python3
"""Measured entropy decay rates against the analytic bound 2C.

For initial data factor * F_{M*} the relative entropy must decay at least
like exp(-2Ct) with C = 1 - 1/(beta(M*) + 1).  This script sweeps the
scaling factor and prints the fitted log-slope next to the bound over the
window (0.5, 0.75 t_final).
"""

import argparse

import numpy as np

import fdfp
from fdfp.solver_fv import FvParams, decay_bound, decay_rate_fit, solve

WINDOW_ROWS = 8      # output rows the march lands on inside the fit window


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta-star", type=float, default=1.0)
    ap.add_argument("--cells", type=int, default=256)
    ap.add_argument("--t-final", type=float, default=8.0)
    args = ap.parse_args()

    from fdfp.equilibrium import FermiDiracSpec, mass_of_beta
    m_star = mass_of_beta(FermiDiracSpec(beta=args.beta_star, dim=1))
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, args.cells)
    eq_star = fdfp.equilibrium_state(m_star, grid)
    window = (0.5, 0.75 * args.t_final)
    if not window[1] > window[0]:   # nan included
        ap.error("--t-final must exceed 2/3, or the fit window (0.5, 0.75 t_final) is empty")
    fit_times = np.linspace(*window, WINDOW_ROWS)

    print(f"beta* = {args.beta_star:g}, M* = {m_star:.6f}")
    print(f"{'factor':>8} {'mass':>10} {'2C bound':>10} {'fit slope':>10} {'bound ok':>9}")
    for factor in (0.25, 0.5, 0.75, 0.9):
        f0 = fdfp.DistributionState(grid, factor * eq_star.values)
        traj = solve(f0, FvParams(t_final=args.t_final), fit_times)
        bound = decay_bound(fdfp.integrate(f0), m_star, 1)
        rep = decay_rate_fit(traj, bound, window)
        print(f"{factor:>8.2f} {fdfp.integrate(f0):>10.5f} {-2 * bound.rate_constant:>10.4f} "
              f"{rep.slope:>10.4f} {str(rep.bound_satisfied):>9}")


if __name__ == "__main__":
    main()
