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
from fdfp.solver_fv import FvParams, decay_rate_fit, rate_constant, solve

WINDOW_ROWS = 8      # output rows the march lands on inside the fit window


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta-star", type=float, default=1.0)
    ap.add_argument("--cells", type=int, default=256)
    ap.add_argument("--t-final", type=float, default=8.0)
    args = ap.parse_args()
    window = (0.5, 0.75 * args.t_final)
    if not window[1] > window[0]:   # nan included
        ap.error("--t-final must exceed 2/3, or the fit window (0.5, 0.75 t_final) is empty")

    def built(option, make, *values):
        # a value the library rejects is an argument error, not a traceback
        try:
            return make(*values)
        except ValueError as exc:
            ap.error(f"{option}: {exc}")

    from fdfp.equilibrium import FermiDiracSpec, mass_of_beta
    m_star = built("--beta-star", lambda beta: mass_of_beta(FermiDiracSpec(beta=beta, dim=1)),
                   args.beta_star)
    grid = built("--cells", fdfp.make_grid, "cartesian1d", 1, 8.0, args.cells)
    params = built("--t-final", FvParams, args.t_final)
    eq_star = fdfp.equilibrium_state(m_star, grid)
    c = rate_constant(m_star, 1)   # C of the bound -2C
    fit_times = np.linspace(*window, WINDOW_ROWS)

    print(f"beta* = {args.beta_star:g}, M* = {m_star:.7g}")
    print(f"{'factor':>8} {'mass':>12} {'2C bound':>10} {'fit slope':>14} {'bound ok':>9}")
    for factor in (0.25, 0.5, 0.75, 0.9):
        f0 = fdfp.DistributionState(grid, factor * eq_star.values)
        traj = solve(f0, params, fit_times)
        rep = decay_rate_fit(traj.times, traj.column("rel_entropy"), c, window)
        # no slope: the relative entropy starts at its floor
        slope = "at equilibrium" if rep.slope is None else f"{rep.slope:.4f}"
        print(f"{factor:>8.2f} {fdfp.integrate(f0):>12.6g} {-2 * c:>10.4f} "
              f"{slope:>14} {str(rep.bound_satisfied):>9}")


if __name__ == "__main__":
    main()
