#!/usr/bin/env python3
"""Refinement study of the two independent solvers.

Runs the Picard/integral-equation solver and the finite-volume solver from
the same initial data and prints the L1 gap at t_final per resolution.
Smooth data shows the O(h^2) + O(dt) regime; the indicator shows the
front-dominated first-order regime.  The column `max iters/node` is the
most Picard iterations any time node took (the solver marches node by
node), and `picard s` the wall time of `picard_solve` at that level.
"""

import argparse
import time

import numpy as np

import fdfp
from fdfp.solver_duhamel import DuhamelParams, node_gaps, picard_solve
from fdfp.solver_fv import FvParams, solve

M_STAR = 1.5162560428865945  # mass of the beta = 1 equilibrium in 1-D


def initial(kind, grid):
    if kind == "smooth":
        eq = fdfp.equilibrium_state(M_STAR, grid)
        return fdfp.DistributionState(grid, 0.5 * eq.values)
    return fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("smooth", "indicator"), default="smooth")
    ap.add_argument("--t-final", type=float, default=0.25)
    args = ap.parse_args()
    if not 0 < args.t_final <= 1:
        ap.error("--t-final must lie in (0, 1]; the Picard construction is local in time")

    print(f"initial data: {args.kind}, t_final = {args.t_final}")
    print(f"{'n':>6} {'time nodes':>11} {'L1 gap':>12} {'max iters/node':>15} {'picard s':>9}")
    prev = None
    for n, tn in ((128, 9), (256, 16), (512, 31)):
        grid = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        f0 = initial(args.kind, grid)
        start = time.perf_counter()
        du = picard_solve(f0, DuhamelParams(t_final=args.t_final, time_nodes=tn))
        picard_s = time.perf_counter() - start
        # the FV march lands a row on each Picard node, which node_gaps reads
        fv = solve(f0, FvParams(t_final=args.t_final), du.times[1:])
        gap = float(node_gaps(du, fv)[-1])
        note = f"  (x{prev / gap:.2f})" if prev else ""
        print(f"{n:>6} {tn:>11} {gap:>12.4e} {du.meta.iterations:>15} {picard_s:>9.3f}{note}")
        prev = gap


if __name__ == "__main__":
    main()
