#!/usr/bin/env python3
"""Measured kernel smoothing-bound ratios over the exponent test matrix.

Prints, for each (p, q, m, |alpha|) combination, the envelope of the
rescaled ratio over the test family at several times; boundedness of the
envelope is the numerical content of the weighted smoothing estimates.
"""

import fdfp
from fdfp.mehler import BOUND_TIMES, kernel_bound_sweep


def main():
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 256)
    cases = kernel_bound_sweep(grid)
    header = " ".join(f"t={t:g}" for t in BOUND_TIMES)
    print(f"{'p':>5} {'q':>5} {'m':>3} {'|a|':>3}  {header}   spread")
    for case in cases:
        s = case.spec
        env = " ".join(f"{r:8.4f}" for r in case.envelope)
        print(f"{s.p:>5g} {s.q:>5g} {s.m:>3g} {s.alpha_order:>3}  {env}  {case.spread:7.2f}")
    print(f"\nworst spread: {max(c.spread for c in cases):.2f} (bounded constant <=> no blow-up)")


if __name__ == "__main__":
    main()
