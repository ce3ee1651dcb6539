"""The benchmark's workloads.

A workload is set up once per process (`setup`), then runs whole rounds:
`prepare` readies round i outside the timed region, `run_round` is the
timed unit of work, and `check` verifies that round's outputs against
`reference` and returns failure messages.  fdfp is always reached through
module attributes (`fdfp.harness.run_scenario`, `fdfp.solver_fv.solve`),
so the traced run can wrap them where the callers look them up.
"""

from __future__ import annotations

import shutil
import sys
import traceback
from functools import cached_property
from pathlib import Path

import numpy as np

import checks
import reference as ref

HERE = Path(__file__).resolve().parent


def attempt(call, *args):
    """One operation: its result, or None (a failed operation) if it raised."""
    try:
        return call(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class Scenario:
    """One harness scenario: parse_config in setup, run_scenario per round."""

    config_file: str

    def setup(self, out_dir: Path, seed: int) -> None:
        import fdfp.equilibrium
        import fdfp.functionals
        import fdfp.grid
        import fdfp.harness

        self.out = out_dir / self.name
        text = (HERE / "scenarios" / self.config_file).read_text()
        text = text.replace("{output_dir}", str(self.out)).replace("{seed}", str(seed))
        self.config = fdfp.harness.parse_config(text)
        # The solver's own reference equilibrium (beta(mass) root solve and
        # free-energy quadrature) is part of set-up, as in one `fdfp run`;
        # fdfp caches both, so every timed round then does the same work.
        grid = fdfp.harness.build_grid(self.config)
        mass = fdfp.grid.integrate(fdfp.harness.build_initial(self.config.initial, grid))
        fdfp.equilibrium.equilibrium_state(mass, grid)
        fdfp.functionals.equilibrium_free_energy(mass, grid.dim)
        c = self.config
        self.node, self.weights = ref.nodes_and_weights(c.geometry, c.dim, c.extent, c.cells)
        self.speed = np.abs(self.node)
        self.prepare(0)

    def prepare(self, index: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def run_round(self) -> tuple[int, int]:
        import fdfp.harness

        self.status = attempt(fdfp.harness.run_scenario, self.config)
        return 1, int(self.status is None)

    def snapshots(self) -> list[checks.Snapshot]:
        snaps = [checks.Snapshot(p) for p in sorted(self.out.glob("snapshot_*.txt"))]
        if len(snaps) != len(self.config.snapshot_times):
            raise ValueError(f"expected {len(self.config.snapshot_times)} snapshots, "
                             f"found {len(snaps)}")
        return snaps

    def report(self, name: str) -> dict[str, str]:
        lines = (self.out / f"report_{name}.csv").read_text().splitlines()[1:]
        return dict(ln.split(",", 1) for ln in lines)

    def check(self) -> list[str]:
        if self.status is None:
            return []  # counted as a failed operation
        if self.status != 0:
            return [f"{self.name}: run_scenario returned {self.status}"]
        snaps = self.snapshots()
        errors = []
        for s in snaps:
            if np.max(np.abs(s.node - self.node)) > 1e-12 * self.config.extent:
                errors.append(f"{self.name}: snapshot at t={s.time} is on another mesh")
        if errors:
            return errors
        states = [s.values for s in snaps]
        errors += checks.trajectory(self.name, self.weights, self.speed, states)
        return errors + self.specific_checks(snaps)

    @cached_property
    def beta_star(self) -> float:
        """beta of the dominating equilibrium F_{M*}, from the closed form.

        Computed at the first check, not in set-up: set-up time is fdfp's.
        """
        return ref.beta_of_mass(self.config.initial.options["mass_star"], self.config.dim)


class RadialMoments(Scenario):
    name = "radial_moments"
    config_file = "radial_moments.cfg"

    def specific_checks(self, snaps) -> list[str]:
        c = self.config
        initial = c.initial.options["factor"] * ref.fd_profile(self.beta_star, self.speed)
        beta = ref.beta_of_mass(ref.mass(self.weights, snaps[0].values), c.dim)
        equilibrium = ref.fd_profile(beta, self.speed)
        # The scheme's cells are O(h^2) away from the cell averages of a smooth
        # profile, so sampled and averaged F_M bound what the mesh can resolve.
        averages = ref.fd_cell_averages(beta, c.geometry, c.dim, c.extent, c.cells)
        tolerance = ref.l1_distance(self.weights, averages, equilibrium)
        errors = []
        gap = float(np.max(np.abs(snaps[0].values - initial)))
        if gap > 1e-9:
            errors.append(f"radial_moments: initial state differs from 0.9 F_M* by {gap:.3e}")
        for s in snaps:
            errors += checks.radially_non_increasing(f"radial_moments t={s.time}", s.values)
        order = int(self.config.experiments[1].options["order"])
        times = [s.time for s in snaps]
        moments = [float(np.dot(self.weights, self.speed ** order * s.values)) for s in snaps]
        t_final = self.config.solver_params.t_final
        spread = checks.nested_sup_spread(times, moments, (t_final / 4, t_final / 2, t_final))
        if spread > 0.02:
            errors.append(f"radial_moments: moment sups spread by {spread:.3e} > 0.02")
        reported = float(self.report("moment_propagation")["spread"])
        if not reported <= 0.02:
            errors.append(f"radial_moments: reported moment spread {reported!r} > 0.02")
        l1 = ref.l1_distance(self.weights, snaps[-1].values, equilibrium)
        if l1 > tolerance:
            errors.append(f"radial_moments: final L1 to F_M {l1:.3e} exceeds the "
                          f"discretisation error {tolerance:.3e}")
        return errors


class CrossCheck(Scenario):
    name = "cross_check"
    config_file = "cross_check.cfg"
    GAP_TOLERANCE = 1e-2

    def specific_checks(self, snaps) -> list[str]:
        c = self.config
        rate_bound = -2.0 * ref.rate_constant(self.beta_star)
        fit = c.experiments[1].options
        cross_times = np.linspace(0.0, min(c.solver_params.t_final, 1.0),
                                  c.experiments[2].options["time_nodes"])[1:]
        errors = []
        rows = [ln.split(",") for ln in
                (self.out / "cross_check.csv").read_text().splitlines()[1:]]
        times = np.array([float(r[0]) for r in rows])
        gaps = np.array([float(r[1]) for r in rows])
        if times.shape != cross_times.shape or np.max(np.abs(times - cross_times)) > 1e-12:
            errors.append("cross_check: cross_check.csv is not on the Picard time grid")
        elif not np.all(gaps <= self.GAP_TOLERANCE):
            errors.append(f"cross_check: Picard-vs-FV L1 gap {gaps.max():.3e} > 1e-2")
        beta = ref.beta_of_mass(ref.mass(self.weights, snaps[0].values), 1)
        h_eq = ref.free_energy(self.weights, self.speed, ref.fd_profile(beta, self.speed))
        lo, hi = fit["window_lo"], fit["window_hi"]
        pts = [(s.time, ref.free_energy(self.weights, self.speed, s.values) - h_eq)
               for s in snaps if lo <= s.time <= hi]
        pts = [(t, r) for t, r in pts if r > 1e-12]
        if len(pts) < 4:
            return errors + [f"cross_check: only {len(pts)} usable points in the fit window"]
        slope = ref.log_slope(*zip(*pts))
        if not slope <= rate_bound:
            errors.append(f"cross_check: relative-entropy log-slope {slope:.4f} "
                          f"above -2C = {rate_bound:.4f}")
        return errors


class FvEnsemble:
    """Many short independent solves on a small grid, plus ordered pairs.

    Every round draws fresh members from the seeded stream, so each solve
    has a new mass and pays its own beta(mass) root solve.
    """

    name = "fv_ensemble"
    EXTENT = 8.0
    CELLS = 48
    T_FINAL = 0.5
    OUTPUT_STRIDE = 25
    ROUGH = 16
    FACTORS = (0.2, 0.4, 0.6, 0.8)
    PAIRS = 4
    ORDER_TOLERANCE = 1e-12   # roundoff on O(1) masses

    def setup(self, out_dir: Path, seed: int) -> None:
        import fdfp.grid
        import fdfp.solver_fv

        self.out = out_dir / self.name
        self.rng = np.random.default_rng(seed)
        self.grid = fdfp.grid.make_grid("cartesian1d", 1, self.EXTENT, self.CELLS)
        self.params = fdfp.solver_fv.FvParams(t_final=self.T_FINAL,
                                             output_stride=self.OUTPUT_STRIDE)
        self.node, self.weights = ref.nodes_and_weights("cartesian1d", 1, self.EXTENT,
                                                        self.CELLS)
        self.speed = np.abs(self.node)
        self.prepare(0)

    def _rough(self) -> np.ndarray:
        """Compact support with exact 0 and 1 cells, mass in [0.25, 0.85].

        A fractional cell makes every mass new, so fdfp's beta(mass) cache
        never serves a member.
        """
        rng = self.rng
        while True:
            half = rng.uniform(0.6, 1.4)
            centre = rng.uniform(-0.5, 0.5)
            kind = rng.choice(3, size=self.CELLS, p=[0.3, 0.2, 0.5])
            v = np.where(kind == 0, 0.0,
                         np.where(kind == 1, 1.0, rng.uniform(0.0, 1.0, self.CELLS)))
            v[np.abs(self.node - centre) > half] = 0.0
            fractional = ((v > 0.0) & (v < 1.0)).any()
            if 0.25 <= ref.mass(self.weights, v) <= 0.85 and (v == 1.0).any() and fractional:
                return v

    def prepare(self, index: int) -> None:
        rng = self.rng
        self.members = [self._rough() for _ in range(self.ROUGH)]
        f_star = ref.fd_profile(rng.uniform(2.5, 6.0), self.speed)
        self.members += [a * f_star for a in self.FACTORS]
        # Ordered smooth pairs a F_beta1 <= b F_beta2 (a <= b, beta1 >= beta2).
        # Rough ordered pairs are left out: see the FOUND line on
        # comparison_experiment in CHANGES.md.
        self.pairs = []
        for _ in range(self.PAIRS):
            beta2, beta1 = np.sort(rng.uniform(2.0, 6.0, 2))
            a, b = np.sort(rng.uniform(0.3, 1.0, 2))
            self.pairs.append((a * ref.fd_profile(beta1, self.speed),
                               b * ref.fd_profile(beta2, self.speed)))
        self.out.mkdir(parents=True, exist_ok=True)

    def run_round(self) -> tuple[int, int]:
        import fdfp.grid
        import fdfp.solver_fv

        def solve(v):
            return fdfp.solver_fv.solve(fdfp.grid.DistributionState(self.grid, v), self.params)

        def compare(f, g):
            return fdfp.solver_fv.comparison_experiment(
                fdfp.grid.DistributionState(self.grid, f),
                fdfp.grid.DistributionState(self.grid, g), self.params)

        self.trajectories = [attempt(solve, v) for v in self.members]
        self.reports = [attempt(compare, f, g) for f, g in self.pairs]
        lines = [",".join(format(x, ".17g") for x in traj.states[-1].values)
                 for traj in self.trajectories if traj is not None]
        lines += [f"{rep.max_positive_part!r},{rep.max_contraction_slack!r}"
                  for rep in self.reports if rep is not None]
        (self.out / "ensemble.csv").write_text("\n".join(lines) + "\n")
        results = self.trajectories + self.reports
        return len(results), sum(r is None for r in results)

    def output_bytes(self) -> int:
        return 0  # written by the benchmark, not by fdfp.harness

    def check(self) -> list[str]:
        errors = []
        for k, traj in enumerate(self.trajectories):
            if traj is None:
                continue
            label = f"fv_ensemble member {k}"
            states = [s.values for s in traj.states]
            errors += checks.trajectory(label, self.weights, self.speed, states)
            beta = ref.beta_of_mass(ref.mass(self.weights, self.members[k]), 1)
            eq = ref.fd_profile(beta, self.speed)
            first = ref.l1_distance(self.weights, states[0], eq)
            last = ref.l1_distance(self.weights, states[-1], eq)
            if not last < first:
                errors.append(f"{label}: L1 to its equilibrium went {first:.3e} -> {last:.3e}")
        for k, rep in enumerate(self.reports):
            if rep is None:
                continue
            if rep.max_positive_part > self.ORDER_TOLERANCE:
                errors.append(f"fv_ensemble pair {k}: (f - g)_+ reached {rep.max_positive_part:.3e}")
            if rep.max_contraction_slack > self.ORDER_TOLERANCE:
                errors.append(f"fv_ensemble pair {k}: L1 distance grew by "
                              f"{rep.max_contraction_slack:.3e}")
        return errors


WORKLOADS = {w.name: w for w in (RadialMoments, CrossCheck, FvEnsemble)}
