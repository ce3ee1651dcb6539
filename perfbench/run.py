"""Benchmark command for fdfp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: fdfp is imported from ./src.
Set-up is timed in fresh child processes (interpreter start to inputs
ready) and reported as their median.  The workload then runs whole rounds
for S seconds; every round's outputs are checked against `reference`
outside the timed region, and run_s is the median round time.  Both times
are in reference-host seconds: divided by a host-speed probe timed around
each measurement (see hostspeed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of S on
untraced rounds and half on traced ones, reports the per-layer metrics
(one set-up plus the mean traced round) and writes the spans to
.perfbench/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: at most nproc on any host, and no oversubscription when
# the benchmark shares the machine.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_MIN_S = 0.05   # shortest host-speed probe
PROBE_SHARE = 0.2    # probe time after a round, as a share of the round
MAX_MESSAGES = 5

WORKLOAD_NAMES = ("radial_moments", "cross_check", "fv_ensemble")
# Modules that import numpy are imported inside functions, so that a set-up
# child's clock covers the numpy import as `fdfp run` pays it.

sys.path.insert(0, str(HERE))

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "solver_fv.solve.calls": "count",
    "solver_fv.solve.s": "s",
    "solver_fv.steps": "count",
    "solver_fv.us_per_step": "us",
    "solver_fv.comparison_experiment.s": "s",
    "solver_fv.comparison.steps": "count",
    "solver_fv.max_stable_dt.calls": "count",
    "functionals.potential.calls": "count",
    "functionals.potential.s": "s",
    "functionals.entropy_density.calls": "count",
    "functionals.entropy_density.s": "s",
    "functionals.upwind_mobility.s": "s",
    "functionals.compute_diagnostics.calls": "count",
    "functionals.compute_diagnostics.s": "s",
    "equilibrium.beta_of_mass.calls": "count",
    "equilibrium.beta_of_mass.s": "s",
    "equilibrium.equilibrium_state.calls": "count",
    "functionals.equilibrium_free_energy.s": "s",
    "mehler.apply_kernel_gradient_edges.calls": "count",
    "mehler.apply_kernel_gradient_edges.s": "s",
    "mehler.kernel_matrix_bytes": "bytes_computed",
    "solver_duhamel.picard_solve.s": "s",
    "solver_duhamel.iterations": "count",
    "solver_duhamel.s_per_iteration": "s",
    "harness.parse_config.s": "s",
    "setup.import_s": "s",
    "harness.run_scenario.s": "s",
    "harness.self_s": "s",
    "harness.output_bytes": "bytes",
    "process.cpu_s": "s",
    "run.wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_fdfp():
    import fdfp
    import fdfp.harness

    if Path(fdfp.__file__).resolve().parent != SRC / "fdfp":
        raise ImportError(f"fdfp imported from {fdfp.__file__}, not from {SRC}")


def time_setup(args) -> tuple[float, float, float]:
    """Spawn a process that sets the workload up and time it until it reports
    ready: (wall seconds, reference-host seconds, its import time)."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = hostspeed.probe(PROBE_MIN_S)
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        finally:
            child.kill()
        if child.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    normalised = hostspeed.normalise(elapsed, before, hostspeed.probe(PROBE_MIN_S))
    return elapsed, normalised, float(line.split()[1])


class Rounds:
    """Whole rounds of a workload, timed one by one and checked after each.

    A host-speed probe brackets every round; `normalised` holds the round
    times in reference-host seconds.
    """

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.normalised: list[float] = []

    def run(self, seconds: float, after_round=None) -> None:
        import hostspeed

        deadline = time.perf_counter() + seconds
        probe = hostspeed.probe(PROBE_MIN_S)
        while True:
            if self.index > 0:
                self.workload.prepare(self.index)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            attempted, failed = self.workload.run_round()
            wall = time.perf_counter() - wall0
            self.cpus.append(time.process_time() - cpu0)
            after = hostspeed.probe(max(PROBE_MIN_S, PROBE_SHARE * wall))
            self.walls.append(wall)
            self.normalised.append(hostspeed.normalise(wall, probe, after))
            probe = after
            self.attempted += attempted
            self.failed += failed
            if after_round is not None:
                after_round()
            try:
                self.errors += self.workload.check()
            except Exception as exc:  # an unreadable output is a wrong output
                self.errors.append(f"round {self.index}: {exc!r}")
            self.index += 1
            if time.perf_counter() >= deadline:
                return


def end_to_end(args, workload) -> tuple[Rounds, dict]:
    workload.setup(OUT, args.seed)
    rounds = Rounds(workload)
    rounds.run(args.seconds)
    print(f"run wall median {statistics.median(rounds.walls):.4f} s over "
          f"{len(rounds.walls)} rounds", file=sys.stderr)
    return rounds, {"run_s": statistics.median(rounds.normalised)}


def per_layer(args, workload, import_s: float) -> tuple[Rounds, dict]:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup(OUT, args.seed)
    setup_end = tracer.mark()
    tracer.remove()

    rounds = Rounds(workload)
    rounds.run(args.seconds / 2)
    k = len(rounds.walls)
    output_bytes = []
    tracer.install()
    traced_start = tracer.mark()
    rounds.run(args.seconds / 2, after_round=lambda: output_bytes.append(workload.output_bytes()))
    tracer.remove()
    traced_end = tracer.mark()

    n = len(rounds.walls) - k
    calls0, secs0, counts0, self0 = tracer.totals(0, setup_end)
    calls1, secs1, counts1, self1 = tracer.totals(traced_start, traced_end)

    def calls(name):
        return calls0[name] + calls1[name] / n

    def secs(name):
        return secs0[name] + secs1[name] / n

    def count(name):
        return counts0[name] + counts1[name] / n

    steps = count("solver_fv.steps")
    iterations = count("solver_duhamel.iterations")
    metrics = {
        "solver_fv.solve.calls": calls("solver_fv.solve"),
        "solver_fv.solve.s": secs("solver_fv.solve"),
        "solver_fv.steps": steps,
        "solver_fv.us_per_step": secs("solver_fv.solve") / steps * 1e6 if steps else 0.0,
        "solver_fv.comparison_experiment.s": secs("solver_fv.comparison_experiment"),
        "solver_fv.comparison.steps": count("solver_fv.comparison.steps"),
        "solver_fv.max_stable_dt.calls": calls("solver_fv.max_stable_dt"),
        "functionals.potential.calls": calls("functionals.potential"),
        "functionals.potential.s": secs("functionals.potential"),
        "functionals.entropy_density.calls": calls("functionals.entropy_density"),
        "functionals.entropy_density.s": secs("functionals.entropy_density"),
        "functionals.upwind_mobility.s": secs("functionals.upwind_mobility"),
        "functionals.compute_diagnostics.calls": calls("functionals.compute_diagnostics"),
        "functionals.compute_diagnostics.s": secs("functionals.compute_diagnostics"),
        "equilibrium.beta_of_mass.calls": calls("equilibrium.beta_of_mass"),
        "equilibrium.beta_of_mass.s": secs("equilibrium.beta_of_mass"),
        "equilibrium.equilibrium_state.calls": calls("equilibrium.equilibrium_state"),
        "functionals.equilibrium_free_energy.s": secs("functionals.equilibrium_free_energy"),
        "mehler.apply_kernel_gradient_edges.calls": calls("mehler.apply_kernel_gradient_edges"),
        "mehler.apply_kernel_gradient_edges.s": secs("mehler.apply_kernel_gradient_edges"),
        "mehler.kernel_matrix_bytes": count("mehler.kernel_matrix_bytes"),
        "solver_duhamel.picard_solve.s": secs("solver_duhamel.picard_solve"),
        "solver_duhamel.iterations": iterations,
        "solver_duhamel.s_per_iteration":
            secs("solver_duhamel.picard_solve") / iterations if iterations else 0.0,
        "harness.parse_config.s": secs("harness.parse_config"),
        "setup.import_s": import_s,
        "harness.run_scenario.s": secs("harness.run_scenario"),
        "harness.self_s": self0 + self1 / n,
        "harness.output_bytes": statistics.fmean(output_bytes),
        "process.cpu_s": statistics.median(rounds.cpus[:k]),
        "run.wall_s": statistics.median(rounds.walls[:k]),
        "trace.overhead_s":
            statistics.median(rounds.normalised[k:]) - statistics.median(rounds.normalised[:k]),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fdfp" / "__init__.py").is_file():
        print(f"error: no fdfp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        start = time.perf_counter()
        import_fdfp()
        import_s = time.perf_counter() - start
        import workloads

        workloads.WORKLOADS[args.workload]().setup(OUT / "probe", args.seed)
        print(f"ready {import_s!r}", flush=True)
        return 0

    setups = [time_setup(args) for _ in range(SETUP_PROBES)]
    print(f"set-up wall median {statistics.median(s[0] for s in setups):.4f} s",
          file=sys.stderr)
    setup_s = statistics.median(s[1] for s in setups)
    import_s = statistics.median(s[2] for s in setups)
    import_fdfp()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()

    if args.trace:
        rounds, values = per_layer(args, workload, import_s)
        units = PER_LAYER_UNITS
    else:
        rounds, values = end_to_end(args, workload)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS

    for message in rounds.errors[:MAX_MESSAGES]:
        print(f"check failed: {message}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not rounds.errors, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
