"""Scenario runner: flat INI-style configs, CSV diagnostics, snapshot files.

A scenario is one grid + one initial condition + one solver, plus a list
of named verification experiments.  `run_scenario` writes

* diagnostics.csv  (columns: t,mass,energy,entropy,free_energy,dissipation,
  rel_entropy,l1_to_eq),
* snapshot files at the configured times,
* one report_<name>.csv per experiment (cross_check also writes the
  per-time table cross_check.csv),

and reports success only if every experiment assertion passed.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import solver_duhamel, solver_fv
from .equilibrium import equilibrium_state
from .functionals import check_entropy_control
from .grid import (
    BOUNDS_TOL,
    CARTESIAN_1D,
    RADIAL_ND,
    DistributionState,
    Grid,
    integrate,
    make_grid,
    uniform_grid,
)
from .mehler import SmoothingBoundSpec, kernel_bound_sweep
from .solver_duhamel import DuhamelParams
from .solver_fv import FvParams, decay_bound
from .trajectory import Trajectory

SNAPSHOT_MAGIC = "fdfp-snapshot v1"
DIAGNOSTIC_COLUMNS = ("t", "mass", "energy", "entropy", "free_energy",
                      "dissipation", "rel_entropy", "l1_to_eq")
EXPERIMENT_NAMES = ("run", "comparison", "decay_fit", "moment_propagation",
                    "kernel_bounds", "entropy_control", "cross_check")


class ConfigError(ValueError):
    """Validation failure; `errors` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass
class InitialSpec:
    kind: str
    options: dict = field(default_factory=dict)


@dataclass
class ExperimentSpec:
    name: str
    options: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    geometry: str
    dim: int
    extent: float
    cells: int
    initial: InitialSpec
    solver_kind: str
    solver_params: FvParams | DuhamelParams
    experiments: list[ExperimentSpec]
    output_dir: Path
    seed: int
    snapshot_times: tuple[float, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


_GRID_KEYS = {"geometry", "dim", "extent", "cells"}
_INITIAL_KEYS = {
    "fermi_dirac": {"mass"},
    "scaled_fermi_dirac": {"mass_star", "factor"},
    "indicator": {"lo", "hi", "height"},
    "gaussian_profile": {"mass", "sigma"},
    "from_snapshot": {"path"},
}
_SOLVER_KEYS = {
    "fv": {"t_final", "cfl_safety", "clamp_delta", "output_stride", "dt_override"},
    "duhamel": {"t_final", "time_nodes", "picard_tol", "picard_max_iter",
                "singular_quad_nodes"},
}
_RUN_KEYS = {"output_dir", "seed", "snapshot_times"}
_EXPERIMENT_KEYS = {
    "run": set(),
    "comparison": {"other_kind", "other_mass", "other_mass_star", "other_factor",
                   "other_lo", "other_hi", "other_height", "other_sigma", "other_path",
                   "t_final"},
    "decay_fit": {"window_lo", "window_hi", "mass_star"},
    "moment_propagation": {"order"},
    "kernel_bounds": {"p", "q", "m", "alpha", "times", "max_spread"},
    "entropy_control": {"eps", "n_random"},
    "cross_check": {"time_nodes", "picard_tol", "picard_max_iter",
                    "singular_quad_nodes", "tolerance"},
}

# What an experiment runs on, beyond its own keys: the FV stepper
# (comparison), the FV trajectory of a radial grid (moment_propagation),
# or the cartesian1d kernel operators (kernel_bounds, cross_check).
_EXPERIMENT_SOLVER = {"comparison": "fv", "moment_propagation": "fv"}
_EXPERIMENT_GEOMETRY = {"moment_propagation": RADIAL_ND, "kernel_bounds": CARTESIAN_1D,
                        "cross_check": CARTESIAN_1D}


class _SectionReader:
    """Typed key extraction from one config section, accumulating errors."""

    def __init__(self, name: str, data: dict, known: set, errors: list[str]):
        self.name = name
        self.data = dict(data)
        self.errors = errors
        for key in data:
            if key not in known:
                errors.append(f"[{self.name}] unknown key {key!r}{_suggest(key, known)}")

    def _get(self, key, conv, typename, default, required):
        if key not in self.data:
            if required:
                self.errors.append(f"[{self.name}] missing required key {key!r}")
            return default
        raw = self.data[key]
        try:
            return conv(raw)
        except (TypeError, ValueError):
            self.errors.append(f"[{self.name}] key {key!r}: cannot parse {raw!r} as {typename}")
            return default

    def str(self, key, default=None, required=False):
        return self._get(key, lambda s: s.strip(), "string", default, required)

    def float(self, key, default=None, required=False):
        return self._get(key, float, "a number", default, required)

    def int(self, key, default=None, required=False):
        def conv(s):
            v = float(s)
            if v != int(v):
                raise ValueError(s)
            return int(v)
        return self._get(key, conv, "an integer", default, required)

    def float_list(self, key, default=None, required=False):
        def conv(s):
            return tuple(float(tok) for tok in s.replace(",", " ").split())
        return self._get(key, conv, "a list of numbers", default, required)

    def str_list(self, key, default=None, required=False):
        def conv(s):
            return tuple(tok.strip() for tok in s.split(",") if tok.strip())
        return self._get(key, conv, "a list of names", default, required)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario; every error is reported at once."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    known_sections = {"grid", "initial", "solver", "run", "experiments"}
    experiment_sections = {f"experiment.{n}" for n in EXPERIMENT_NAMES}
    for section in parser.sections():
        if section not in known_sections and section not in experiment_sections:
            errors.append(
                f"unknown section [{section}]{_suggest(section, known_sections | experiment_sections)}"
            )
    for required in ("grid", "initial", "solver", "run"):
        if not parser.has_section(required):
            errors.append(f"missing required section [{required}]")
    if errors:
        raise ConfigError(errors)

    g = _SectionReader("grid", parser["grid"], _GRID_KEYS, errors)
    geometry = g.str("geometry", required=True)
    dim = g.int("dim", default=1)
    extent = g.float("extent", required=True)
    cells = g.int("cells", required=True)
    if geometry not in (CARTESIAN_1D, RADIAL_ND):
        errors.append(f"[grid] geometry must be {CARTESIAN_1D!r} or {RADIAL_ND!r}, got {geometry!r}")
    else:
        if geometry == CARTESIAN_1D and dim != 1:
            errors.append("[grid] cartesian1d requires dim = 1")
    if extent is not None and extent <= 0:
        errors.append("[grid] extent must be positive")
    if cells is not None and cells < 8:
        errors.append("[grid] at least 8 cells required")

    initial = _parse_initial(parser, errors)
    solver_kind, solver_params = _parse_solver(parser, errors)

    r = _SectionReader("run", parser["run"], _RUN_KEYS, errors)
    output_dir = r.str("output_dir", required=True)
    seed = r.int("seed", default=0)
    snapshot_times = r.float_list("snapshot_times", default=())

    experiments = _parse_experiments(parser, errors, initial)
    if solver_kind == "duhamel" and geometry == RADIAL_ND:
        errors.append("[solver] kind = duhamel uses the kernel operators, "
                      f"which need geometry = {CARTESIAN_1D}")
    for exp in experiments:
        needed = _EXPERIMENT_SOLVER.get(exp.name, solver_kind)
        if needed != solver_kind and solver_kind in _SOLVER_KEYS:
            errors.append(f"[experiments] {exp.name} needs [solver] kind = {needed}, "
                          f"got {solver_kind!r}")
        needed = _EXPERIMENT_GEOMETRY.get(exp.name, geometry)
        if needed != geometry and geometry in (CARTESIAN_1D, RADIAL_ND):
            errors.append(f"[experiments] {exp.name} needs [grid] geometry = {needed}, "
                          f"got {geometry!r}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        geometry=geometry, dim=dim, extent=extent, cells=cells,
        initial=initial, solver_kind=solver_kind, solver_params=solver_params,
        experiments=experiments, output_dir=Path(output_dir), seed=seed,
        snapshot_times=snapshot_times,
    )


def _parse_initial(parser, errors) -> InitialSpec:
    section = parser["initial"]
    kind = section.get("kind", "").strip()
    if kind not in _INITIAL_KEYS:
        errors.append(
            f"[initial] kind must be one of {sorted(_INITIAL_KEYS)}, got {kind!r}"
            f"{_suggest(kind, _INITIAL_KEYS)}"
        )
        return InitialSpec(kind="invalid")
    rd = _SectionReader("initial", {k: v for k, v in section.items() if k != "kind"},
                        _INITIAL_KEYS[kind], errors)
    opts: dict = {}
    if kind == "fermi_dirac":
        opts["mass"] = rd.float("mass", required=True)
        if opts["mass"] is not None and opts["mass"] <= 0:
            errors.append("[initial] mass must be positive")
    elif kind == "scaled_fermi_dirac":
        opts["mass_star"] = rd.float("mass_star", required=True)
        opts["factor"] = rd.float("factor", required=True)
        if opts["factor"] is not None and not 0 < opts["factor"] <= 1:
            errors.append("[initial] factor must lie in (0, 1]")
        if opts["mass_star"] is not None and opts["mass_star"] <= 0:
            errors.append("[initial] mass_star must be positive")
    elif kind == "indicator":
        opts["lo"] = rd.float("lo", required=True)
        opts["hi"] = rd.float("hi", required=True)
        opts["height"] = rd.float("height", required=True)
        if None not in (opts["lo"], opts["hi"]) and opts["lo"] >= opts["hi"]:
            errors.append("[initial] indicator needs lo < hi")
        if opts["height"] is not None and not 0 < opts["height"] <= 1:
            errors.append(
                "[initial] indicator height must lie in (0, 1]: "
                "the invariant region constrains densities to [0, 1]"
            )
    elif kind == "gaussian_profile":
        opts["mass"] = rd.float("mass", required=True)
        opts["sigma"] = rd.float("sigma", required=True)
        for key in ("mass", "sigma"):
            if opts[key] is not None and opts[key] <= 0:
                errors.append(f"[initial] {key} must be positive")
    elif kind == "from_snapshot":
        opts["path"] = rd.str("path", required=True)
    return InitialSpec(kind=kind, options=opts)


def _parse_solver(parser, errors):
    section = parser["solver"]
    kind = section.get("kind", "").strip()
    if kind not in _SOLVER_KEYS:
        errors.append(f"[solver] kind must be 'fv' or 'duhamel', got {kind!r}")
        return kind, None
    rd = _SectionReader("solver", {k: v for k, v in section.items() if k != "kind"},
                        _SOLVER_KEYS[kind], errors)
    try:
        if kind == "fv":
            params = FvParams(
                t_final=rd.float("t_final", required=True) or 1.0,
                cfl_safety=rd.float("cfl_safety", default=0.5),
                clamp_delta=rd.float("clamp_delta", default=1e-14),
                output_stride=rd.int("output_stride", default=100),
                dt_override=rd.float("dt_override", default=None),
            )
        else:
            params = DuhamelParams(
                t_final=rd.float("t_final", required=True) or 0.25,
                time_nodes=rd.int("time_nodes", default=16),
                picard_tol=rd.float("picard_tol", default=1e-8),
                picard_max_iter=rd.int("picard_max_iter", default=50),
                singular_quad_nodes=rd.int("singular_quad_nodes", default=32),
            )
    except ValueError as exc:
        errors.append(f"[solver] {exc}")
        params = None
    return kind, params


def _parse_experiments(parser, errors, initial: InitialSpec) -> list[ExperimentSpec]:
    if not parser.has_section("experiments"):
        return []
    rd = _SectionReader("experiments", parser["experiments"], {"names"}, errors)
    names = rd.str_list("names", default=())
    out = []
    for name in names:
        if name not in EXPERIMENT_NAMES:
            errors.append(
                f"[experiments] unknown experiment {name!r}{_suggest(name, EXPERIMENT_NAMES)}"
            )
            continue
        section = f"experiment.{name}"
        data = dict(parser[section]) if parser.has_section(section) else {}
        er = _SectionReader(section, data, _EXPERIMENT_KEYS[name], errors)
        opts: dict = {}
        if name == "comparison":
            opts["other"] = _comparison_initial(er, errors)
            opts["t_final"] = er.float("t_final", default=None)
        elif name == "decay_fit":
            opts["window_lo"] = er.float("window_lo", required=True)
            opts["window_hi"] = er.float("window_hi", required=True)
            opts["mass_star"] = er.float(
                "mass_star",
                default=initial.options.get("mass_star"),
                required=initial.kind != "scaled_fermi_dirac",
            )
        elif name == "moment_propagation":
            opts["order"] = er.int("order", default=4)
        elif name == "kernel_bounds":
            opts["p"] = er.str_list("p", default=("1", "2", "inf"))
            opts["q"] = er.str_list("q", default=("1", "2", "inf"))
            opts["m"] = er.float_list("m", default=(0.0, 1.0))
            opts["alpha"] = er.float_list("alpha", default=(0.0, 1.0))
            opts["times"] = er.float_list("times", default=(0.01, 0.1, 1.0, 2.0))
            opts["max_spread"] = er.float("max_spread", default=10.0)
        elif name == "entropy_control":
            opts["eps"] = er.float("eps", default=0.5)
            opts["n_random"] = er.int("n_random", default=100)
            if opts["eps"] is not None and not 0 < opts["eps"] < 1:
                errors.append(f"[{section}] eps must lie in (0, 1)")
        elif name == "cross_check":
            opts["time_nodes"] = er.int("time_nodes", default=16)
            opts["picard_tol"] = er.float("picard_tol", default=1e-8)
            opts["picard_max_iter"] = er.int("picard_max_iter", default=50)
            opts["singular_quad_nodes"] = er.int("singular_quad_nodes", default=32)
            opts["tolerance"] = er.float("tolerance", default=1e-2)
        out.append(ExperimentSpec(name=name, options=opts))
    return out


def _comparison_initial(er: _SectionReader, errors) -> InitialSpec:
    kind = er.str("other_kind", required=True) or "invalid"
    opts: dict = {}
    if kind == "fermi_dirac":
        opts["mass"] = er.float("other_mass", required=True)
    elif kind == "scaled_fermi_dirac":
        opts["mass_star"] = er.float("other_mass_star", required=True)
        opts["factor"] = er.float("other_factor", default=1.0)
    elif kind == "indicator":
        opts["lo"] = er.float("other_lo", required=True)
        opts["hi"] = er.float("other_hi", required=True)
        opts["height"] = er.float("other_height", required=True)
    elif kind == "gaussian_profile":
        opts["mass"] = er.float("other_mass", required=True)
        opts["sigma"] = er.float("other_sigma", required=True)
    elif kind == "from_snapshot":
        opts["path"] = er.str("other_path", required=True)
    else:
        errors.append(f"[experiment.comparison] unknown other_kind {kind!r}")
    return InitialSpec(kind=kind, options=opts)


def build_grid(config: ScenarioConfig) -> Grid:
    return make_grid(config.geometry, config.dim, config.extent, config.cells)


def build_initial(spec: InitialSpec, grid: Grid) -> DistributionState:
    """Materialize an initial condition on the grid."""
    kind, opts = spec.kind, spec.options
    if kind == "fermi_dirac":
        return equilibrium_state(opts["mass"], grid)
    if kind == "scaled_fermi_dirac":
        base = equilibrium_state(opts["mass_star"], grid)
        return DistributionState(grid, opts["factor"] * base.values)
    if kind == "indicator":
        values = np.where((grid.node >= opts["lo"]) & (grid.node <= opts["hi"]),
                          opts["height"], 0.0)
        return DistributionState(grid, values)
    if kind == "gaussian_profile":
        sigma, mass = opts["sigma"], opts["mass"]
        norm = mass / ((2 * math.pi * sigma ** 2) ** (grid.dim / 2))
        values = np.minimum(1.0, norm * np.exp(-grid.speed ** 2 / (2 * sigma ** 2)))
        return DistributionState(grid, values)
    if kind == "from_snapshot":
        state, _ = read_snapshot(opts["path"])
        if not state.grid.matches(grid):
            raise ValueError("snapshot grid does not match the scenario grid")
        return state
    raise ValueError(f"unknown initial kind {kind!r}")


# ---------------------------------------------------------------------------
# snapshots

def write_snapshot(state: DistributionState, path, time: float = 0.0) -> None:
    """Text snapshot with 17-significant-digit decimals (lossless round trip)."""
    grid = state.grid
    lines = [SNAPSHOT_MAGIC,
             f"{grid.geometry},{grid.dim},{grid.cells},{_fmt(grid.extent)},{_fmt(time)}"]
    lines += [f"{_fmt(n)},{_fmt(v)}" for n, v in zip(grid.node, state.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot(path) -> tuple[DistributionState, float]:
    """Parse a snapshot file back into a state (plus its time stamp)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC!r} file")
    if len(lines) < 2:
        raise ValueError(f"{path}: missing header line")
    head = lines[1].split(",")
    if len(head) != 5:
        raise ValueError(f"{path}: header must be geometry,dim,cells,extent,time")
    geometry = head[0].strip()
    try:
        dim, cells = int(head[1]), int(head[2])
        extent, time = float(head[3]), float(head[4])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    try:
        grid = uniform_grid(geometry, dim, extent, cells)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid header: {exc}") from exc
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) != cells:
        raise ValueError(f"{path}: expected {cells} data rows, found {len(rows)}")
    values = np.empty(cells)
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: row {i + 3}: expected 'node,value'")
        try:
            node, val = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 3}: {exc}") from exc
        if node != grid.node[i]:
            raise ValueError(f"{path}: row {i + 3}: node {node!r} does not match the mesh")
        if val < -BOUNDS_TOL or val > 1.0 + BOUNDS_TOL:
            raise ValueError(f"{path}: row {i + 3}: value {val!r} outside [0, 1]")
        values[i] = val
    return DistributionState(grid, values), time


def snapshot_info(path) -> dict:
    state, time = read_snapshot(path)
    grid = state.grid
    return {
        "geometry": grid.geometry,
        "dim": grid.dim,
        "cells": grid.cells,
        "extent": grid.extent,
        "time": time,
        "mass": integrate(state),
        "min_value": float(state.values.min()),
        "max_value": float(state.values.max()),
    }


# ---------------------------------------------------------------------------
# scenario execution

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_diagnostics(path: Path, traj: Trajectory) -> None:
    rows = [[row.time, row.mass, row.energy, row.entropy, row.free_energy,
             row.dissipation, row.rel_entropy, row.l1_to_eq]
            for row in traj.diagnostics]
    _write_csv(path, list(DIAGNOSTIC_COLUMNS), rows)


def run_scenario(config: ScenarioConfig) -> int:
    """Execute a scenario.  Returns 0 if every experiment assertion passed, 1 otherwise."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = build_grid(config)
    f0 = build_initial(config.initial, grid)

    if config.solver_kind == "fv":
        traj = solver_fv.solve(f0, config.solver_params)
    else:
        traj = solver_duhamel.picard_solve(f0, config.solver_params)

    _write_diagnostics(out / "diagnostics.csv", traj)
    for idx, t_req in enumerate(config.snapshot_times):
        k = int(np.argmin(np.abs(traj.times - t_req)))
        write_snapshot(traj.states[k], out / f"snapshot_{idx:03d}.txt",
                       time=float(traj.times[k]))

    all_passed = True
    for exp in config.experiments:
        passed = _run_experiment(exp, config, grid, f0, traj, out)
        all_passed = all_passed and passed
    return 0 if all_passed else 1


def _run_experiment(exp: ExperimentSpec, config: ScenarioConfig, grid: Grid,
                    f0: DistributionState, traj: Trajectory, out: Path) -> bool:
    name, opts = exp.name, exp.options
    report_path = out / f"report_{name}.csv"

    if name == "run":
        meta = traj.meta
        if meta.get("solver") == "duhamel":
            # the integral form only bounds the invariant-region violation,
            # and its guarantees live on the output rows rather than per step
            lo = min(float(s.values.min()) for s in traj.states)
            hi = max(float(s.values.max()) for s in traj.states)
            mass0 = traj.diagnostics[0].mass
            drift = float(np.max(np.abs(traj.column("mass") - mass0)) / abs(mass0))
            h_rise = float(np.max(np.diff(traj.column("free_energy")), initial=0.0))
            checks = [
                ("mass_drift_rel", drift, 1e-6),
                ("below_zero", max(0.0, -lo), 1e-6),
                ("above_one", max(0.0, hi - 1.0), 1e-6),
                ("free_energy_rise", h_rise, 1e-6),
            ]
        else:
            checks = [
                ("mass_drift_rel", meta["max_mass_drift_rel"], 1e-12),
                ("below_zero", max(0.0, -meta["min_value"]), 0.0),
                ("above_one", max(0.0, meta["max_value"] - 1.0), 0.0),
                ("free_energy_rise", meta["max_free_energy_rise"], 1e-10),
            ]
        passed = all(value <= tol for _, value, tol in checks)
        _write_csv(report_path, ["check", "value", "tolerance", "pass"],
                   [[c, float(v), float(tol), str(v <= tol)] for c, v, tol in checks])
        return passed

    if name == "comparison":
        g0 = build_initial(opts["other"], grid)
        params = config.solver_params
        if opts.get("t_final"):
            params = FvParams(t_final=opts["t_final"], cfl_safety=params.cfl_safety,
                              clamp_delta=params.clamp_delta,
                              output_stride=params.output_stride)
        rep = solver_fv.comparison_experiment(f0, g0, params)
        passed = rep.max_positive_part <= 1e-10 and rep.max_contraction_slack <= 1e-9
        _write_csv(report_path, ["metric", "value"],
                   [["max_positive_part", rep.max_positive_part],
                    ["max_contraction_slack", rep.max_contraction_slack],
                    ["steps", rep.steps],
                    ["pass", str(passed)]])
        return passed

    if name == "decay_fit":
        bound = decay_bound(integrate(f0), opts["mass_star"], grid.dim)
        rep = solver_fv.decay_rate_fit(traj, bound, (opts["window_lo"], opts["window_hi"]))
        if rep.at_equilibrium:
            _write_csv(report_path, ["metric", "value"],
                       [["at_equilibrium", "True"], ["pass", "True"]])
            return True
        passed = rep.bound_satisfied and rep.slope <= rep.rate_bound
        _write_csv(report_path, ["metric", "value"],
                   [["slope", rep.slope], ["rate_bound", rep.rate_bound],
                    ["bound_satisfied", str(rep.bound_satisfied)],
                    ["n_points", rep.n_points], ["pass", str(passed)]])
        return passed

    if name == "moment_propagation":
        rep = solver_fv.radial_moment_propagation(traj, order=opts["order"])
        passed = rep.spread <= 0.02 and rep.monotone_preserved
        rows = [["order", float(rep.order)], ["spread", rep.spread],
                ["sup_tail", rep.sup_tail],
                ["monotone_preserved", str(rep.monotone_preserved)]]
        rows += [[f"sup_moment_t{hz:g}", s] for hz, s in zip(rep.horizons, rep.sup_moment)]
        rows.append(["pass", str(passed)])
        _write_csv(report_path, ["metric", "value"], rows)
        return passed

    if name == "kernel_bounds":
        def parse_p(tok: str) -> float:
            return math.inf if tok.lower() == "inf" else float(tok)

        specs = []
        for p in (parse_p(tok) for tok in opts["p"]):
            for q in (parse_p(tok) for tok in opts["q"]):
                if q > p:
                    continue
                for m in opts["m"]:
                    for alpha in opts["alpha"]:
                        specs.append(SmoothingBoundSpec(p=p, q=q, m=m,
                                                       alpha_order=int(alpha), dim=grid.dim))
        cases = kernel_bound_sweep(grid, specs, opts["times"])
        rows = []
        passed = True
        for case in cases:
            ok = case.spread <= opts["max_spread"] and math.isfinite(case.max_ratio)
            passed = passed and ok
            rows.append([f"p={case.spec.p:g}", f"q={case.spec.q:g}", case.spec.m,
                         float(case.spec.alpha_order), case.max_ratio, case.spread, str(ok)])
        rows.append(["pass", "", 0.0, 0.0, 0.0, 0.0, str(passed)])
        _write_csv(report_path,
                   ["p", "q", "m", "alpha", "max_ratio", "spread", "pass"], rows)
        return passed

    if name == "entropy_control":
        eps = opts["eps"]
        rng = np.random.default_rng(config.seed)
        states = list(traj.states)
        for _ in range(opts["n_random"]):
            states.append(DistributionState(grid, rng.uniform(0.0, 1.0, grid.cells)))
        worst = -math.inf
        ok = True
        for st in states:
            rep = check_entropy_control(st, eps)
            worst = max(worst, rep.max_pointwise_violation)
            ok = ok and rep.pointwise_holds and rep.integrated_holds
        _write_csv(report_path, ["metric", "value"],
                   [["eps", eps], ["max_pointwise_violation", worst],
                    ["states_checked", len(states)], ["pass", str(ok)]])
        return ok

    if name == "cross_check":
        du = DuhamelParams(
            t_final=min(config.solver_params.t_final, 1.0)
            if config.solver_kind == "fv" else config.solver_params.t_final,
            time_nodes=opts["time_nodes"], picard_tol=opts["picard_tol"],
            picard_max_iter=opts["picard_max_iter"],
            singular_quad_nodes=opts["singular_quad_nodes"],
        )
        du_traj = solver_duhamel.picard_solve(f0, du)
        fv_params = config.solver_params if config.solver_kind == "fv" else \
            FvParams(t_final=du.t_final)
        fv_vals = solver_fv.values_at(f0, du_traj.times[1:], fv_params)
        rows = []
        max_l1 = 0.0
        for t, du_state, fvv in zip(du_traj.times[1:], du_traj.states[1:], fv_vals):
            d = float(np.dot(grid.qweight, np.abs(du_state.values - fvv)))
            max_l1 = max(max_l1, d)
            rows.append([float(t), d])
        _write_csv(out / "cross_check.csv", ["t", "l1_difference"], rows)
        passed = max_l1 <= opts["tolerance"]
        _write_csv(report_path, ["metric", "value"],
                   [["max_l1_difference", max_l1],
                    ["tolerance", opts["tolerance"]], ["pass", str(passed)]])
        return passed

    raise ValueError(f"unknown experiment {name!r}")
