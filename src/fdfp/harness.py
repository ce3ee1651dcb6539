"""Scenario runner: flat INI-style configs, CSV diagnostics, snapshot files.

A scenario is one grid + one initial condition + one FV solve, plus a
list of named verification experiments.  `run_scenario` writes

* diagnostics.csv  (columns: DIAGNOSTIC_COLUMNS, the time and each diagnostics column),
* snapshot files at the configured times,
* one report_<name>.csv per experiment (cross_check also writes the
  per-time table cross_check.csv),

and reports success only if every experiment assertion passed.

Each initial kind is one entry of `_INITIAL_KINDS` (its keys and the
function that builds the state) and each experiment one entry of
`_EXPERIMENTS` (its keys and the functions that prepare and run it).
`parse_config` builds a scenario once: the mesh, the initial state, the
solver parameters and each experiment's validated objects, reporting the
errors of their constructors; an experiment's `prepare` applies the
library's own rules, the grid geometry it needs among them.  `run_scenario`
runs what it built, so a config it accepts is one `run_scenario` can execute.
The frozen `ScenarioConfig` holds each value once (its mesh is `f0.grid`)
and is immutable all the way down: frozen specs, read-only options, a
tuple of experiments.  Integer keys take integral numbers (16 or 16.0).
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import solver_duhamel, solver_fv
from .equilibrium import discrete_equilibrium, equilibrium_state
from .functionals import DIAGNOSTICS, check_entropy_control
from .grid import BOUNDS_TOL, DistributionState, Grid, as_integer, integrate, make_grid
from .mehler import BOUND_TIMES, kernel_bound_sweep, require_cartesian
from .solver_duhamel import CROSS_CHECK_TOL, DuhamelParams
from .solver_fv import FvParams
from .trajectory import Trajectory

SNAPSHOT_MAGIC = "fdfp-snapshot v1"
DIAGNOSTIC_COLUMNS = ("t", *DIAGNOSTICS)


class ConfigError(ValueError):
    """Validation failure; `errors` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    options: Mapping   # read-only once parsed


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment; `options` holds its keys and the validated
    objects `parse_config` builds from them for `run_scenario`, read-only."""

    name: str
    options: Mapping


@dataclass(frozen=True)
class ScenarioConfig:
    initial: InitialSpec
    f0: DistributionState   # the validated initial state; f0.grid is the mesh
    solver_params: FvParams
    experiments: tuple[ExperimentSpec, ...]
    output_dir: Path
    seed: int
    snapshot_times: tuple[float, ...]

    geometry = property(lambda self: self.f0.grid.geometry)
    dim = property(lambda self: self.f0.grid.dim)
    extent = property(lambda self: self.f0.grid.extent)
    cells = property(lambda self: self.f0.grid.cells)

    @property
    def output_times(self) -> tuple[float, ...]:
        """The times the FV march lands on, sorted: the snapshot times but 0
        and the experiments' `output_times`."""
        return tuple(sorted({*self.snapshot_times, *(
            t for exp in self.experiments for t in exp.options.get("output_times", ()))} - {0.0}))


# The one float format of every file a run writes: 17 significant digits,
# so that a float reads back bit for bit
_FLOAT_FORMAT = "%.17g"


def _write_csv(path: Path, header, rows, text: str = "") -> None:
    """The one text writer of a run: the header, one comma-separated line
    per row, then `text`, lines already formatted by the same rule; the
    file is written as one string.  A row is one % operation: a float
    (numpy's float64 included) takes `_FLOAT_FORMAT`, anything else "%s"."""
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        lines.append(",".join([_FLOAT_FORMAT if isinstance(x, float) else "%s" for x in row]) % row)
    lines.append(text)
    path.write_text("\n".join(lines))


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


# ---------------------------------------------------------------------------
# config keys

# value types: (parser raising ValueError or OverflowError, name for messages)
_STR = (str.strip, "a string")
_FLOAT = (float, "a number")
_INT = (lambda s: as_integer(float(s), s), "an integer")
_FLOATS = (lambda s: tuple(float(tok) for tok in s.replace(",", " ").split()),
           "a list of numbers")
_NAMES = (lambda s: tuple(tok.strip() for tok in s.split(",") if tok.strip()), "a list of names")

# value ranges: (predicate, what it demands)
_POSITIVE = (lambda x: x > 0, "must be positive")
_NONNEGATIVE = (lambda x: x >= 0, "must be >= 0")


class _Key(NamedTuple):
    """One config key: its type, whether it is required, its default
    (MISSING: left to the parameter dataclass it is passed to) and the
    range its value must lie in."""

    type: tuple
    required: bool = False
    default: object = MISSING
    rule: tuple | None = None


def _params_keys(params_class, skip: str = "") -> dict[str, _Key]:
    """The keys of a parameter dataclass's fields; their defaults and
    ranges stay with the dataclass."""
    return {f.name: _Key(_INT if f.type in (int, "int") else _FLOAT,
                         required=f.default is MISSING)
            for f in fields(params_class) if f.name != skip}


def _read(where: str, data, keys: dict[str, _Key], errors: list[str],
          prefix: str = "", also=()) -> dict | None:
    """The values of `keys`, each named `prefix + key` in the section data,
    parsed and range-checked; problems go to `errors`, and then the result
    is None.  A section key that is neither one of these nor in `also` is
    an error."""
    count = len(errors)
    known = {prefix + name for name in keys} | set(also)
    for label in data:
        if label not in known:
            errors.append(f"[{where}] unknown key {label!r}{_suggest(label, known)}")
    out = {}
    for name, key in keys.items():
        label = prefix + name
        if label not in data:
            if key.required:
                errors.append(f"[{where}] missing required key {label!r}")
            elif key.default is not MISSING:
                out[name] = key.default
            continue
        raw, (parse, typename) = data[label], key.type
        try:
            value = parse(raw)
        except (ValueError, OverflowError):
            errors.append(f"[{where}] key {label!r}: cannot parse {raw!r} as {typename}")
            continue
        if key.rule is not None and not key.rule[0](value):
            errors.append(f"[{where}] {label} {key.rule[1]}")
        out[name] = value
    return out if len(errors) == count else None


def _build(where: str, errors: list[str], make, *args):
    """make(*args), or None if an argument is None or make raises; the
    error then goes to `errors`."""
    if any(arg is None for arg in args):
        return None
    try:
        return make(*args)
    except (MemoryError, OSError, RuntimeError, ValueError) as exc:
        errors.append(f"[{where}] {exc}")
        return None


_GRID_KEYS = {"geometry": _Key(_STR, required=True), "dim": _Key(_INT, default=1),
              "extent": _Key(_FLOAT, required=True), "cells": _Key(_INT, required=True)}
# an empty output_dir would write the outputs into the working directory
_RUN_KEYS = {"output_dir": _Key(_STR, required=True, rule=(bool, "must not be empty")),
             "seed": _Key(_INT, default=0, rule=_NONNEGATIVE),
             "snapshot_times": _Key(_FLOATS, default=())}


# ---------------------------------------------------------------------------
# initial data

class _InitialKind(NamedTuple):
    keys: dict[str, _Key]
    build: Callable[[Mapping, Grid], DistributionState]   # raises ValueError or OSError


def _scaled_fermi_dirac(opts: Mapping, grid: Grid) -> DistributionState:
    base = equilibrium_state(opts["mass_star"], grid)
    return DistributionState(grid, opts["factor"] * base.values)


def _indicator(opts: Mapping, grid: Grid) -> DistributionState:
    if not opts["lo"] < opts["hi"]:
        raise ValueError("indicator needs lo < hi")
    values = np.where((grid.node >= opts["lo"]) & (grid.node <= opts["hi"]),
                      opts["height"], 0.0)
    return DistributionState(grid, values)


def _gaussian_profile(opts: Mapping, grid: Grid) -> DistributionState:
    sigma, mass = opts["sigma"], opts["mass"]
    norm = mass / ((2 * math.pi * sigma ** 2) ** (grid.dim / 2))
    values = np.minimum(1.0, norm * np.exp(-grid.speed ** 2 / (2 * sigma ** 2)))
    return DistributionState(grid, values)


def _from_snapshot(opts: Mapping, grid: Grid) -> DistributionState:
    state, _ = read_snapshot(opts["path"])
    if state.grid != grid:
        raise ValueError(f"{opts['path']}: snapshot grid does not match the scenario grid")
    return state


_NUMBER = _Key(_FLOAT, required=True)
_POSITIVE_NUMBER = _Key(_FLOAT, required=True, rule=_POSITIVE)
_INITIAL_KINDS = {
    "scaled_fermi_dirac": _InitialKind(
        {"mass_star": _POSITIVE_NUMBER,
         "factor": _Key(_FLOAT, required=True, rule=(lambda x: 0 < x <= 1, "must lie in (0, 1]"))},
        _scaled_fermi_dirac),
    "indicator": _InitialKind(
        {"lo": _NUMBER, "hi": _NUMBER,
         "height": _Key(_FLOAT, required=True, rule=(
             lambda x: 0 < x <= 1,
             "must lie in (0, 1]: the invariant region constrains densities to [0, 1]"))},
        _indicator),
    "gaussian_profile": _InitialKind(
        {"mass": _POSITIVE_NUMBER, "sigma": _POSITIVE_NUMBER}, _gaussian_profile),
    "from_snapshot": _InitialKind({"path": _Key(_STR, required=True)}, _from_snapshot),
}


def _parse_initial(where: str, data, errors: list[str], prefix: str = "") -> InitialSpec | None:
    """The initial condition named by the section's `prefix + "kind"` key;
    the section holds no other keys."""
    kind = data.get(prefix + "kind", "").strip()
    entry = _INITIAL_KINDS.get(kind)
    if entry is None:
        errors.append(f"[{where}] {prefix}kind must be one of {sorted(_INITIAL_KINDS)}, "
                      f"got {kind!r}{_suggest(kind, _INITIAL_KINDS)}")
        return None
    opts = _read(where, data, entry.keys, errors, prefix, also={prefix + "kind"})
    return None if opts is None else InitialSpec(kind, MappingProxyType(opts))


def build_grid(config: ScenarioConfig) -> Grid:
    return config.f0.grid


def build_initial(spec: InitialSpec, grid: Grid) -> DistributionState:
    """Materialize an initial condition on the grid."""
    return _INITIAL_KINDS[spec.kind].build(spec.options, grid)


# ---------------------------------------------------------------------------
# experiments

class _Experiment(NamedTuple):
    # (options, config, trajectory, output directory) -> (report rows, passed)
    run: Callable[[Mapping, ScenarioConfig, Trajectory, Path], tuple[list, bool]]
    keys: dict[str, _Key] = {}                    # its [experiment.<name>] keys
    # (options, f0, initial spec, solver params): builds into the options dict,
    # before it is frozen, the validated objects `run` uses; raises ValueError
    prepare: Callable | None = None
    other_initial: bool = False                   # its section holds a second initial condition
    columns: tuple[str, ...] = ("metric", "value")   # of its report


def _run_run(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    run = traj.meta
    return [[name, value, bound, value <= bound] for name, value, bound in run.checks()], run.holds


def _prepare_comparison(opts: dict, f0: DistributionState, initial: InitialSpec,
                        params: FvParams) -> None:
    opts["g0"] = build_initial(opts["other"], f0.grid)
    solver_fv.require_ordered_pair(f0, opts["g0"])


def _run_comparison(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    rep = solver_fv.comparison_experiment(config.f0, opts["g0"], config.solver_params)
    return [["max_positive_part", rep.max_positive_part],
            ["max_contraction_slack", rep.max_contraction_slack],
            ["steps", rep.steps],
            ["pass", rep.holds]], rep.holds


def _prepare_decay_fit(opts: dict, f0: DistributionState, initial: InitialSpec,
                       params: FvParams) -> None:
    # the rate holds for f0 <= F_{M*}, which factor * F_{M*} is by construction
    if initial.kind != "scaled_fermi_dirac":
        raise ValueError("decay_fit needs [initial] kind = scaled_fermi_dirac: its rate "
                         "holds for f0 <= F_{M*}, with M* the initial mass_star")
    lo, hi = opts["window_lo"], opts["window_hi"]
    if not 0 <= lo < hi <= params.t_final:
        raise ValueError("the fit window needs 0 <= window_lo < window_hi <= [solver] t_final")
    # the FIT_ROWS window times, (hi - lo) / 7 apart, are distinct floats, each
    # gap hundreds of ulps wide, so the fit has its rows
    relative_floor = 1e-12 * hi
    # np.polyfit divides the times by their 2-norm, whose square underflows below this
    absolute_floor = np.finfo(float).smallest_normal ** 0.5
    if hi - lo < max(relative_floor, absolute_floor):
        raise ValueError("the fit window is too narrow: window_hi - window_lo must be at least "
                         f"1e-12 * window_hi and {absolute_floor:.3g}")
    opts["rate_constant"] = solver_fv.rate_constant(initial.options["mass_star"], f0.grid.dim)
    # the scenario's FV solve lands rows here whatever its stride (`ScenarioConfig.output_times`)
    opts["output_times"] = tuple(np.linspace(lo, hi, solver_fv.FIT_ROWS).tolist())


def _run_decay_fit(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    rep = solver_fv.decay_rate_fit(traj.times, traj.column("rel_entropy"), opts["rate_constant"],
                                   (opts["window_lo"], opts["window_hi"]))
    rows = [["at_equilibrium", True]] if rep.at_equilibrium else [
        ["slope", rep.slope], ["rate_bound", rep.rate_bound],
        ["bound_satisfied", rep.bound_satisfied], ["n_points", rep.n_points]]
    return rows + [["pass", rep.holds]], rep.holds


def _run_moment_propagation(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    rep = solver_fv.radial_moment_propagation(traj, order=opts["order"])
    rows = [["order", rep.order], ["spread", rep.spread], ["sup_tail", rep.sup_tail],
            ["monotone_preserved", rep.monotone_preserved]]
    rows += [[f"sup_moment_t{hz:g}", s] for hz, s in zip(rep.horizons, rep.sup_moment)]
    rows.append(["pass", rep.holds])
    return rows, rep.holds


_KERNEL_BOUNDS_COLUMNS = ("p", "q", "m", "alpha", *(f"t={t:g}" for t in BOUND_TIMES),
                          "max_ratio", "spread", "pass")


def _run_kernel_bounds(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    cases = kernel_bound_sweep(traj.grid)
    passed = all(case.holds for case in cases)
    rows = [[f"p={case.spec.p:g}", f"q={case.spec.q:g}", case.spec.m, case.spec.alpha_order,
             *case.envelope, case.max_ratio, case.spread, case.holds] for case in cases]
    return rows + [["pass", "", *[0.0] * (len(_KERNEL_BOUNDS_COLUMNS) - 3), passed]], passed


_ENTROPY_EPS = 0.5      # in (0, 1)
_RANDOM_STATES = 100    # checked besides the trajectory's, drawn from [run] seed


def _run_entropy_control(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    grid = traj.grid
    rng = np.random.default_rng(config.seed)
    states = [*traj.states, *(DistributionState(grid, rng.uniform(0.0, 1.0, grid.cells))
                              for _ in range(_RANDOM_STATES))]
    reports = [check_entropy_control(st, _ENTROPY_EPS) for st in states]
    worst = max(rep.max_pointwise_violation for rep in reports)
    ok = all(rep.holds for rep in reports)
    return [["eps", _ENTROPY_EPS], ["max_pointwise_violation", worst],
            ["states_checked", len(states)], ["pass", ok]], ok


def _prepare_cross_check(opts: dict, f0: DistributionState, initial: InitialSpec,
                         params: FvParams) -> None:
    require_cartesian(f0.grid)   # the Picard oracle runs on the kernel operators
    # the Picard oracle covers at most the first time unit, since its
    # construction is local in time (DuhamelParams allows t_final <= 1)
    du = DuhamelParams(t_final=min(params.t_final, 1.0),
                       **{k: v for k, v in opts.items() if k != "tolerance"})
    # the scenario's FV solve records a row at each Picard node
    opts.update(params=du, output_times=tuple(du.time_grid()[1:].tolist()))


def _run_cross_check(opts: Mapping, config: ScenarioConfig, traj: Trajectory, out: Path):
    f0 = traj.states[0]
    du_traj = solver_duhamel.picard_solve(f0, opts["params"])
    gaps = solver_duhamel.node_gaps(du_traj, traj)   # the FV solve has a row at each node
    _write_csv(out / "cross_check.csv", ["t", "l1_difference"],
               zip(du_traj.times[1:].tolist(), gaps.tolist()))
    max_l1 = gaps.max()
    passed = max_l1 <= opts["tolerance"]
    return [["max_l1_difference", max_l1],
            ["tolerance", opts["tolerance"]], ["pass", passed]], passed


_EXPERIMENTS = {
    "run": _Experiment(_run_run, columns=("check", "value", "tolerance", "pass")),
    "comparison": _Experiment(_run_comparison, prepare=_prepare_comparison, other_initial=True),
    "decay_fit": _Experiment(_run_decay_fit, {"window_lo": _NUMBER, "window_hi": _NUMBER},
                             _prepare_decay_fit),
    "moment_propagation": _Experiment(
        _run_moment_propagation, {"order": _Key(_INT, default=4)},
        lambda opts, f0, *_: solver_fv.require_moment_data(f0, opts["order"])),
    "kernel_bounds": _Experiment(
        _run_kernel_bounds, prepare=lambda opts, f0, *_: require_cartesian(f0.grid),
        columns=_KERNEL_BOUNDS_COLUMNS),
    "entropy_control": _Experiment(_run_entropy_control),
    "cross_check": _Experiment(
        _run_cross_check,
        {**_params_keys(DuhamelParams, skip="t_final"),
         # a config may tighten the gate, not loosen it
         "tolerance": _Key(_FLOAT, default=CROSS_CHECK_TOL, rule=(
             lambda x: 0 < x <= CROSS_CHECK_TOL, f"must lie in (0, {CROSS_CHECK_TOL:g}]"))},
        _prepare_cross_check),
}


# ---------------------------------------------------------------------------
# parsing

def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario; every error is reported at once.

    Besides each key's type and range, this builds the grid, the initial
    state, the solver parameters and each experiment's parameters that
    `run_scenario` runs, and reports their constructors' errors; if there
    are none, it checks the times the march lands on (`output_times`).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    known_sections = {"grid", "initial", "solver", "run", "experiments"}
    known_sections |= {f"experiment.{name}" for name in _EXPERIMENTS}
    for section in parser.sections():
        if section not in known_sections:
            errors.append(f"unknown section [{section}]{_suggest(section, known_sections)}")
    for required in ("grid", "initial", "solver", "run"):
        if not parser.has_section(required):
            errors.append(f"missing required section [{required}]")
    if errors:
        raise ConfigError(errors)

    # make_grid derives the cell measures, so a mesh too large to allocate is a [grid] error
    grid = _build("grid", errors, lambda opts: make_grid(**opts),
                  _read("grid", parser["grid"], _GRID_KEYS, errors))
    initial = _parse_initial("initial", parser["initial"], errors)
    f0 = _build("initial", errors, build_initial, initial, grid)
    if f0 is not None and not integrate(f0) > 0:
        errors.append("[initial] the initial state has no mass on this grid")
        f0 = None
    # the diagnostics measure each row against F_h, the discrete equilibrium of f0's mass
    if f0 is not None and not _build("initial", errors, discrete_equilibrium, integrate(f0), grid):
        f0 = None

    solver_kind = parser["solver"].get("kind", "").strip()
    solver_params = None
    if solver_kind != "fv":
        errors.append(f"[solver] kind must be one of ['fv'], got {solver_kind!r}")
    else:
        solver_params = _build("solver", errors, lambda opts: FvParams(**opts),
                               _read("solver", parser["solver"], _params_keys(FvParams),
                                     errors, also={"kind"}))

    run = _read("run", parser["run"], _RUN_KEYS, errors)
    experiments = []
    section = parser["experiments"] if parser.has_section("experiments") else {}
    listed = _read("experiments", section, {"names": _Key(_NAMES, default=())}, errors)
    names = listed["names"] if listed else ()
    for name in _EXPERIMENTS:   # each listed experiment runs once and owns its section
        if listed and name not in names and parser.has_section(f"experiment.{name}"):
            errors.append(f"[experiment.{name}] {name} is not listed in [experiments] names")
    for i, name in enumerate(names):
        exp = _EXPERIMENTS.get(name)
        if exp is None:
            errors.append(f"[experiments] unknown experiment {name!r}"
                          f"{_suggest(name, _EXPERIMENTS)}")
            continue
        if name in names[:i]:
            errors.append(f"[experiments] {name} is listed more than once")
            continue
        count = len(errors)
        where = f"experiment.{name}"
        data = parser[where] if parser.has_section(where) else {}
        if exp.other_initial:   # the section holds only the other_* keys
            opts = {"other": _parse_initial(where, data, errors, "other_")}
        else:
            opts = _read(where, data, exp.keys, errors)
        if exp.prepare is not None and len(errors) == count:
            _build(where, errors, exp.prepare, opts, f0, initial, solver_params)
        experiments.append(ExperimentSpec(name, MappingProxyType(opts or {})))

    if errors:
        raise ConfigError(errors)
    config = ScenarioConfig(
        initial=initial, f0=f0, solver_params=solver_params, experiments=tuple(experiments),
        output_dir=Path(run["output_dir"]), seed=run["seed"], snapshot_times=run["snapshot_times"],
    )
    try:   # solve's rule: each snapshot and experiment time gets a row of its own
        solver_fv.require_output_times(config.output_times, solver_params.t_final)
    except ValueError as exc:
        raise ConfigError([f"[run] snapshot_times but 0 and the experiments' {exc}"]) from None
    return config


# ---------------------------------------------------------------------------
# snapshots

@lru_cache(maxsize=16)
def _snapshot_rows(grid: Grid) -> str:
    """The %-format of a snapshot's node,value rows on `grid`: its node column
    formatted once, each node followed by a `_FLOAT_FORMAT` slot for its value."""
    return "".join(f"{_FLOAT_FORMAT % node},{_FLOAT_FORMAT}\n" for node in grid.node.tolist())


def write_snapshot(state: DistributionState, path, time: float = 0.0) -> None:
    """Text snapshot: the magic line, the mesh and time, then one node,value row per cell."""
    grid = state.grid
    _write_csv(Path(path), [SNAPSHOT_MAGIC],
               [(grid.geometry, grid.dim, grid.cells, grid.extent, float(time))],
               _snapshot_rows(grid) % tuple(state.values.tolist()))


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
        if not 0 <= time < math.inf:
            raise ValueError(f"time must be finite and nonnegative, got {time!r}")
        grid = Grid(geometry, dim, extent, cells)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid header: {exc}") from exc
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) != cells:   # before any mesh array, whose size the header claims
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
        if not -BOUNDS_TOL <= val <= 1.0 + BOUNDS_TOL:
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

def run_scenario(config: ScenarioConfig) -> int:
    """Execute a scenario.  Returns 0 if every experiment assertion passed, 1 otherwise."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # tests and the benchmark's tracer replace solve
    traj = solver_fv.solve(config.f0, config.solver_params, config.output_times)

    times = traj.times.tolist()
    _write_csv(out / "diagnostics.csv", DIAGNOSTIC_COLUMNS,
               zip(times, *(traj.column(name).tolist() for name in DIAGNOSTICS)))
    row = {t: k for k, t in enumerate(times)}   # the march landed a row on each snapshot time
    for idx, t in enumerate(config.snapshot_times):
        write_snapshot(traj.states[row[t]], out / f"snapshot_{idx:03d}.txt", time=times[row[t]])

    all_passed = True
    for exp in config.experiments:
        entry = _EXPERIMENTS[exp.name]
        rows, passed = entry.run(exp.options, config, traj, out)
        _write_csv(out / f"report_{exp.name}.csv", entry.columns, rows)
        all_passed = all_passed and passed
    return 0 if all_passed else 1
