import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdfp
from fdfp import harness, solver_fv
from fdfp.cli import main as cli_main
from fdfp.functionals import check_entropy_control
from fdfp.grid import MAX_DIM, Grid
from fdfp.harness import (
    DIAGNOSTIC_COLUMNS,
    ConfigError,
    _write_csv,
    build_initial,
    parse_config,
    read_snapshot,
    run_scenario,
    snapshot_info,
    write_snapshot,
)
from fdfp.mehler import BOUND_TIMES, kernel_bound_sweep
from fdfp.solver_duhamel import CROSS_CHECK_TOL, DuhamelParams, picard_solve

from conftest import MASS_BETA1_N1

MINIMAL = """
[grid]
geometry = cartesian1d
dim = 1
extent = 8.0
cells = 64

[initial]
kind = fermi_dirac
mass = 1.0

[solver]
kind = fv
t_final = 0.05
output_stride = 10

[run]
output_dir = {out}
seed = 0
"""


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    assert cfg.geometry == "cartesian1d"
    assert cfg.cells == 64
    assert cfg.initial.kind == "fermi_dirac"
    assert cfg.experiments == ()


MESH = ("geometry", "dim", "extent", "cells")


@pytest.mark.parametrize("name", MESH)
def test_the_scenario_mesh_is_its_initial_states(tmp_path, name):
    # the mesh was stored twice, and `cfg.cells = 8` went unseen by run_scenario
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    assert getattr(cfg, name) == getattr(cfg.f0.grid, name)
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    assert name not in values
    with pytest.raises(TypeError):
        harness.ScenarioConfig(**values, **{name: getattr(cfg, name)})


@pytest.mark.parametrize("name", [*MESH, "initial", "f0", "solver_params", "experiments",
                                  "output_dir", "seed", "snapshot_times"])
def test_a_parsed_scenario_is_not_mutated(tmp_path, name):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


def _assert_read_only(options):
    """`options` refuses a new key, and every change to a key it holds."""
    before = dict(options)
    with pytest.raises(TypeError):   # an output_times key would move the march's landing times
        options["output_times"] = (0.01,)
    for key in before:
        with pytest.raises(TypeError):
            options[key] = 1e9
        with pytest.raises(TypeError):
            del options[key]
    assert not any(hasattr(options, m) for m in ("update", "pop", "clear", "setdefault"))
    assert dict(options) == before


@pytest.mark.parametrize("name,options", [
    ("comparison", "other_kind = fermi_dirac\nother_mass = 1.5"),
    ("decay_fit", "window_lo = 0\nwindow_hi = 0.02"),
    ("cross_check", "time_nodes = 8"),
    ("run", ""),
])
def test_a_parsed_scenario_is_immutable_all_the_way_down(tmp_path, name, options):
    # the specs' options were dicts and the experiments a list, so what
    # parse_config validated could still be changed before run_scenario
    cfg = parse_config(small_scenario(tmp_path, name, options, solver="kind = fv\nt_final = 0.02"))
    assert isinstance(cfg.experiments, tuple)
    with pytest.raises(AttributeError):
        cfg.experiments.append(cfg.experiments[0])
    specs = [cfg.initial, *cfg.experiments]
    if name == "comparison":
        specs.append(cfg.experiments[0].options["other"])
    for spec in specs:
        for field in dataclasses.fields(spec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field.name, getattr(spec, field.name))
        _assert_read_only(spec.options)
    if name in ("cross_check", "decay_fit"):
        times = cfg.experiments[0].options["output_times"]
        assert type(times) is tuple and all(type(t) is float for t in times)
    if name == "cross_check":
        assert times == tuple(cfg.experiments[0].options["params"].time_grid()[1:])


def test_a_parsed_gate_cannot_be_switched_off(tmp_path):
    # setting the cross-check tolerance to 1e9, which parse_config rejects,
    # made run_scenario pass and write tolerance,1000000000
    text = (ROOT / "perfbench" / "scenarios" / "cross_check.cfg").read_text()
    cfg = parse_config(text.replace("{output_dir}", str(tmp_path)).replace("{seed}", "1"))
    assert cfg.experiments[2].name == "cross_check"
    with pytest.raises(TypeError):
        cfg.experiments[2].options["tolerance"] = 1e9
    assert cfg.experiments[2].options["tolerance"] == CROSS_CHECK_TOL


def test_unknown_key_reports_name_and_suggestion(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace("cells = 64", "cels = 64\ncolour = red")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    message = str(err.value)
    assert "cels" in message and "cells" in message  # nearest valid key named
    assert "colour" in message
    assert "missing required key 'cells'" in message


def test_all_errors_reported_not_first_only(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace("extent = 8.0", "extent = -1")
    bad = bad.replace("mass = 1.0", "mass = -2")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert len(err.value.errors) >= 2


def test_indicator_height_validation(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace(
        "kind = fermi_dirac\nmass = 1.0",
        "kind = indicator\nlo = -1\nhi = 1\nheight = 1.5")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "(0, 1]" in str(err.value) and "invariant region" in str(err.value)


def test_unknown_experiment_and_section(tmp_path):
    bad = MINIMAL.format(out=tmp_path) + "\n[experiments]\nnames = run, decaay_fit\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "decaay_fit" in str(err.value) and "decay_fit" in str(err.value)
    bad2 = MINIMAL.format(out=tmp_path) + "\n[experimnts]\nnames = run\n"
    with pytest.raises(ConfigError):
        parse_config(bad2)


def test_run_scenario_stationary_diagnostics(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path) + "\n[experiments]\nnames = run\n")
    status = run_scenario(cfg)
    assert status == 0
    text = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert text[0] == "t,mass,energy,entropy,free_energy,dissipation,rel_entropy,l1_to_eq"
    data = np.array([[float(x) for x in line.split(",")] for line in text[1:]])
    # equilibrium initial data: every column except t is constant
    for col in range(1, data.shape[1]):
        assert np.abs(data[:, col] - data[0, col]).max() <= 1e-10
    report = (tmp_path / "report_run.csv").read_text()
    assert "True" in report


def test_fv_snapshots_land_on_their_times(tmp_path):
    # snapshots were written from the recorded row nearest each time, so
    # t = 0.0317, between two stride rows, was written at a stride row's time
    out = tmp_path / "out"
    times = (0.0, 0.0317, 0.05)
    text = MINIMAL.format(out=out).replace(
        "seed = 0", "seed = 0\nsnapshot_times = " + ", ".join(map(str, times)))
    assert run_scenario(parse_config(text)) == 0
    for idx, t_req in enumerate(times):
        _, t = read_snapshot(out / f"snapshot_{idx:03d}.txt")
        assert _bits(t) == _bits(t_req)


def test_run_scenario_decay_fit(tmp_path):
    cfg = parse_config(small_scenario(tmp_path, "decay_fit", "window_lo = 0.2\nwindow_hi = 2.0",
                                      solver="kind = fv\nt_final = 3.0\noutput_stride = 50",
                                      cells=128))
    assert run_scenario(cfg) == 0
    assert report_rows(tmp_path, "decay_fit")["pass"] == "True"


def test_run_scenario_cross_check(tmp_path):
    cfg = parse_config(small_scenario(tmp_path, "cross_check", "time_nodes = 9",
                                      solver="kind = fv\nt_final = 0.2", cells=128))
    assert run_scenario(cfg) == 0
    lines = (tmp_path / "cross_check.csv").read_text().splitlines()
    assert lines[0] == "t,l1_difference"
    diffs = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(diffs) <= CROSS_CHECK_TOL
    assert "True" in (tmp_path / "report_cross_check.csv").read_text()


@pytest.mark.parametrize("key", ["max_mass_drift_rel", "min_value", "max_value",
                                 "max_free_energy_rise", "steps"])
def test_run_experiment_fails_when_fv_meta_lacks_a_key(tmp_path, monkeypatch, key):
    # a missing run-record entry must not read as a passing default: the
    # record cannot be built without it, so no report is written
    solve = solver_fv.solve

    def solve_without_key(f0, params, output_times=()):
        traj = solve(f0, params, output_times)
        entries = {k: v for k, v in vars(traj.meta).items() if k != key}
        return dataclasses.replace(traj, meta=solver_fv.FvRun(**entries))

    monkeypatch.setattr(solver_fv, "solve", solve_without_key)
    cfg = parse_config(MINIMAL.format(out=tmp_path) + "\n[experiments]\nnames = run\n")
    with pytest.raises(TypeError, match=key):
        run_scenario(cfg)
    assert not (tmp_path / "report_run.csv").exists()


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    text = MINIMAL + "\n[experiments]\nnames = run, entropy_control\n"
    for out in (out1, out2):
        cfg = parse_config(text.format(out=out))
        run_scenario(cfg)
    for name in ("diagnostics.csv", "report_run.csv", "report_entropy_control.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_snapshot_round_trip(tmp_path, eq_beta1):
    path = tmp_path / "state.txt"
    write_snapshot(eq_beta1, path, time=0.25)
    state, t = read_snapshot(path)
    assert t == 0.25
    assert np.array_equal(state.values, eq_beta1.values)
    assert np.array_equal(state.grid.node, eq_beta1.grid.node)


# The written text itself, not only what parses back from it: 17
# significant digits for every float, numpy's included, and -0 kept
def test_snapshot_text(tmp_path):
    path = tmp_path / "state.txt"
    grid = Grid("radialNd", 3, 1.5, 3)
    write_snapshot(fdfp.DistributionState(grid, [0.1, -0.0, 5e-324]), path, time=np.float64(1 / 3))
    assert path.read_text() == ("fdfp-snapshot v1\n"
                                "radialNd,3,3,1.5,0.33333333333333331\n"
                                "0.25,0.10000000000000001\n"
                                "0.75,-0\n"
                                "1.25,4.9406564584124654e-324\n")
    write_snapshot(fdfp.DistributionState(Grid("cartesian1d", 1, 3.0, 4), [1.0, 0.25, 2 / 3, 0.0]),
                   path)
    assert path.read_text() == ("fdfp-snapshot v1\ncartesian1d,1,4,3,0\n"
                                "-2.25,1\n-0.75,0.25\n0.75,0.66666666666666663\n2.25,0\n")


def test_diagnostics_and_report_row_text(tmp_path):
    path = tmp_path / "rows.csv"
    _write_csv(path, DIAGNOSTIC_COLUMNS, [(0.0, 0.1, np.float64(2 / 3), -0.0, 5e-324, 1e22, 1.5e-7,
                                           np.float64(-np.inf))])
    assert path.read_text() == (
        "t,mass,energy,entropy,free_energy,dissipation,rel_entropy,l1_to_eq\n"
        "0,0.10000000000000001,0.66666666666666663,-0,4.9406564584124654e-324,1e+22,"
        "1.4999999999999999e-07,-inf\n")
    # a kernel_bounds row: strings, an int, then floats
    _write_csv(path, ("p", "q", "m", "alpha", "max_ratio", "spread", "pass"),
               [["p=1", "q=2", 0, 0.5, np.float64(1 / 3), 0.0, "True"]])
    assert path.read_text() == ("p,q,m,alpha,max_ratio,spread,pass\n"
                                "p=1,q=2,0,0.5,0.33333333333333331,0,True\n")


def _reference_csv_text(header, rows):
    """The per-value rule the writer follows: 17 digits for a float, `str` otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(x, ".17g") if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


# a float of any bit pattern: NaN payloads, signed zeros, subnormals and infinities
_ANY_FLOAT = st.one_of(
    st.floats(), st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]))
_CELL = st.one_of(_ANY_FLOAT, _ANY_FLOAT.map(np.float64), st.integers(), st.booleans(),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.text(st.characters(blacklist_categories=("Cs",))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("abc%_"), max_size=4), st.lists(st.lists(_CELL, max_size=6), max_size=5),
       st.booleans())
def test_writer_writes_the_bytes_of_the_per_value_rule(tmp_path_factory, header, rows, as_tuples):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    if as_tuples:
        rows = [tuple(row) for row in rows]
    _write_csv(path, header, rows)
    assert path.read_bytes() == _reference_csv_text(header, rows).encode()


def test_snapshots_on_meshes_of_one_size_carry_their_own_nodes(tmp_path):
    # each mesh's node column is formatted once and reused: meshes that share
    # the cell count, written in turn, must not share that text
    grids = [Grid("cartesian1d", 1, 8.0, 16), Grid("cartesian1d", 1, 3.0, 16),
             Grid("radialNd", 3, 8.0, 16), Grid("cartesian1d", 1, 8.0, 16)]
    for k, grid in enumerate(grids * 2):
        values = np.linspace(0.0, 1.0, 16) ** (k + 1)
        path = tmp_path / f"state{k}.txt"
        write_snapshot(fdfp.DistributionState(grid, values), path)
        nodes = [float(line.split(",")[0]) for line in path.read_text().splitlines()[2:]]
        assert np.array_equal(_bits(nodes), _bits(grid.node))
        state, _ = read_snapshot(path)
        assert state.grid == grid and np.array_equal(_bits(state.values), _bits(values))


def test_run_writes_every_float_with_17_digits(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path) + "\n[experiments]\nnames = entropy_control\n")
    assert run_scenario(cfg) == 0
    header, *rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert header == ",".join(DIAGNOSTIC_COLUMNS) and rows[0].startswith("0,")
    for row in rows:
        assert all(format(float(x), ".17g") == x for x in row.split(","))
    report = (tmp_path / "report_entropy_control.csv").read_text().splitlines()
    assert report[:2] == ["metric,value", "eps,0.5"] and report[-1] == "pass,True"


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_snapshot_round_trip_is_bit_identical(tmp_path_factory, data):
    # every value, signed zeros and the smallest subnormal included, and the
    # time and mesh survive the 17-digit text format bit for bit
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(1, 5))
    cells = data.draw(st.integers(1, 64))
    extent = data.draw(st.floats(1e-3, 1e3))
    time = data.draw(st.floats(min_value=0.0, allow_infinity=False))   # a run's time
    value = st.one_of(st.sampled_from([0.0, 1.0, -0.0, 5e-324]), st.floats(0.0, 1.0))
    values = np.array(data.draw(st.lists(value, min_size=cells, max_size=cells)))
    grid = Grid(geometry, dim, extent, cells)
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_snapshot(fdfp.DistributionState(grid, values), path, time=time)
        state, t = read_snapshot(path)
    assert _bits(t) == _bits(time)
    assert np.array_equal(_bits(state.values), _bits(values))
    assert np.array_equal(_bits(state.grid.node), _bits(grid.node))
    assert np.array_equal(_bits(state.grid.qweight), _bits(grid.qweight))


@pytest.mark.parametrize("geometry,dim,extent,cells", [
    ("cartesian1d", 1, 8.0, 256), ("cartesian1d", 1, 8.0, 100), ("cartesian1d", 1, 6.5, 65),
    ("radialNd", 3, 8.0, 128), ("radialNd", 2, 7.3, 99),
])
def test_snapshot_grid_is_make_grid_bit_for_bit(tmp_path, geometry, dim, extent, cells):
    grid = fdfp.make_grid(geometry, dim, extent, cells)
    path = tmp_path / "state.txt"
    write_snapshot(fdfp.DistributionState(grid, np.full(cells, 0.25)), path)
    back = read_snapshot(path)[0].grid
    assert back == grid and back.width == grid.width
    assert np.array_equal(back.node, grid.node)
    assert np.array_equal(back.qweight, grid.qweight)
    assert np.array_equal(back.edges, grid.edges)


@pytest.mark.parametrize("header,rows", [
    ("cartesian1d,1,3,3,0", "-2,0.25\n0,0.5\n2,0.125\n"),
    ("radialNd,3,2,1,0", "0.25,0.5\n0.75,0.125\n"),
])
def test_snapshot_small_mesh_reads_without_warning(tmp_path, header, rows):
    # fewer than 8 cells and an extent below 4 are refused or warned about
    # by make_grid, but a snapshot describes a mesh that already exists
    path = tmp_path / "tiny.txt"
    path.write_text(f"fdfp-snapshot v1\n{header}\n{rows}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, _ = read_snapshot(path)
    assert state.grid.cells == int(header.split(",")[2])


def test_snapshot_rejects_invalid_header(tmp_path):
    path = tmp_path / "bad.txt"
    for header in ("spherical,1,3,3,0", "cartesian1d,2,3,3,0", "cartesian1d,1,0,3,0",
                   "radialNd,3,2,-1,0", "radialNd,0,2,1,0", "radialNd,3,2,inf,0",
                   "cartesian1d,1,3,3,nan", "cartesian1d,1,3,3,inf",
                   "cartesian1d,1,3,3,-1.0"):
        path.write_text(f"fdfp-snapshot v1\n{header}\n")
        with pytest.raises(ValueError, match="invalid header"):
            read_snapshot(path)


def test_snapshot_header_claiming_a_huge_mesh_is_bad_input(tmp_path, capsys):
    # the mesh used to be built before the rows were counted: a header
    # claiming 10^13 cells died allocating it, with a traceback and exit 1
    path = tmp_path / "huge.txt"
    path.write_text("fdfp-snapshot v1\ncartesian1d,1,10000000000000,8,0\n0,0.5\n")
    with pytest.raises(ValueError, match="expected 10000000000000 data rows, found 1"):
        read_snapshot(path)
    assert cli_main(["snapshot-info", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_snapshot_info_of_a_mesh_whose_measures_overflow_is_bad_input(tmp_path, capsys):
    # the unit ball volume of 400 dimensions overflows: an OverflowError
    # traceback and exit 1 before.  The dim rule rejects the header first
    path = tmp_path / "dim400.txt"
    path.write_text("fdfp-snapshot v1\nradialNd,400,2,8,0\n2,0.5\n6,0\n")
    assert cli_main(["snapshot-info", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"dim must be an integer in [1, {MAX_DIM}], got 400" in err and "Traceback" not in err


def test_config_rejects_an_infinite_extent(tmp_path):
    # reported as "the initial state has no mass on this grid" before
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("extent = 8.0", "extent = inf").format(out=tmp_path))
    assert err.value.errors == ["[grid] extent must be finite"]


def test_snapshot_hand_written_three_cells(tmp_path):
    # 3 cells on [-3, 3]: h = 2, nodes -2, 0, 2
    path = tmp_path / "tiny.txt"
    path.write_text("fdfp-snapshot v1\ncartesian1d,1,3,3,0\n-2,0.25\n0,0.5\n2,0.125\n")
    state, t = read_snapshot(path)
    assert t == 0.0
    assert np.allclose(state.grid.node, [-2.0, 0.0, 2.0])
    assert np.allclose(state.values, [0.25, 0.5, 0.125])


def test_snapshot_rejects_out_of_range_value(tmp_path):
    path = tmp_path / "bad.txt"
    for value in ("1.2", "nan"):
        path.write_text(f"fdfp-snapshot v1\ncartesian1d,1,3,3,0\n-2,0.25\n0,{value}\n2,0.125\n")
        with pytest.raises(ValueError, match="row 4"):
            read_snapshot(path)


def test_snapshot_rejects_version_and_node_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("fdfp-snapshot v2\ncartesian1d,1,3,3,0\n")
    with pytest.raises(ValueError):
        read_snapshot(path)
    path.write_text("fdfp-snapshot v1\ncartesian1d,1,3,3,0\n-2.5,0.25\n0,0.5\n2,0.125\n")
    with pytest.raises(ValueError, match="row 3"):
        read_snapshot(path)


HEAD3 = "fdfp-snapshot v1\ncartesian1d,1,3,3,0\n"   # nodes -2, 0, 2


@pytest.mark.parametrize("text,message", [
    ("fdfp-snapshot v1\n", "missing header line"),
    ("fdfp-snapshot v1\ncartesian1d,1,3,3\n", "header must be geometry,dim,cells,extent,time"),
    ("fdfp-snapshot v1\ncartesian1d,x,3,3,0\n",
     "malformed header: invalid literal for int() with base 10: 'x'"),
    (HEAD3 + "-2,0.25,0\n0,0.5\n2,0.125\n", "row 3: expected 'node,value'"),
    (HEAD3 + "-2,0.25\n0,half\n2,0.125\n", "row 4: could not convert string to float: 'half'"),
    # two faulty rows: the earlier one is named, whatever the kind of either fault
    (HEAD3 + "-2,0.25\n0,1.5\n2.5,0.125\n", "row 4: value 1.5 outside [0, 1]"),
    (HEAD3 + "-2,0.25\n1,0.5\n2,0.125,0\n", "row 4: node 1.0 does not match the mesh"),
], ids=["no_header", "header_4_fields", "dim_x", "row_3_fields", "value_not_a_number",
        "value_before_node", "node_before_shape"])
def test_snapshot_rejection_names_the_first_faulty_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_snapshot(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("text,errors", [
    ("not an ini file\n", ["syntax error: File contains no section headers.\n"
                           "file: '<string>', line: 1\n'not an ini file\\n'"]),
    (MINIMAL.replace("cells = 64", "cells = many"),
     ["[grid] key 'cells': cannot parse 'many' as an integer"]),
], ids=["not_ini", "cells_many"])
def test_config_text_errors(tmp_path, text, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(text.format(out=tmp_path))
    assert err.value.errors == errors


def test_snapshot_info(tmp_path, eq_beta1):
    path = tmp_path / "state.txt"
    write_snapshot(eq_beta1, path, time=1.5)
    info = snapshot_info(path)
    assert info["time"] == 1.5
    assert info["cells"] == 256
    assert info["mass"] == pytest.approx(MASS_BETA1_N1, rel=0.01)


def test_build_initial_kinds(grid256):
    from fdfp.harness import InitialSpec

    ind = build_initial(InitialSpec("indicator", {"lo": -1.0, "hi": 1.0, "height": 0.5}), grid256)
    assert fdfp.integrate(ind) == pytest.approx(1.0, abs=1e-12)
    gp = build_initial(InitialSpec("gaussian_profile", {"mass": 1.0, "sigma": 1.0}), grid256)
    assert gp.values.max() <= 1.0
    assert fdfp.integrate(gp) == pytest.approx(1.0, rel=1e-6)
    sc = build_initial(InitialSpec("scaled_fermi_dirac", {"mass_star": MASS_BETA1_N1, "factor": 0.5}), grid256)
    assert sc.values.max() <= 0.5


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", [*sorted((ROOT / "configs").glob("*.cfg")),
                                  *sorted((ROOT / "perfbench" / "scenarios").glob("*.cfg"))],
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_example_and_benchmark_configs_parse(tmp_path, path):
    # the benchmark fills in {output_dir} and {seed}; a harness change that
    # drops a key one of these configs sets fails here, not only in a run
    text = path.read_text().replace("{output_dir}", str(tmp_path)).replace("{seed}", "1")
    assert parse_config(text).experiments


def test_cli_check_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    assert cli_main(["check", str(cfg_path)]) == 0
    bad_path = tmp_path / "bad.cfg"
    bad_path.write_text("[grid]\ngeometry = nope\n")
    assert cli_main(["check", str(bad_path)]) == 2
    assert cli_main(["check", str(tmp_path / "missing.cfg")]) == 2


def test_undecodable_config_is_bad_input(tmp_path, capsys):
    # a UTF-16 byte order mark died in the UTF-8 decode, with a traceback and exit 1
    cfg_path = tmp_path / "utf16.cfg"
    cfg_path.write_bytes(b"\xff\xfe" + MINIMAL.format(out=tmp_path / "out").encode())
    for command in (["check", str(cfg_path)], ["run", str(cfg_path), "--quiet"]):
        assert cli_main(command) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and "Traceback" not in err


def test_unwritable_output_dir_is_bad_input(tmp_path, capsys):
    # an output_dir below a regular file died in mkdir, with a traceback and exit 1
    (tmp_path / "file").write_text("")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "file" / "out"))
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Not a directory" in err and "Traceback" not in err


def test_check_rejects_an_empty_output_dir(tmp_path, capsys, monkeypatch):
    # check printed "ok", and run wrote its outputs into the working directory
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out="") + "\n[experiments]\nnames = run\n")
    for command in (["check", str(cfg_path)], ["run", str(cfg_path), "--quiet"]):
        assert cli_main(command) == 2
        assert "[run] output_dir must not be empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("value", ["", "  "])
def test_run_rejects_an_empty_output_dir_option(tmp_path, capsys, monkeypatch, value):
    # "" wrote the outputs into the working directory, and "  " into a directory "  "
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    assert cli_main(["run", str(cfg_path), "--quiet", "--output-dir", value]) == 2
    assert "--output-dir must not be empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert cli_main(["run", str(cfg_path), "--quiet", "--output-dir", "given"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["given", "run.cfg"]
    assert (tmp_path / "given" / "diagnostics.csv").is_file()


def test_out_of_memory_in_a_run_is_a_solver_error(tmp_path, capsys, monkeypatch):
    # a MemoryError escaped with a traceback and exit 1, the code of a failed assertion
    def out_of_memory(config):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr("fdfp.cli.run_scenario", out_of_memory)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "solver error: out of memory: cannot allocate" in err and "Traceback" not in err


def test_cli_run_and_snapshot_info(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=out)
                        + "\n[experiments]\nnames = run\n")
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 0
    assert (out / "diagnostics.csv").exists()

    # the seed is [run] seed alone
    assert cli_main(["run", str(cfg_path), "--quiet", "--seed", "1"]) == 2

    eq = fdfp.equilibrium_state(1.0, fdfp.make_grid("cartesian1d", 1, 8.0, 64))
    snap = tmp_path / "s.txt"
    write_snapshot(eq, snap, time=0.0)
    assert cli_main(["snapshot-info", str(snap)]) == 0
    assert "cells: 64" in capsys.readouterr().out

    # a snapshot that `fdfp run` wrote starts a scenario of its own on the same [grid]
    cfg_path.write_text(MINIMAL.format(out=out) + "snapshot_times = 0.05\n")
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 0
    written = out / "snapshot_000.txt"
    resumed = tmp_path / "resumed.cfg"
    resumed.write_text(MINIMAL.replace("kind = fermi_dirac\nmass = 1.0",
                                       f"kind = from_snapshot\npath = {written}")
                       .format(out=tmp_path / "resumed"))
    assert cli_main(["check", str(resumed)]) == 0
    assert cli_main(["run", str(resumed), "--quiet"]) in (0, 1)
    assert (tmp_path / "resumed" / "diagnostics.csv").exists()
    capsys.readouterr()
    assert cli_main(["snapshot-info", str(written)]) == 0
    info = capsys.readouterr().out.splitlines()
    assert {"geometry: cartesian1d", "dim: 1", "extent: 8.0", "cells: 64"} <= set(info)


@pytest.mark.parametrize("key,value", [
    ("cfl_safety", "0.75"), ("cfl_safety", "1.0"), ("cfl_safety", "0"), ("cfl_safety", "-1"),
    ("clamp_delta", "0"), ("clamp_delta", "-1"), ("clamp_delta", "0.5"), ("clamp_delta", "0.6"),
    ("dt_override", "1e-3"),
])
def test_cli_check_rejects_unsafe_fv_params(tmp_path, capsys, key, value):
    # the scheme fixes its CFL factor and potential clamp, and the state its
    # step size, so none of these is a [solver] key
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(MINIMAL.replace("[run]", f"{key} = {value}\n\n[run]")
                        .format(out=tmp_path / "out"))
    assert cli_main(["check", str(cfg_path)]) == 2
    assert f"[solver] unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["nan", "-3", "100", "inf", "0.06", "nan, -3, 100"])
def test_cli_rejects_snapshot_times_outside_the_run(tmp_path, capsys, times):
    # MINIMAL has t_final = 0.05
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out")
                        + f"snapshot_times = {times}\n")
    for command in (["check", str(cfg_path)], ["run", str(cfg_path), "--quiet"]):
        assert cli_main(command) == 2
        assert "[run] snapshot_times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out") + "snapshot_times = 0, 0.05\n")
    assert cli_main(["check", str(cfg_path)]) == 0


RADIAL_GRID = "geometry = radialNd\ndim = 3"
DUHAMEL_SOLVER = "kind = duhamel\nt_final = 0.05\ntime_nodes = 8"


@pytest.mark.parametrize("experiment,grid,solver,named", [
    ("moment_propagation", None, None, "moment_propagation"),
    ("kernel_bounds", RADIAL_GRID, None, "kernel_bounds"),
    ("cross_check", RADIAL_GRID, None, "cross_check"),
    ("run", RADIAL_GRID, DUHAMEL_SOLVER, "duhamel"),
])
def test_solver_geometry_mismatch_is_a_config_error(tmp_path, capsys,
                                                    experiment, grid, solver, named):
    # every combination here used to pass `fdfp check` and then fail in `fdfp run`
    text = MINIMAL.format(out=tmp_path / "out")
    if grid:
        text = text.replace("geometry = cartesian1d\ndim = 1", grid)
    if solver:
        text = text.replace("kind = fv\nt_final = 0.05\noutput_stride = 10", solver)
    text += f"\n[experiments]\nnames = {experiment}\n"
    if experiment == "comparison":
        text += "\n[experiment.comparison]\nother_kind = fermi_dirac\nother_mass = 1.5\n"
    cfg_path = tmp_path / "mismatch.cfg"
    cfg_path.write_text(text)
    with pytest.raises(ConfigError, match=named):
        parse_config(text)
    for command in (["check"], ["run", "--quiet"]):
        assert cli_main(command[:1] + [str(cfg_path)] + command[1:]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,grid,message", [
    ("moment_propagation", "", "moment propagation requires a radialNd grid"),
    ("kernel_bounds", RADIAL_GRID, "kernel operators require a cartesian1d grid"),
    ("cross_check", RADIAL_GRID, "kernel operators require a cartesian1d grid"),
])
def test_check_prints_the_library_geometry_message(tmp_path, capsys, experiment, grid, message):
    # the harness restated each rule in its own words, and the Picard
    # solver restated the kernel operators' in a third
    text = MINIMAL.format(out=tmp_path / "out") + f"\n[experiments]\nnames = {experiment}\n"
    if grid:
        text = text.replace("geometry = cartesian1d\ndim = 1", grid)
    cfg_path = tmp_path / "mismatch.cfg"
    cfg_path.write_text(text)
    assert cli_main(["check", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration:", f"  - [experiment.{experiment}] {message}"]


def test_a_geometry_mismatch_is_reported_once_f0_is_built(tmp_path, capsys):
    # the experiment's own rule runs on the built f0, as every other
    # requirement of an experiment does: an unbuilt f0 is the one error
    text = (MINIMAL.format(out=tmp_path / "out")
            .replace("kind = fermi_dirac\nmass = 1.0", "kind = indicator\nlo = 1\nhi = -1\nheight = 0.5")
            + "\n[experiments]\nnames = moment_propagation\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == ["[initial] indicator needs lo < hi"]
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    assert cli_main(["check", str(cfg_path)]) == 2


MOMENT_SCENARIO = """
[grid]
geometry = radialNd
dim = 3
extent = 8.0
cells = 48

[initial]
kind = scaled_fermi_dirac
mass_star = 4.0
factor = 0.9

[solver]
kind = fv
t_final = 0.4
output_stride = 20

[run]
output_dir = {out}

[experiments]
names = moment_propagation
"""


def test_moment_propagation_scenario_solves_once(tmp_path, monkeypatch):
    cfg = parse_config(MOMENT_SCENARIO.format(out=tmp_path))
    calls = []
    real_solve = solver_fv.solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solver_fv, "solve", counting_solve)
    assert run_scenario(cfg) == 0
    assert len(calls) == 1

    f0 = build_initial(cfg.initial, fdfp.make_grid("radialNd", 3, 8.0, 48))
    rep = solver_fv.radial_moment_propagation(real_solve(f0, cfg.solver_params), order=4)
    rows = report_rows(tmp_path, "moment_propagation")
    assert float(rows["spread"]) == rep.spread
    assert float(rows["sup_tail"]) == rep.sup_tail
    assert [float(rows[f"sup_moment_t{hz:g}"]) for hz in rep.horizons] == list(rep.sup_moment)
    assert rows["monotone_preserved"] == str(rep.monotone_preserved)


# ---------------------------------------------------------------------------
# one small scenario per table entry, and check/run agreement

SMALL = """
[grid]
geometry = {geometry}
dim = {dim}
extent = 8.0
cells = {cells}

[initial]
{initial}

[solver]
{solver}

[run]
output_dir = {out}
snapshot_times = 0.0

[experiments]
names = {name}

[experiment.{name}]
{options}
"""
CARTESIAN_F0 = f"kind = scaled_fermi_dirac\nmass_star = {MASS_BETA1_N1}\nfactor = 0.5"
FV_SOLVER = "kind = fv\nt_final = 0.02"
SPARSE_STRIDE_SOLVER = "kind = fv\nt_final = 1\noutput_stride = 100000"   # no stride row after t = 0
INDICATOR_F0 = "kind = indicator\nlo = -1.0\nhi = 1.0\nheight = 0.5"
RADIAL_INDICATOR_F0 = "kind = indicator\nlo = 0.0\nhi = 1.0\nheight = 0.5"
GRID32 = fdfp.make_grid("cartesian1d", 1, 8.0, 32)


def small_scenario(out, name="run", options="", radial=False, initial=None, solver=FV_SOLVER,
                   cells=32, dim=3):
    """A scenario with one experiment, on 32 cells unless `cells` says
    otherwise; a radial one has `dim` dimensions."""
    if initial is None:
        initial = "kind = scaled_fermi_dirac\nmass_star = 4.0\nfactor = 0.9" if radial \
            else CARTESIAN_F0
    return SMALL.format(geometry="radialNd" if radial else "cartesian1d", dim=dim if radial else 1,
                        initial=initial, solver=solver, out=out, name=name, options=options,
                        cells=cells)


def report_rows(out, name):
    lines = (out / f"report_{name}.csv").read_text().splitlines()[1:]
    return dict(line.split(",", 1) for line in lines)


@pytest.mark.parametrize("scenario,named", [
    (dict(name="comparison", options="other_kind = indicator\nother_lo = -1\nother_hi = 1\n"
                                     "other_height = 2.0"), "other_height"),
    (dict(name="comparison", options="other_kind = fermi_dirac\nother_mass = -1"), "other_mass"),
    (dict(name="moment_propagation", options="order = 3", radial=True), "order"),
    # 8^400 overflows: run wrote sup_moment = inf, spread = nan and exited 1
    (dict(name="moment_propagation", options="order = 400", radial=True),
     "order 400 is too large"),
    (dict(name="cross_check", options="time_nodes = 4"), "time_nodes"),
    (dict(name="kernel_bounds", options="p = 1, abc"), "unknown key 'p'"),
    (dict(name="decay_fit", options="window_lo = 0.5\nwindow_hi = 0.1"), "window_lo"),
    # the march landed fewer than 4 distinct rows in the first window, and
    # np.polyfit's SVD did not converge on the second's times: run exited 3
    (dict(name="decay_fit", options="window_lo = 0.5\nwindow_hi = 0.50000000000001",
          solver=SPARSE_STRIDE_SOLVER), "[experiment.decay_fit] the fit window is too narrow"),
    (dict(name="decay_fit", options="window_lo = 0\nwindow_hi = 1e-300",
          solver=SPARSE_STRIDE_SOLVER), "[experiment.decay_fit] the fit window is too narrow"),
    (dict(name="entropy_control", options="n_random = -3"), "unknown key 'n_random'"),
    (dict(solver="kind = fv\nt_final = 0"), "t_final must be positive"),
    (dict(solver="kind = fv\nt_final = inf"), "t_final must be positive and finite"),
    (dict(name="comparison", options=f"other_kind = scaled_fermi_dirac\n"
                                     f"other_mass_star = {MASS_BETA1_N1}\nother_factor = 1\n"
                                     "t_final = inf"),
     "[experiment.comparison] unknown key 't_final'"),
    # the Picard oracle runs only inside cross_check
    (dict(solver=DUHAMEL_SOLVER), "[solver] kind must be one of ['fv'], got 'duhamel'"),
    (dict(initial="kind = from_snapshot\npath = {dir}/missing.txt"), "missing.txt"),
    (dict(initial="kind = from_snapshot\npath = {dir}/cells64.txt"), "does not match"),
    (dict(initial="kind = scaled_fermi_dirac\nmass_star = inf\nfactor = 0.5"),
     "mass must be positive and finite"),
    (dict(initial="kind = scaled_fermi_dirac\nmass_star = 1e6\nfactor = 0.5"),
     "log(beta) in [-700, 690]"),
    (dict(initial="kind = scaled_fermi_dirac\nmass_star = 3000\nfactor = 0.5"),
     "log(beta) in [-700, 690]"),
    (dict(name="decay_fit", options="window_lo = 0\nwindow_hi = 0.02\nmass_star = 1e6"),
     "[experiment.decay_fit] unknown key 'mass_star'"),
    # the rate needs f0 <= F_{M*}, which this indicator breaks for M* = 1 by
    # 0.24; decay_fit takes M* from scaled_fermi_dirac data only
    (dict(name="decay_fit", options="window_lo = 0.5\nwindow_hi = 5\nmass_star = 1.0",
          initial=INDICATOR_F0, solver="kind = fv\nt_final = 6"),
     "[experiment.decay_fit] unknown key 'mass_star'"),
    (dict(name="decay_fit", options="window_lo = 0.5\nwindow_hi = 5",
          initial=INDICATOR_F0, solver="kind = fv\nt_final = 6"),
     "decay_fit needs [initial] kind = scaled_fermi_dirac"),
    # arrays beyond the address space, which numpy refuses at once
    (dict(cells=10 ** 16), "[grid] Unable to allocate"),
    (dict(name="cross_check", options="time_nodes = 1e16"),
     "[experiment.cross_check] Unable to allocate"),
    # run needs the equilibrium of f0's mass for its diagnostics, and exited 3
    (dict(initial="kind = indicator\nlo = -1\nhi = 1\nheight = 1e-305", cells=64),
     "[initial] mass 2e-305 lies outside"),
    # the dim rule, [1, MAX_DIM].  Past it the first radial jump ratio,
    # 2^(dim-1), shrinks the step steeply
    (dict(radial=True, dim=MAX_DIM + 1, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got {MAX_DIM + 1}"),
    # check passed; run's first step size was 1.1e-41 against a floor of
    # 2.6e-3, and it did not end
    (dict(radial=True, dim=136, cells=64, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got 136"),
    # r^(dim-1) overflowed the equilibria's quadrature: run exited 3 at dim 341
    # ("outside [nan, nan]") and did not end at dim 137
    (dict(radial=True, dim=137, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got 137"),
    # the first cell measure underflows to 0: check passed, and run warned of a
    # division by zero and exited 3 with "step size 0.0 at t = 0.0"
    (dict(radial=True, dim=120, cells=1024, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got 120"),
    # its masses overflow too, and its first cell measure is 0 at 32 cells
    (dict(radial=True, dim=341, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got 341"),
    # an OverflowError traceback from math.gamma, exit 1
    (dict(radial=True, dim=342, initial=RADIAL_INDICATOR_F0),
     f"[grid] dim must be an integer in [1, {MAX_DIM}], got 342"),
], ids=["other_height", "other_mass", "odd_order", "overflowing_order", "time_nodes", "p_list", "fit_window",
        "fit_window_relative_width", "fit_window_absolute_width",
        "n_random", "fv_t_final_0", "fv_t_final_inf", "comparison_t_final_inf",
        "duhamel_solver", "snapshot_missing", "snapshot_grid", "mass_star_inf",
        "mass_star_1e6", "mass_star_3000", "decay_fit_mass_star_1e6",
        "decay_fit_indicator_mass_star", "decay_fit_indicator", "cells_1e16", "time_nodes_1e16",
        "mass_1e-305", "radial_dim_max_plus_1", "radial_dim_136", "radial_dim_137", "radial_dim_120",
        "radial_dim_341", "radial_dim_342"])
def test_check_rejects_what_run_cannot_execute(tmp_path, capsys, scenario, named):
    # `fdfp check` accepted each of these; `fdfp run` then failed, never
    # ended (t_final = inf), or silently ran another scenario (t_final = 0,
    # n_random < 0, which is now no key at all); arrays that cannot be
    # allocated crashed both commands
    grid64 = fdfp.make_grid("cartesian1d", 1, 8.0, 64)
    write_snapshot(fdfp.equilibrium_state(1.0, grid64), tmp_path / "cells64.txt")
    scenario = {k: v.format(dir=tmp_path) if isinstance(v, str) else v
                for k, v in scenario.items()}
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(tmp_path / "out", **scenario))
    for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
        assert cli_main(command) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_and_run_accept_the_largest_dim(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(tmp_path / "out", radial=True, dim=MAX_DIM,
                                  initial=RADIAL_INDICATOR_F0, solver="kind = fv\nt_final = 0.1"))
    assert cli_main(["check", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--quiet"]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


INITIAL_KINDS = {
    "fermi_dirac": "kind = fermi_dirac\nmass = 1.0",
    "scaled_fermi_dirac": CARTESIAN_F0,
    "indicator": INDICATOR_F0,
    "gaussian_profile": "kind = gaussian_profile\nmass = 1.0\nsigma = 0.8",
    "from_snapshot": "kind = from_snapshot\npath = {snapshot}",
}


def initial_text(kind, tmp_path, prefix=""):
    """The keys of one initial kind; from_snapshot reads a 32-cell Gaussian."""
    snapshot = tmp_path / "initial.txt"
    write_snapshot(fdfp.DistributionState(GRID32, 0.5 * np.exp(-GRID32.node ** 2)), snapshot)
    text = INITIAL_KINDS[kind].format(snapshot=snapshot)
    return "\n".join(prefix + line for line in text.splitlines())


@pytest.mark.parametrize("kind", sorted(INITIAL_KINDS))
def test_every_initial_kind_runs(tmp_path, kind):
    out = tmp_path / "out"
    cfg = parse_config(small_scenario(out, initial=initial_text(kind, tmp_path)))
    assert cfg.initial.kind == kind
    assert run_scenario(cfg) == 0
    f0 = build_initial(cfg.initial, GRID32)
    assert np.array_equal(read_snapshot(out / "snapshot_000.txt")[0].values, f0.values)
    run = solver_fv.solve(f0, cfg.solver_params).meta
    rows = {check: float(row.split(",")[0]) for check, row in report_rows(out, "run").items()}
    assert rows == {"mass_drift_rel": run.max_mass_drift_rel,
                    "below_zero": max(0.0, -run.min_value),
                    "above_one": max(0.0, run.max_value - 1.0),
                    "free_energy_rise": run.max_free_energy_rise}


def test_run_names_the_first_picard_node_outside_the_invariant_region(tmp_path, capsys):
    # 32 cells cannot resolve the kernel at the first node (t = 0.01 / 7), where
    # the cross-check's Picard row peaks at 1.87: a solver error (exit 3) that
    # names that node
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text(small_scenario(tmp_path / "out", "cross_check", "time_nodes = 8",
                                       initial=INDICATOR_F0, solver="kind = fv\nt_final = 0.01"))
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "state values outside [0, 1] at time node 1 (t=0.00142857)" in err
    assert "Traceback" not in err


def snapshot_pair_scenario(tmp_path, out):
    """A from_snapshot scenario whose comparison's other state is a snapshot
    too, and the two snapshot paths."""
    paths = tmp_path / "f0.txt", tmp_path / "g0.txt"
    for path, height in zip(paths, (0.25, 0.5)):
        write_snapshot(fdfp.DistributionState(GRID32, height * np.exp(-GRID32.node ** 2)), path)
    return small_scenario(out, "comparison", f"other_kind = from_snapshot\nother_path = {paths[1]}",
                          initial=f"kind = from_snapshot\npath = {paths[0]}"), paths


def test_run_scenario_runs_what_parse_config_built(tmp_path, monkeypatch):
    # run_scenario built the mesh, f0 and the comparison's other state again
    text, _ = snapshot_pair_scenario(tmp_path, tmp_path / "unpatched")
    assert run_scenario(parse_config(text)) == 0
    cfg = dataclasses.replace(parse_config(text), output_dir=tmp_path / "patched")

    def refuse(*args):
        raise AssertionError("run_scenario rebuilt what parse_config built")

    for name in ("build_grid", "build_initial", "make_grid", "read_snapshot"):
        monkeypatch.setattr(harness, name, refuse)
    assert run_scenario(cfg) == 0
    written = sorted(p.name for p in (tmp_path / "unpatched").iterdir())
    assert written == sorted(p.name for p in cfg.output_dir.iterdir())
    for name in written:
        assert (cfg.output_dir / name).read_bytes() == (tmp_path / "unpatched" / name).read_bytes()


def test_a_run_reads_each_snapshot_once(tmp_path, monkeypatch):
    # parse_config read both files, and run_scenario read them again
    text, paths = snapshot_pair_scenario(tmp_path, tmp_path / "out")
    reads = []

    def counting_read(path):
        reads.append(Path(path))
        return read_snapshot(path)

    monkeypatch.setattr(harness, "read_snapshot", counting_read)
    assert run_scenario(parse_config(text)) == 0
    assert sorted(reads) == sorted(paths)


@pytest.mark.parametrize("other_kind", sorted(INITIAL_KINDS))
def test_comparison_runs_for_every_other_kind(tmp_path, other_kind):
    out = tmp_path / "out"
    options = initial_text(other_kind, tmp_path, prefix="other_")
    cfg = parse_config(small_scenario(out, "comparison", options,
                                      initial="kind = indicator\nlo = -0.5\nhi = 0.5\n"
                                              "height = 0.05"))
    other = cfg.experiments[0].options["other"]
    # the other_* keys follow the [initial] rules
    assert other == parse_config(small_scenario(out, initial=initial_text(other_kind,
                                                                          tmp_path))).initial
    status = run_scenario(cfg)
    # both states run to [solver] t_final
    rep = solver_fv.comparison_experiment(build_initial(cfg.initial, GRID32),
                                          build_initial(other, GRID32), cfg.solver_params)
    rows = report_rows(out, "comparison")
    assert float(rows["max_positive_part"]) == rep.max_positive_part
    assert float(rows["max_contraction_slack"]) == rep.max_contraction_slack
    assert int(rows["steps"]) == rep.steps
    assert rows["pass"] == str(rep.holds) and status == (0 if rep.holds else 1)


def test_decay_fit_scenario_matches_the_fit(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(small_scenario(out, "decay_fit", "window_lo = 0\nwindow_hi = 0.05",
                                      solver="kind = fv\nt_final = 0.05\noutput_stride = 1"))
    status = run_scenario(cfg)
    f0 = build_initial(cfg.initial, GRID32)
    c = solver_fv.rate_constant(MASS_BETA1_N1, 1)
    times = cfg.experiments[0].options["output_times"]
    assert times == tuple(np.linspace(0.0, 0.05, solver_fv.FIT_ROWS)[1:])
    traj = solver_fv.solve(f0, cfg.solver_params, times)
    rep = solver_fv.decay_rate_fit(traj.times, traj.column("rel_entropy"), c, (0.0, 0.05))
    rows = report_rows(out, "decay_fit")
    assert float(rows["slope"]) == rep.slope
    assert float(rows["rate_bound"]) == rep.rate_bound
    assert int(rows["n_points"]) == rep.n_points
    assert rows["pass"] == str(rep.holds) and status == (0 if rep.holds else 1)


def test_decay_fit_accepts_data_whose_discrete_mass_exceeds_m_star(tmp_path):
    # f0 = F_{M*} is dominated by F_{M*}, although its discrete mass exceeds
    # M* = 4 by 6.4e-14 at 64 cells; the data is at equilibrium
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace(
        "kind = fermi_dirac\nmass = 1.0", "kind = scaled_fermi_dirac\nmass_star = 4\nfactor = 1")
    text = text.replace("t_final = 0.05", "t_final = 2")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "\n[experiments]\nnames = decay_fit\n\n"
                          "[experiment.decay_fit]\nwindow_lo = 0.5\nwindow_hi = 1.5\n")
    grid64 = fdfp.make_grid("cartesian1d", 1, 8.0, 64)
    assert fdfp.integrate(build_initial(parse_config(text).initial, grid64)) > 4
    assert cli_main(["check", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--quiet"]) == 0
    assert report_rows(out, "decay_fit") == {"at_equilibrium": "True", "pass": "True"}


def test_decay_fit_lands_its_window_rows_under_a_sparse_stride(tmp_path):
    # with a stride of 100000 no stride row fell in [0.5, 1.5]: `fdfp check`
    # exited 0 and `fdfp run` 3, "fewer than 4 usable points in the fit window"
    out = tmp_path / "out"
    text = (MINIMAL.format(out=out)
            .replace("kind = fermi_dirac\nmass = 1.0",
                     f"kind = scaled_fermi_dirac\nmass_star = {MASS_BETA1_N1}\nfactor = 0.5")
            .replace("t_final = 0.05\noutput_stride = 10", "t_final = 2\noutput_stride = 100000"))
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "\n[experiments]\nnames = decay_fit\n\n"
                          "[experiment.decay_fit]\nwindow_lo = 0.5\nwindow_hi = 1.5\n")
    assert cli_main(["check", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--quiet"]) == 0
    rows = report_rows(out, "decay_fit")
    assert int(rows["n_points"]) == solver_fv.FIT_ROWS and rows["pass"] == "True"


@pytest.mark.parametrize("lo, hi", [("0.5", repr(0.5 + 5.0000001e-13)), ("0", "1.5e-154")])
def test_a_decay_fit_window_just_above_the_width_floors_runs(tmp_path, lo, hi):
    # windows just wider than those test_check_rejects_what_run_cannot_execute
    # rejects as too narrow
    out = tmp_path / "out"
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(out, "decay_fit", f"window_lo = {lo}\nwindow_hi = {hi}",
                                  solver=SPARSE_STRIDE_SOLVER))
    assert cli_main(["check", str(cfg)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["run", str(cfg), "--quiet"]) in (0, 1)
    assert int(report_rows(out, "decay_fit")["n_points"]) == solver_fv.FIT_ROWS


def test_a_decay_fit_window_that_ends_at_t_final_runs(tmp_path):
    # the rows for 6, 6.5 and 7 landed 1e-14 relative short of them, at
    # 5.999999999999987, 6.499999999999985 and 6.999999999999983: `fdfp check`
    # exited 0 and `fdfp run` 3, "fit window outside the trajectory time range"
    out = tmp_path / "out"
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(out, "decay_fit", "window_lo = 3.5\nwindow_hi = 7", cells=16,
                                  solver="kind = fv\nt_final = 7\noutput_stride = 100000"))
    assert cli_main(["check", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--quiet"]) in (0, 1)
    times = [float(row.split(",")[0])
             for row in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    assert times == [0.0, *np.linspace(3.5, 7, solver_fv.FIT_ROWS).tolist()]


def _assert_kernel_bounds_report(out, status, grid):
    """The kernel_bounds report in `out` holds `kernel_bound_sweep(grid)`, bit for bit."""
    cases = kernel_bound_sweep(grid)
    header, *lines = (out / "report_kernel_bounds.csv").read_text().splitlines()
    assert header == "p,q,m,alpha," + ",".join(f"t={t:g}" for t in BOUND_TIMES) \
        + ",max_ratio,spread,pass"
    assert len(lines) == len(cases) + 1 == 25
    for line, case in zip(lines, cases):
        p, q, m, alpha, *envelope, ratio, spread, ok = line.split(",")
        assert (p, q) == (f"p={case.spec.p:g}", f"q={case.spec.q:g}")
        assert (float(m), float(alpha)) == (case.spec.m, case.spec.alpha_order)
        assert tuple(map(float, envelope)) == case.envelope
        assert (float(ratio), float(spread)) == (case.max_ratio, case.spread)
        assert ok == str(case.holds)
    passed = all(case.holds for case in cases)
    assert lines[-1].endswith(str(passed)) and status == (0 if passed else 1)


def test_kernel_bounds_scenario_matches_the_sweep(tmp_path):
    # the experiment runs the standard matrix at BOUND_TIMES with pass bar MAX_SPREAD
    out = tmp_path / "out"
    status = run_scenario(parse_config(small_scenario(out, "kernel_bounds")))
    _assert_kernel_bounds_report(out, status, GRID32)


def test_kernel_bounds_config_reports_the_sweep_on_256_cells(tmp_path):
    # the example config reports the sweep on 256 cells of [-8, 8], each envelope included
    text = (ROOT / "configs" / "kernel_bounds.cfg").read_text()
    cfg = parse_config(text.replace("out/kernel_bounds", str(tmp_path)))
    _assert_kernel_bounds_report(tmp_path, run_scenario(cfg),
                                 fdfp.make_grid("cartesian1d", 1, 8.0, 256))


def test_entropy_control_scenario_matches_the_check(tmp_path):
    # the experiment checks eps = 0.5 on the trajectory and 100 random states
    out = tmp_path / "out"
    cfg = parse_config(small_scenario(out, "entropy_control"))
    status = run_scenario(cfg)
    states = list(solver_fv.solve(build_initial(cfg.initial, GRID32), cfg.solver_params).states)
    rng = np.random.default_rng(cfg.seed)
    states += [fdfp.DistributionState(GRID32, rng.uniform(0.0, 1.0, 32)) for _ in range(100)]
    reports = [check_entropy_control(s, 0.5) for s in states]
    rows = report_rows(out, "entropy_control")
    assert float(rows["eps"]) == 0.5
    assert float(rows["max_pointwise_violation"]) == max(r.max_pointwise_violation for r in reports)
    assert int(rows["states_checked"]) == len(states)
    passed = all(r.holds for r in reports)
    assert rows["pass"] == str(passed) and status == (0 if passed else 1)


def test_cross_check_scenario_matches_both_solvers(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(small_scenario(out, "cross_check", "time_nodes = 8",
                                      solver="kind = fv\nt_final = 0.05"))
    status = run_scenario(cfg)
    f0 = build_initial(cfg.initial, GRID32)
    du = picard_solve(f0, DuhamelParams(t_final=0.05, time_nodes=8))
    # no stride rows: one row at each Picard node
    fv = solver_fv.solve(f0, solver_fv.FvParams(t_final=0.05, output_stride=10 ** 9),
                         du.times[1:])
    l1 = [float(np.dot(GRID32.qweight, np.abs(s.values - v.values)))
          for s, v in zip(du.states[1:], fv.states[1:], strict=True)]
    table = [[float(x) for x in line.split(",")]
             for line in (out / "cross_check.csv").read_text().splitlines()[1:]]
    assert table == [[float(t), d] for t, d in zip(du.times[1:], l1)]
    rows = report_rows(out, "cross_check")
    assert float(rows["max_l1_difference"]) == max(l1)
    assert status == (0 if max(l1) <= CROSS_CHECK_TOL else 1)


def test_cross_check_options_hold_its_keys_and_params(tmp_path):
    # the options held a copy of the oracle's t_final, which nothing read
    cfg = parse_config(small_scenario(tmp_path, "cross_check", "time_nodes = 9",
                                      solver="kind = fv\nt_final = 2"))
    opts = cfg.experiments[0].options
    assert sorted(opts) == ["output_times", "params", "time_nodes", "tolerance"]
    assert opts["params"] == DuhamelParams(t_final=1.0, time_nodes=9)


@pytest.mark.parametrize("tolerance,status", [("1e9", 2), ("0", 2), ("-1", 2), ("nan", 2),
                                              ("1e-3", 0), (repr(CROSS_CHECK_TOL), 0)])
def test_cross_check_tolerance_may_tighten_the_gate_only(tmp_path, capsys, tolerance, status):
    # 1e9 switched the gate off, and -1 made it unpassable
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(tmp_path / "out", "cross_check", f"tolerance = {tolerance}"))
    assert cli_main(["check", str(cfg)]) == status
    assert ("[experiment.cross_check] tolerance must lie in (0, 0.01]"
            in capsys.readouterr().err) == bool(status)


def test_cross_check_scenario_builds_one_fv_kernel(tmp_path, monkeypatch):
    # the scenario's own solve lands on the Picard nodes, so no second march
    built = []

    class CountingKernel(solver_fv._FvKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver_fv, "_FvKernel", CountingKernel)
    cfg = parse_config(small_scenario(tmp_path / "out", "cross_check", "time_nodes = 8",
                                      solver="kind = fv\nt_final = 0.05\noutput_stride = 2"))
    run_scenario(cfg)
    assert len(built) == 1
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    node_times = DuhamelParams(t_final=0.05, time_nodes=8).time_grid()
    row_times = np.array([float(row.split(",")[0]) for row in rows])
    assert all((row_times == t).sum() == 1 for t in node_times)


@pytest.mark.parametrize("section", ["solver", "experiment.cross_check"])
@pytest.mark.parametrize("key,value", [("picard_tol", "1e-6"), ("picard_max_iter", "20"),
                                       ("singular_quad_nodes", "16")])
def test_check_rejects_removed_picard_keys(tmp_path, capsys, section, key, value):
    # the Picard numerics are constants of solver_duhamel
    if section == "solver":
        text = small_scenario(tmp_path / "out",
                              solver=f"kind = fv\nt_final = 0.05\n{key} = {value}")
    else:
        text = small_scenario(tmp_path / "out", "cross_check", f"{key} = {value}")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
        assert cli_main(command) == 2
        assert f"[{section}] unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ORDERED_OTHER = f"other_kind = scaled_fermi_dirac\nother_mass_star = {MASS_BETA1_N1}\n" \
                "other_factor = 1"


@pytest.mark.parametrize("name,key,value", [
    ("kernel_bounds", "p", "2"), ("kernel_bounds", "q", "1"), ("kernel_bounds", "m", "0"),
    ("kernel_bounds", "alpha", "1"), ("kernel_bounds", "times", "0.1"),
    ("kernel_bounds", "max_spread", "inf"), ("entropy_control", "eps", "0.5"),
    ("entropy_control", "n_random", "0"), ("comparison", "t_final", "0.01"),
])
def test_check_rejects_removed_experiment_keys(tmp_path, capsys, name, key, value):
    # each experiment runs its one definition, which no config can redefine
    options = f"{key} = {value}"
    if name == "comparison":
        options = f"{ORDERED_OTHER}\n{options}"
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(tmp_path / "out", name, options))
    for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
        assert cli_main(command) == 2
        assert f"[experiment.{name}] unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg.write_text(small_scenario(tmp_path / "out", name,
                                  ORDERED_OTHER if name == "comparison" else ""))
    assert cli_main(["check", str(cfg)]) == 0


def test_check_rejects_an_experiment_listed_twice(tmp_path, capsys):
    # the second run would overwrite the first one's report
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(small_scenario(tmp_path / "out", "decay_fit", "window_lo = 0\nwindow_hi = 0.02")
                   .replace("names = decay_fit", "names = decay_fit, decay_fit"))
    for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
        assert cli_main(command) == 2
        assert "[experiments] decay_fit is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("listed", [True, False])
def test_check_rejects_the_section_of_an_unlisted_experiment(tmp_path, capsys, listed):
    # no run reads the section, so its bad value and unknown key went unseen
    text = small_scenario(tmp_path / "out") if listed else MINIMAL.format(out=tmp_path / "out")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "\n[experiment.decay_fit]\nwindow_lo = abc\nbogus = 1\n")
    for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
        assert cli_main(command) == 2
        assert "[experiment.decay_fit] decay_fit is not listed in [experiments] names" \
            in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (valid, invalid) values of each key for the generated configs below;
# None leaves the key out.  Valid keys can still make an invalid config:
# unordered comparison pairs, a zero-mass or increasing radial profile, a
# snapshot on another grid.
GENERATED_INITIAL = {
    "fermi_dirac": {"mass": (["0.5", "2"], ["-1"])},
    "scaled_fermi_dirac": {"mass_star": (["1", "4"], ["0"]), "factor": (["0.5", "1"], ["1.5"])},
    "indicator": {"lo": (["-1", "0"], []), "hi": (["0.5", "2"], ["-1"]),
                  "height": (["0.5", "1"], ["2"])},
    "gaussian_profile": {"mass": (["1"], ["-1"]), "sigma": (["0.01", "0.5"], ["0"])},
    "from_snapshot": {"path": (["{dir}/initial.txt"], ["{dir}/missing.txt"])},
}
GENERATED_EXPERIMENTS = {
    "run": {},
    "comparison": {},
    "moment_propagation": {"order": ([None, "2"], ["3"])},
    "kernel_bounds": {},
    "entropy_control": {},
    # windows below and just above the width floors: [0.008, 0.008 + 1e-17]
    # and [0, 1e-300] passed `check` and failed the fit
    "decay_fit": {"window_lo": (["0", "0.005", "0.008"], ["-1"]),
                  "window_hi": (["0.008", "0.01", "0.00800000000000001", "0.0080000000000081",
                                 "1e-300", "1.5e-154"], ["1"])},
}


def _draw_keys(data, table, prefix=""):
    """One line per key, invalid with probability 1/8."""
    lines = []
    for key, (valid, invalid) in table.items():
        broken = invalid and data.draw(st.integers(0, 7)) == 0
        value = data.draw(st.sampled_from(invalid if broken else valid))
        if value is not None:
            lines.append(f"{prefix}{key} = {value}")
    return lines


def _draw_initial(data, prefix=""):
    kind = data.draw(st.sampled_from(sorted(GENERATED_INITIAL)))
    return [f"{prefix}kind = {kind}"] + _draw_keys(data, GENERATED_INITIAL[kind], prefix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_passes_exactly_when_run_executes(tmp_path_factory, data):
    # Left out: `cross_check` (its Picard solve can fail at run time); see
    # the README.
    root = tmp_path_factory.mktemp("generated")
    write_snapshot(fdfp.DistributionState(GRID32, 0.5 * np.exp(-GRID32.node ** 2)),
                   root / "initial.txt")
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(1, 3))
    name = data.draw(st.sampled_from(sorted(GENERATED_EXPERIMENTS)))
    lines = ["[grid]", f"geometry = {geometry}", f"dim = {dim}", "extent = 8.0",
             f"cells = {data.draw(st.sampled_from([8, 16, 32]))}",
             "[initial]", *_draw_initial(data),
             "[solver]", "kind = fv",
             *_draw_keys(data, {"t_final": (["0.01", "0.05"], ["0", "inf"]),
                                "output_stride": ([None, "1", "7", "100000"], ["0"])}),
             "[run]", f"output_dir = {root / 'out'}",
             *_draw_keys(data, {"snapshot_times": ([None, "0, 0.01"], ["nan", "-3", "100"])}),
             "[experiments]", f"names = {name}",
             f"[experiment.{name}]", *_draw_keys(data, GENERATED_EXPERIMENTS[name])]
    if name == "comparison":
        lines += _draw_initial(data, prefix="other_")
    cfg = root / "scenario.cfg"
    cfg.write_text("\n".join(lines).replace("{dir}", str(root)) + "\n")
    check = cli_main(["check", str(cfg)])
    run = cli_main(["run", str(cfg), "--quiet"])
    assert check in (0, 2)
    assert (check == 0) == (run in (0, 1)), cfg.read_text()
