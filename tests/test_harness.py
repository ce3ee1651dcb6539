import warnings

import numpy as np
import pytest

import fdfp
from fdfp import solver_fv
from fdfp.cli import main as cli_main
from fdfp.harness import (
    ConfigError,
    DIAGNOSTIC_COLUMNS,
    build_initial,
    parse_config,
    read_snapshot,
    run_scenario,
    snapshot_info,
    write_snapshot,
)

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
    assert cfg.solver_kind == "fv"
    assert cfg.initial.kind == "fermi_dirac"
    assert cfg.experiments == []


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
    assert text[0] == ",".join(DIAGNOSTIC_COLUMNS)
    data = np.array([[float(x) for x in line.split(",")] for line in text[1:]])
    # equilibrium initial data: every column except t is constant
    for col in range(1, data.shape[1]):
        assert np.abs(data[:, col] - data[0, col]).max() <= 1e-10
    report = (tmp_path / "report_run.csv").read_text()
    assert "True" in report


def test_run_scenario_decay_fit(tmp_path):
    text = """
[grid]
geometry = cartesian1d
dim = 1
extent = 8.0
cells = 128

[initial]
kind = scaled_fermi_dirac
mass_star = {mstar}
factor = 0.5

[solver]
kind = fv
t_final = 3.0
output_stride = 50

[run]
output_dir = {out}

[experiments]
names = decay_fit

[experiment.decay_fit]
window_lo = 0.2
window_hi = 2.0
""".format(mstar=MASS_BETA1_N1, out=tmp_path)
    cfg = parse_config(text)
    assert run_scenario(cfg) == 0
    report = dict(
        line.split(",") for line in
        (tmp_path / "report_decay_fit.csv").read_text().splitlines()[1:]
    )
    assert float(report["slope"]) <= float(report["rate_bound"])
    assert report["bound_satisfied"] == "True"
    assert report["pass"] == "True"


def test_run_scenario_cross_check(tmp_path):
    text = """
[grid]
geometry = cartesian1d
dim = 1
extent = 8.0
cells = 128

[initial]
kind = scaled_fermi_dirac
mass_star = {mstar}
factor = 0.5

[solver]
kind = fv
t_final = 0.2

[run]
output_dir = {out}

[experiments]
names = cross_check

[experiment.cross_check]
time_nodes = 9
singular_quad_nodes = 16
""".format(mstar=MASS_BETA1_N1, out=tmp_path)
    cfg = parse_config(text)
    assert run_scenario(cfg) == 0
    lines = (tmp_path / "cross_check.csv").read_text().splitlines()
    assert lines[0] == "t,l1_difference"
    diffs = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(diffs) <= 1e-2
    assert "True" in (tmp_path / "report_cross_check.csv").read_text()


@pytest.mark.parametrize("key", ["max_mass_drift_rel", "min_value", "max_value",
                                 "max_free_energy_rise"])
def test_run_experiment_fails_when_fv_meta_lacks_a_key(tmp_path, monkeypatch, key):
    # a missing run-record entry must not read as a passing default
    solve = solver_fv.solve

    def solve_without_key(f0, params):
        traj = solve(f0, params)
        del traj.meta[key]
        return traj

    monkeypatch.setattr(solver_fv, "solve", solve_without_key)
    cfg = parse_config(MINIMAL.format(out=tmp_path) + "\n[experiments]\nnames = run\n")
    with pytest.raises(KeyError, match=key):
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


@pytest.mark.parametrize("geometry,dim,extent,cells", [
    ("cartesian1d", 1, 8.0, 256), ("cartesian1d", 1, 8.0, 100), ("cartesian1d", 1, 6.5, 65),
    ("radialNd", 3, 8.0, 128), ("radialNd", 2, 7.3, 99),
])
def test_snapshot_grid_is_make_grid_bit_for_bit(tmp_path, geometry, dim, extent, cells):
    grid = fdfp.make_grid(geometry, dim, extent, cells)
    path = tmp_path / "state.txt"
    write_snapshot(fdfp.DistributionState(grid, np.full(cells, 0.25)), path)
    back = read_snapshot(path)[0].grid
    assert back.matches(grid) and back.width == grid.width
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
                   "radialNd,3,2,-1,0", "radialNd,0,2,1,0"):
        path.write_text(f"fdfp-snapshot v1\n{header}\n")
        with pytest.raises(ValueError, match="invalid header"):
            read_snapshot(path)


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
    path.write_text("fdfp-snapshot v1\ncartesian1d,1,3,3,0\n-2,0.25\n0,1.2\n2,0.125\n")
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


def test_cli_check_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    assert cli_main(["check", str(cfg_path)]) == 0
    bad_path = tmp_path / "bad.cfg"
    bad_path.write_text("[grid]\ngeometry = nope\n")
    assert cli_main(["check", str(bad_path)]) == 2
    assert cli_main(["check", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_and_snapshot_info(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=out)
                        + "\n[experiments]\nnames = run\n")
    assert cli_main(["run", str(cfg_path), "--quiet"]) == 0
    assert (out / "diagnostics.csv").exists()

    eq = fdfp.equilibrium_state(1.0, fdfp.make_grid("cartesian1d", 1, 8.0, 64))
    snap = tmp_path / "s.txt"
    write_snapshot(eq, snap, time=0.0)
    assert cli_main(["snapshot-info", str(snap)]) == 0
    assert "cells: 64" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [
    ("cfl_safety", "0.75"), ("cfl_safety", "1.0"), ("cfl_safety", "0"), ("cfl_safety", "-1"),
    ("clamp_delta", "0"), ("clamp_delta", "-1"), ("clamp_delta", "0.5"), ("clamp_delta", "0.6"),
])
def test_cli_check_rejects_unsafe_fv_params(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(MINIMAL.replace("[run]", f"{key} = {value}\n\n[run]")
                        .format(out=tmp_path / "out"))
    assert cli_main(["check", str(cfg_path)]) == 2
    assert key in capsys.readouterr().err


RADIAL_GRID = "geometry = radialNd\ndim = 3"
DUHAMEL_SOLVER = "kind = duhamel\nt_final = 0.05\ntime_nodes = 8"


@pytest.mark.parametrize("experiment,grid,solver,named", [
    ("comparison", None, DUHAMEL_SOLVER, "comparison"),
    ("moment_propagation", RADIAL_GRID, DUHAMEL_SOLVER, "moment_propagation"),
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
    rows = dict(line.split(",", 1) for line in
                (tmp_path / "report_moment_propagation.csv").read_text().splitlines()[1:])
    assert float(rows["spread"]) == rep.spread
    assert float(rows["sup_tail"]) == rep.sup_tail
    assert [float(rows[f"sup_moment_t{hz:g}"]) for hz in rep.horizons] == list(rep.sup_moment)
    assert rows["monotone_preserved"] == str(rep.monotone_preserved)
