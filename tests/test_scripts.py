import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_decay_rate_study_short_run_prints_every_factor():
    # with the default stride of 100 the fit window of this run held one row
    proc = run_script("decay_rate_study.py", "--cells", "64", "--t-final", "2")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["0.25", "0.50", "0.75", "0.90"]
    assert all(row.split()[-1] == "True" for row in rows)


def test_decay_rate_study_fits_a_short_window():
    # the window (0.5, 0.525) is shorter than a few strides; the march lands
    # on its 8 rows all the same
    proc = run_script("decay_rate_study.py", "--cells", "64", "--t-final", "0.7")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["0.25", "0.50", "0.75", "0.90"]
    assert all(row.split()[-1] == "True" for row in rows)


@pytest.mark.parametrize("t_final, message", [("0.6", "exceed 2/3"), ("nan", "exceed 2/3")])
def test_decay_rate_study_rejects_an_unusable_fit_window(t_final, message):
    proc = run_script("decay_rate_study.py", "--cells", "64", "--t-final", t_final)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--cells", "4"), "--cells: at least 8 cells required"),
    (("--beta-star", "0"), "--beta-star: beta must be strictly positive"),
    (("--beta-star", "-1"), "--beta-star: beta must be strictly positive"),
    (("--t-final", "inf"), "--t-final: t_final must be positive and finite"),
])
def test_decay_rate_study_rejects_what_the_library_rejects(args, message):
    # these died with a ValueError traceback and exit 1
    proc = run_script("decay_rate_study.py", *args)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_decay_rate_study_reports_data_at_equilibrium():
    # at beta* = 1e9 the data start at the entropy floor, so no slope is fitted;
    # printing that slope died with a TypeError
    proc = run_script("decay_rate_study.py", "--beta-star", "1e9", "--cells", "64",
                      "--t-final", "2")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == 4 and all(row.endswith("at equilibrium      True") for row in rows)


@pytest.mark.parametrize("t_final", ["1.5", "0", "nan"])
def test_cross_solver_check_rejects_a_horizon_outside_the_picard_range(t_final):
    # 1.5 used to die with a DuhamelParams traceback and exit 1
    proc = run_script("cross_solver_check.py", "--t-final", t_final)
    assert proc.returncode == 2
    assert "--t-final must lie in (0, 1]" in proc.stderr and "Traceback" not in proc.stderr
