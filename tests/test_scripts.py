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


@pytest.mark.parametrize("t_final, message", [("0.6", "exceed 2/3"),
                                              ("0.7", "too short for 4 output rows")])
def test_decay_rate_study_rejects_an_unusable_fit_window(t_final, message):
    proc = run_script("decay_rate_study.py", "--cells", "64", "--t-final", t_final)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr
