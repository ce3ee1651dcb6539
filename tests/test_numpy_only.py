"""fdfp runs on numpy alone; scipy is only an oracle of the tests."""

import os
import subprocess
import sys
from pathlib import Path

from fdfp.harness import _EXPERIMENTS

from conftest import MASS_BETA1_N1

ROOT = Path(__file__).resolve().parents[1]
# makes `import scipy`, and the import of every scipy submodule, fail
BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None\n'


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_importing_fdfp_loads_no_scipy():
    proc = run_python("import sys, fdfp, fdfp.cli\n"
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SCENARIO = """
[grid]
geometry = {geometry}
dim = {dim}
extent = 8.0
cells = 64

[initial]
kind = scaled_fermi_dirac
mass_star = {mass_star}
factor = 0.5

[solver]
kind = fv
t_final = 0.5
output_stride = 10

[run]
output_dir = {out}
snapshot_times = 0.0, 0.5

[experiments]
names = {names}

[experiment.comparison]
other_kind = scaled_fermi_dirac
other_mass_star = {mass_star}
other_factor = 0.9

[experiment.decay_fit]
window_lo = 0.1
window_hi = 0.5

[experiment.cross_check]
time_nodes = 8
"""
SCENARIOS = {
    "cartesian": dict(geometry="cartesian1d", dim=1, mass_star=MASS_BETA1_N1,
                      names="run, comparison, decay_fit, kernel_bounds, entropy_control, "
                            "cross_check"),
    "radial": dict(geometry="radialNd", dim=3, mass_star=4.0,
                   names="run, moment_propagation, decay_fit, entropy_control"),
}


def test_every_experiment_runs_without_scipy(tmp_path):
    ran = set()
    for label, fields in SCENARIOS.items():
        names = [name.strip() for name in fields["names"].split(",")]
        out = tmp_path / label
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(SCENARIO.format(out=out, **fields))
        for command in (["check", str(cfg)], ["run", str(cfg), "--quiet"]):
            proc = run_python(BLOCK_SCIPY + "from fdfp.cli import main\n"
                                            "raise SystemExit(main(sys.argv[1:]))", *command)
            assert proc.returncode == 0, proc.stderr
        assert all((out / f"report_{name}.csv").is_file() for name in names)
        ran.update(names)
    assert ran == set(_EXPERIMENTS)
