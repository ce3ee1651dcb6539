"""What the benchmark under perfbench/ reads of fdfp, read here.

The tracer wraps fdfp functions by name and the workloads read parsed
scenario values by name, so a rename or a deletion fails in Tier-1, not
only in a run of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fdfp
from fdfp import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function, _ in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(f"fdfp.{module}"), function))


@pytest.mark.parametrize("name", ["radial_moments", "cross_check"])
def test_the_scenario_values_the_workloads_read(tmp_path, name):
    text = (PERFBENCH / "scenarios" / f"{name}.cfg").read_text()
    cfg = harness.parse_config(text.replace("{output_dir}", str(tmp_path))
                               .replace("{seed}", "1"))
    mesh = (cfg.geometry, cfg.dim, cfg.extent, cfg.cells)
    assert harness.build_grid(cfg) == fdfp.make_grid(*mesh)
    numbers = [*mesh[1:], cfg.initial.options["mass_star"], cfg.initial.options["factor"],
               cfg.solver_params.t_final, *cfg.snapshot_times]
    if name == "radial_moments":
        numbers.append(cfg.experiments[1].options["order"])
    else:
        fit = cfg.experiments[1].options
        numbers += [fit["window_lo"], fit["window_hi"], cfg.experiments[2].options["time_nodes"]]
    assert all(isinstance(x, (int, float)) for x in numbers)
    assert cfg.snapshot_times


@pytest.mark.parametrize("name", ["radial_moments", "cross_check"])
def test_the_benchmark_set_up_warms_the_state_run_scenario_solves_from(tmp_path, name):
    # set-up rebuilds the initial state to warm the equilibrium caches at its
    # mass; a state that drifted from cfg.f0 would put a beta(mass) solve
    # into every timed round
    text = (PERFBENCH / "scenarios" / f"{name}.cfg").read_text()
    cfg = harness.parse_config(text.replace("{output_dir}", str(tmp_path))
                               .replace("{seed}", "1"))
    rebuilt = harness.build_initial(cfg.initial, harness.build_grid(cfg))
    assert rebuilt.values.tobytes() == cfg.f0.values.tobytes()
    assert fdfp.integrate(rebuilt) == fdfp.integrate(cfg.f0)
