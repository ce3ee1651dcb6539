"""Spans around calls into fdfp, recorded from the benchmark's own code.

`Tracer.install` replaces a function with a timing wrapper in every fdfp
module that binds it, so calls are caught where the callers look them up
(`solver_fv` calls its own `potential` binding, the harness calls
`solver_fv.solve`).  No fdfp source is changed, and untraced runs install
nothing.  Spans (name, start, end, parent) stay in memory and are written
once, by `write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _run_record(result, key):
    """A count from a solver's run record: a `meta` mapping or attributes."""
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        return meta.get(key, 0)
    return getattr(meta, key, getattr(result, key, 0))


# (module, function, extra count taken from each call's arguments and result)
LAYERS = [
    ("harness", "parse_config", None),
    ("harness", "run_scenario", None),
    ("solver_fv", "solve", lambda args, res: {"solver_fv.steps": _run_record(res, "steps")}),
    ("solver_fv", "comparison_experiment",
     lambda args, res: {"solver_fv.comparison.steps": res.steps}),
    ("solver_fv", "max_stable_dt", None),
    ("solver_fv", "radial_moment_propagation", None),
    ("functionals", "potential", None),
    ("functionals", "upwind_mobility", None),
    ("functionals", "entropy_density", None),
    ("functionals", "compute_diagnostics", None),
    ("functionals", "equilibrium_free_energy", None),
    ("equilibrium", "beta_of_mass", None),
    ("equilibrium", "equilibrium_state", None),
    ("mehler", "apply_kernel_gradient_edges",
     lambda args, res: {"mehler.kernel_matrix_bytes": args[1].cells * (args[1].cells + 1) * 8}),
    ("solver_duhamel", "picard_solve",
     lambda args, res: {"solver_duhamel.iterations": _run_record(res, "iterations")}),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent span or -1]
        self.stack: list[int] = []
        self.counts: list[tuple] = []  # (span index, count name, value)
        self.patches: list[tuple] = []

    def install(self) -> None:
        fdfp_modules = [m for k, m in list(sys.modules.items())
                        if m is not None and (k == "fdfp" or k.startswith("fdfp."))]
        for module_name, func_name, extra in LAYERS:
            original = getattr(sys.modules[f"fdfp.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, extra)
            for module in fdfp_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def _wrap(self, name, original, extra):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                for key, value in extra(args, result).items():
                    counts.append((index, key, value))
            return result

        return traced

    def mark(self) -> int:
        """Position in the span list; spans after a mark belong to a later phase."""
        return len(self.spans)

    def totals(self, start: int, stop: int) -> tuple[dict, dict, dict, float]:
        """Calls, seconds and run-record counts per layer over spans[start:stop],
        and the self time of run_scenario (its span minus its direct children)."""
        counts: dict[str, float] = defaultdict(float)
        for index, key, value in self.counts:
            if start <= index < stop:
                counts[key] += value
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for index in range(start, stop):
            name_index, t0, t1, parent = self.spans[index]
            name = self.names[name_index]
            calls[name] += 1
            seconds[name] += t1 - t0
            if parent >= 0:
                child_time[parent] += t1 - t0
        scenario = self.names.index("harness.run_scenario")
        harness_self = sum(self.spans[i][2] - self.spans[i][1] - child_time[i]
                           for i in range(start, stop) if self.spans[i][0] == scenario)
        return calls, seconds, counts, harness_self

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
