"""A fixed probe of the host's current speed, independent of fdfp.

The benchmark shares its machine.  On a shared 2-core Xeon host,
the same round of work took 0.10 s for a minute and 0.18 s the next,
with process CPU time following wall time: the host itself ran slower,
for minutes at a time.  A raw wall time therefore measures the
neighbours as much as fdfp.  The probe below does a fixed mix of the work
fdfp does (small-array numpy stepping, dense Gaussian matrices, Python
bytecode), and the benchmark times it right before and after each
measurement; dividing by it cancels the host's drift.

`normalise` turns a wall time into seconds on the reference host: the
host on which one probe iteration takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_PROBE_S = 0.005

_X = np.linspace(-8.0, 8.0, 128)
_EDGES = np.linspace(-8.0, 8.0, 129)
_SOURCE = "def f(a, b):\n" + "".join(f"    x{i} = a * {i} + b\n" for i in range(40)) \
    + "    return x1\n"


def _iteration() -> None:
    h = _X[1] - _X[0]
    f = 0.5 * np.exp(-_X * _X / 2)
    for _ in range(60):
        fc = np.clip(f, 1e-14, 1 - 1e-14)
        d = np.diff(_X * _X / 2 + np.log(fc / (1 - fc)))
        mob = np.where(d < 0, f[:-1] * (1 - f[1:]), f[1:] * (1 - f[:-1]))
        flux = np.zeros(129)
        flux[1:-1] = -mob * d / h
        f = f - 1e-4 * np.diff(flux) / h
    ones = np.ones(128)
    for k in range(4):
        x = _X[:, None] * (1 + 0.01 * k) - _EDGES[None, :]
        p = np.exp(-x * x / 2.0)
        float(((p[:, :-1] - p[:, 1:]) @ ones).sum())
    for _ in range(2):
        exec(compile(_SOURCE, "<probe>", "exec"), {})
        json.loads(json.dumps({str(i): [i, str(i)] for i in range(200)}))


def probe(seconds: float) -> float:
    """Seconds per probe iteration, averaged over at least `seconds`."""
    start = time.perf_counter()
    iterations = 0
    while True:
        _iteration()
        iterations += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / iterations


def normalise(wall: float, probe_before: float, probe_after: float) -> float:
    return wall * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)
