import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdfp
from fdfp import solver_fv
from fdfp.equilibrium import discrete_equilibrium
from fdfp.functionals import free_energy, free_energy_parts, sg_weights
from fdfp.solver_fv import (
    ComparisonReport,
    FvParams,
    FvRun,
    _FvKernel,
    comparison_experiment,
    decay_rate_fit,
    max_stable_dt,
    radial_moment_propagation,
    rate_constant,
    require_output_times,
    solve,
)
from fdfp.solver_duhamel import DuhamelParams

from conftest import MASS_BETA1_N1, columns, fuzz_state, state_diagnostics
from mutants import MUTANTS, mutant_area


# The explicit scheme with one whole-array expression per formula.  The
# fused `_FvKernel` keeps every floating-point operation and its order, so
# it must reproduce `_ref_advance` bit for bit.  `_textbook_flux` is the
# exclusion Scharfetter-Gummel flux as written, with B(x) = x/(e^x - 1) from
# its own formula, which the kernel must match to roundoff, and
# `_monotone_bound` the step bound derived beside `solver_fv.STEP_FACTOR`.

def _ref_advance(values, dt, grid):
    w = sg_weights(grid)
    left, right = values[..., :-1], values[..., 1:]
    aF = np.zeros(values.shape[:-1] + (grid.cells + 1,))
    aF[..., 1:-1] = w[0] * (left * (1.0 - right)) - w[1] * ((1.0 - left) * right)
    return values - np.diff(aF) * (dt / grid.qweight)


def _bernoulli(x):
    """B(x) = x/(e^x - 1) = x e^(-x/2) / (2 sinh(x/2)), B(0) = 1."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0, 1.0, x)
    return np.where(x == 0, 1.0, safe * np.exp(-safe / 2) / (2 * np.sinh(safe / 2)))


def _textbook_flux(values, grid):
    """F_(i+1/2) = (1/h)[B(dphi) f_i (1 - f_(i+1)) - B(-dphi) f_(i+1) (1 - f_i)]
    at each interior interface, and the magnitudes of its two terms."""
    dphi = np.diff(grid.node ** 2 / 2)
    left, right = values[:-1], values[1:]
    out = _bernoulli(dphi) * left * (1 - right) / grid.width
    back = _bernoulli(-dphi) * right * (1 - left) / grid.width
    return out - back, out + back


def _monotone_bound(grid):
    """min_i q_i h / (A_(i-1/2) max B_(i-1/2) + A_(i+1/2) max B_(i+1/2)), the
    boundary interfaces carrying no flux."""
    dphi = np.diff(grid.node ** 2 / 2)
    worst = np.concatenate([[0.0], np.maximum(_bernoulli(dphi), _bernoulli(-dphi)), [0.0]])
    rate = grid.interface_area * worst
    return float(np.min(grid.qweight * grid.width / (rate[:-1] + rate[1:])))


def _ref_steps(targets, dt):
    """(size, time, landed) of each step of the march onto the increasing
    `targets`: each gap in ceil(gap / dt) equal steps, one more where rounding
    puts their size above dt, the gap's last step landing on its target."""
    t = 0.0
    for target in targets:
        gap = target - t
        n = math.ceil(gap / dt)
        if gap / n > dt:
            n += 1
        for k in range(1, n + 1):
            yield gap / n, target if k == n else t + k * (gap / n), k == n
        t = target


def _ref_solve(f0, params, output_times=()):
    """The march of `solve`, with per-step reductions of every monitor, and
    the diagnostics of its rows from the single-state functionals."""
    grid = f0.grid
    mass = fdfp.integrate(f0)
    eq = discrete_equilibrium(mass, grid)
    h_eq = free_energy(eq)
    values = f0.values.copy()
    times, states = [0.0], [f0.values]
    min_val, max_val = float(values.min()), float(values.max())
    max_drift = max_rise = 0.0
    h_prev = free_energy(f0)
    steps = 0
    targets = require_output_times(output_times, params.t_final)
    for size, t, landed in _ref_steps(targets, max_stable_dt(f0)):
        values = _ref_advance(values, size, grid)
        steps += 1
        min_val = min(min_val, float(values.min()))
        max_val = max(max_val, float(values.max()))
        m = float(np.dot(grid.qweight, values))
        max_drift = max(max_drift, abs(m - mass) / max(abs(mass), 1e-300))
        h_now = free_energy(fdfp.DistributionState(grid, values))
        max_rise = max(max_rise, h_now - h_prev)
        h_prev = h_now
        if steps % params.output_stride == 0 or landed:
            times.append(t)
            states.append(values)
    run = FvRun(min_value=min_val, max_value=max_val, max_mass_drift_rel=max_drift,
                max_free_energy_rise=max_rise, steps=steps)
    rows = state_diagnostics([fdfp.DistributionState(grid, v) for v in states], eq, h_eq)
    return times, states, rows, run


def _ref_comparison(f0, g0, params):
    """Two single-state marches onto t_final."""
    grid = f0.grid
    fv, gv = f0.values.copy(), g0.values.copy()
    l1_0 = float(np.dot(grid.qweight, np.abs(fv - gv)))
    max_pos = max_slack = 0.0
    steps = 0
    for size, _, _ in _ref_steps([params.t_final], max_stable_dt(f0)):
        fv, gv = _ref_advance(fv, size, grid), _ref_advance(gv, size, grid)
        steps += 1
        max_pos = max(max_pos, float((fv - gv).max()))
        max_slack = max(max_slack, float(np.dot(grid.qweight, np.abs(fv - gv))) - l1_0)
    return ComparisonReport(max_positive_part=max(max_pos, 0.0), max_contraction_slack=max_slack,
                            steps=steps)


def _rough_values(grid, rng, support=3.0):
    """Exact 0 and 1 cells among U(0, 1) draws, zero beyond |v| = support."""
    kind = rng.choice(3, size=grid.cells, p=[0.3, 0.2, 0.5])
    v = np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, rng.uniform(0, 1, grid.cells)))
    v[grid.speed > support] = 0.0
    return v


_cell_value = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_step_matches_reference_formulas(data):
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.sampled_from([1, 2, 3, 5, 8]))
    cells = data.draw(st.integers(9, 128))
    values = np.array(data.draw(st.lists(_cell_value, min_size=cells, max_size=cells)))
    grid = fdfp.make_grid(geometry, dim, data.draw(st.sampled_from([4.0, 8.0])), cells)

    kernel = _FvKernel(grid, values)
    dt = kernel.dt
    assert dt == max_stable_dt(fdfp.DistributionState(grid, values))
    # the monotone bound that `STEP_FACTOR`'s derivation promises
    assert dt <= _monotone_bound(grid)

    rows = np.empty((1, cells))
    kernel.advance(dt, rows)
    new = _ref_advance(values, dt, grid)
    assert np.array_equal(kernel.values, new) and np.array_equal(rows[0], new)
    assert np.all((new >= 0) & (new <= 1))
    # the kernel's flux against the textbook formula, so that a sign or
    # factor shared by the kernel and `_ref_advance` still fails: they may
    # differ by a few ulps of the flux's two terms, and the update by a few
    # ulps of f and of dt A |terms| / q where these lie far above underflow
    # (below, both round absolutely)
    flux, terms = _textbook_flux(values, grid)
    area = grid.interface_area[1:-1]
    eps, normal = np.finfo(float).eps, np.finfo(float).tiny / np.finfo(float).eps
    big = area * terms > normal
    assert np.all(np.abs(kernel.flux[1:-1] - area * flux)[big] <= 16 * eps * (area * terms)[big])
    aF = np.concatenate([[0.0], area * flux, [0.0]])
    textbook = values - dt * np.diff(aF) / grid.qweight
    bound = np.concatenate([[0.0], area * terms, [0.0]])
    bound = values + dt * (bound[1:] + bound[:-1]) / grid.qweight
    big = bound > normal
    assert np.all(np.abs(new - textbook)[big] <= 16 * eps * bound[big])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_advance_call_matches_one_call_per_step(data):
    # runs of steps of one size per call, the mesh's or a smaller one, on
    # one state or a (2, cells) pair
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(2, 3))
    cells = data.draw(st.integers(9, 128))
    shape = data.draw(st.sampled_from([(cells,), (2, cells)]))
    count = math.prod(shape)
    values = np.array(data.draw(st.lists(_cell_value, min_size=count, max_size=count)))
    values = values.reshape(shape)
    grid = fdfp.make_grid(geometry, dim, data.draw(st.sampled_from([4.0, 8.0])), cells)

    kernel = _FvKernel(grid, values)
    single, expected = _FvKernel(grid, values), values
    for size in (kernel.dt, kernel.dt * data.draw(st.floats(0.01, 0.99))):
        rows = np.empty((data.draw(st.integers(1, 40)),) + shape)
        kernel.advance(size, rows)
        for got in rows:
            row = np.empty((1,) + shape)
            single.advance(size, row)
            expected = _ref_advance(expected, size, grid)
            assert np.array_equal(got, row[0]) and np.array_equal(got, expected)
    assert np.array_equal(kernel.values, single.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_a_batch_is_its_rows_stepped_alone(geometry, dim, rng):
    # a (3, cells) batch whose rows start and end on exact 1 and 0 cells
    # keeps every bit of each row's single-state march
    cells = 24
    grid = fdfp.make_grid(geometry, dim, 4.0, cells)
    values = np.array([_rough_values(grid, rng, support=4.0) for _ in range(3)])
    values[:, 0], values[:, -1] = [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    batch = _FvKernel(grid, values)
    singles = [_FvKernel(grid, row) for row in values]
    assert all(single.dt == batch.dt for single in singles)
    for fraction, steps in [(1.0, 1), (0.5, 3), (0.25, 1), (0.125, 4)]:
        rows = np.empty((steps, 3, cells))
        batch.advance(batch.dt * fraction, rows)
        for r, single in enumerate(singles):
            row = np.empty((steps, cells))
            single.advance(batch.dt * fraction, row)
            assert np.array_equal(rows[:, r], row)
            assert np.array_equal(batch.values[r], single.values)
    assert np.all((batch.values >= 0) & (batch.values <= 1))


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_solve_matches_reference_march(geometry, dim, rng):
    grid = fdfp.make_grid(geometry, dim, 8.0, 64)
    f0 = fdfp.DistributionState(grid, _rough_values(grid, rng))
    # t_final at the end of the 50th step
    params = FvParams(t_final=math.fsum([max_stable_dt(f0)] * 50), output_stride=7)
    traj = solve(f0, params)
    times, states, rows, run = _ref_solve(f0, params)
    assert traj.meta.steps == run.steps
    assert traj.times.tolist() == times
    assert len(traj.states) == len(states)
    assert all(np.array_equal(s.values, r) for s, r in zip(traj.states, states))
    assert columns(traj) == rows
    assert traj.meta == run


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_comparison_matches_two_reference_marches(geometry, dim, rng):
    grid = fdfp.make_grid(geometry, dim, 8.0, 48)
    eq = fdfp.equilibrium_state(1.0, grid).values
    rough = _rough_values(grid, rng)
    pairs = [(0.5 * eq, eq), (0.999 * rough, rough), (rough * rng.uniform(0, 1, 48), rough)]
    for f, g in pairs:
        f0, g0 = fdfp.DistributionState(grid, f), fdfp.DistributionState(grid, g)
        params = FvParams(t_final=0.5)
        rep = comparison_experiment(f0, g0, params)
        assert rep.steps > 20
        assert rep == _ref_comparison(f0, g0, params)
        assert rep.holds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_march_matches_reference_marches(data):
    # blocks of equal steps onto output times and t_final: rows, times,
    # run records and reports are the per-step reference's
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(2, 3))
    cells = data.draw(st.integers(9, 40))
    grid = fdfp.make_grid(geometry, dim, 8.0, cells)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        g = _rough_values(grid, rng, support=data.draw(st.floats(0.5, 4.0)))
        assume(g.max() > 0)   # the reference measures against an equilibrium
    else:
        g = data.draw(st.floats(0.05, 1.0)) * fdfp.equilibrium_state(
            data.draw(st.floats(0.1, 4.0)), grid).values
    f0 = fdfp.DistributionState(grid, g)
    # up to 4 blocks of steps, ending on either side of a block's end
    t_final = max_stable_dt(f0) * data.draw(
        st.sampled_from([1.0, 10.5, 63.0, 64.0, 65.0, 129.5, 200.0]))
    params = FvParams(t_final=t_final, output_stride=data.draw(st.integers(1, 80)))
    fractions = data.draw(st.lists(st.floats(1e-3, 1.0), max_size=4))
    output_times = sorted({x * t_final for x in fractions})

    traj = solve(f0, params, output_times)
    times, states, rows, run = _ref_solve(f0, params, output_times)
    assert traj.times.tolist() == times
    assert all(np.array_equal(s.values, r) for s, r in zip(traj.states, states, strict=True))
    assert columns(traj) == rows
    assert traj.meta == run

    f = g * data.draw(st.sampled_from([0.999, 0.5])) if data.draw(st.booleans()) \
        else g * rng.uniform(0, 1, cells)
    pair = fdfp.DistributionState(grid, f), f0
    assert comparison_experiment(*pair, params) == _ref_comparison(*pair, params)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_each_gap_takes_equal_steps_of_at_most_the_mesh_step(data):
    # any mesh, any strictly increasing output times, pairs one ulp apart
    # among them: each `advance` call takes one size, no step exceeds dt,
    # each gap takes ceil(gap / dt) steps, one more only where rounding puts
    # gap / ceil(gap / dt) above dt, and the row on each target carries it
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(2, 3))
    grid = fdfp.make_grid(geometry, dim, data.draw(st.sampled_from([4.0, 8.0])),
                          data.draw(st.integers(9, 40)))
    kernel = _FvKernel(grid, 0.5 * fdfp.equilibrium_state(1.0, grid).values)
    dt = kernel.dt
    # or one ulp above a whole number of steps, where gap / dt may round to it
    t_final = dt * data.draw(st.floats(1e-3, 200.0)) if data.draw(st.booleans()) \
        else math.nextafter(dt * data.draw(st.integers(1, 200)), math.inf)
    times = {x * t_final for x in data.draw(st.lists(st.floats(1e-6, 1.0), max_size=5))}
    times |= {math.nextafter(t, 0.0) for t in list(times)[:data.draw(st.integers(0, 2))]}
    if data.draw(st.booleans()):
        times.add(math.nextafter(t_final, 0.0))
    targets = require_output_times(sorted(times), t_final)

    calls, advance = [], kernel.advance
    kernel.advance = lambda size, rows: (calls.append((size, len(rows))), advance(size, rows))
    blocks = [(list(t), landed) for t, _, landed in solver_fv._march(kernel, targets)]
    assert len(calls) == len(blocks)

    start = 0.0
    for target in targets:
        gap, sizes, gap_times = target - start, set(), []
        while True:
            (size, rows), (block_times, landed) = calls.pop(0), blocks.pop(0)
            assert type(size) is float and size <= dt
            sizes.add(size)
            gap_times += block_times[-rows:]   # the first block also leads with t = 0
            if landed:
                break
        n, count = math.ceil(gap / dt), len(gap_times)
        assert count == n or (count == n + 1 and gap / n > dt), (gap / dt, count)
        assert sizes == {gap / count}
        assert gap_times[-1] == target
        assert start < min(gap_times) and max(gap_times[:-1], default=start) < target
        start = target
    assert not calls and not blocks


def test_a_gap_that_divides_to_a_whole_number_of_steps_may_take_one_more():
    # on 16 Cartesian cells, 65 dt rounded up by one ulp divides by dt to
    # 65.0, but by 65 to a size above dt
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 16)
    f0 = fdfp.DistributionState(grid, 0.5 * fdfp.equilibrium_state(1.0, grid).values)
    dt = max_stable_dt(f0)
    t_final = math.nextafter(65 * dt, math.inf)
    assert t_final / dt == 65.0 and t_final / 65 > dt
    traj = solve(f0, FvParams(t_final=t_final))
    assert traj.meta.steps == 66 and traj.times[-1] == t_final


def test_block_march_runs_settled_steps_in_one_kernel_call(monkeypatch):
    # the radial_moments data (0.9 F_{M*} with M* = 4, radial N = 3, 128
    # cells, t = 10): one `advance` call per yielded block of up to 64 equal
    # steps; a march that called it once per step would fail here
    grid = fdfp.make_grid("radialNd", 3, 8.0, 128)
    f0 = fdfp.DistributionState(grid, 0.9 * fdfp.equilibrium_state(4.0, grid).values)
    advances, blocks = [], []
    advance, march = _FvKernel.advance, solver_fv._march

    def counted_advance(self, dt, rows):
        advances.append(len(rows))
        return advance(self, dt, rows)

    def counted_march(kernel, targets):
        for block in march(kernel, targets):
            blocks.append(len(block[0]))
            yield block

    monkeypatch.setattr(_FvKernel, "advance", counted_advance)
    monkeypatch.setattr(solver_fv, "_march", counted_march)
    traj = solve(f0, FvParams(t_final=10.0, output_stride=200))
    assert traj.meta.steps > 10_000
    assert len(advances) == len(blocks) == math.ceil(traj.meta.steps / 64)
    assert sum(advances) == traj.meta.steps and sum(blocks) == 1 + traj.meta.steps


def test_solve_and_comparison_log_steps_and_the_step_size(caplog):
    grid = fdfp.make_grid("radialNd", 3, 8.0, 32)
    g = _rough_values(grid, np.random.default_rng(10), support=1.5)
    f0, g0 = fdfp.DistributionState(grid, 0.5 * g), fdfp.DistributionState(grid, g)
    params = FvParams(t_final=2.0)
    dt = max_stable_dt(g0)
    with caplog.at_level(logging.INFO, logger="fdfp.solver_fv"):
        steps = [solve(g0, params).meta.steps, comparison_experiment(f0, g0, params).steps]
    assert [r.message for r in caplog.records if r.levelno == logging.INFO] == [
        f"solve: {steps[0]} steps of {dt!r}", f"comparison_experiment: {steps[1]} steps of {dt!r}"]
    assert steps[0] == steps[1]


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_solve_warns_of_boundary_density_off_its_last_row(geometry, dim, caplog):
    # the warning reads the outer cell of the final row: on a Cartesian grid
    # the larger of its two ends, on a radial one the last cell alone (r = 0
    # is no boundary)
    grid = fdfp.make_grid(geometry, dim, 8.0, 32)
    node, warn = grid.node, solver_fv.BOUNDARY_DENSITY_WARN
    bumps = {"first cells": node <= node[3], "last cells": node >= node[-4],
             "middle": np.abs(node - node[16]) < 1.0, "outer cell": node == node[-1]}
    outcomes = set()
    for name, bump in bumps.items():
        for height, t_final in ((0.5, 0.01), (2e-8, 1e-4), (0.5, 1.0)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fdfp.solver_fv"):
                last = solve(fdfp.DistributionState(grid, np.where(bump, height, 0.0)),
                             FvParams(t_final=t_final)).values[-1]
            ends = (last[0], last[-1]) if geometry == "cartesian1d" else (last[-1],)
            density = max(abs(end) for end in ends)
            expected = [f"boundary density {density:.3e} exceeds {warn:.1e}; the domain "
                        "truncation may be under-resolved"] if density > warn else []
            assert [r.message for r in caplog.records] == expected, (name, height, t_final)
            outcomes.add((name, density > warn, last[0] > warn, last[-1] > warn))
    # each side of the bound is seen, and an end that the geometry ignores or
    # that is the smaller one
    assert {warned for _, warned, _, _ in outcomes} == {True, False}
    if geometry == "cartesian1d":
        assert ("first cells", True, True, False) in outcomes
    else:
        assert ("first cells", False, True, False) in outcomes


def test_a_step_size_that_is_not_finite_and_positive_raises():
    # a step size of 0 or NaN ended the march after its t = 0 row and raised
    # nothing.  On a mesh of width 3e-302 the explicit step size, of order
    # h^2, underflows to 0 (high radial dims gave such sizes before the dim rule)
    grid = fdfp.Grid("cartesian1d", 1, 1e-300, 64)
    f0 = fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 0.5e-300, 1.0, 0.0))
    with pytest.raises(ValueError, match="step size .* is not finite and positive"):
        solve(f0, FvParams(t_final=1.0))


def test_params_validation():
    # an infinite t_final would march forever
    for t_final in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_final"):
            FvParams(t_final=t_final)
    # the one integer rule of fdfp (grid.as_integer): integral numbers only
    for stride in (0, -1, 2.5, math.nan, math.inf, "7", None):
        with pytest.raises(ValueError, match="^output_stride must be an integer >= 1$"):
            FvParams(t_final=1.0, output_stride=stride)
    for stride in (np.int64(7), 7.0, np.float64(7)):
        assert type(FvParams(t_final=1.0, output_stride=stride).output_stride) is int
        assert FvParams(t_final=1.0, output_stride=stride) == FvParams(t_final=1.0, output_stride=7)
    assert [f.name for f in dataclasses.fields(FvParams)] == ["t_final", "output_stride"]


@pytest.mark.parametrize("t_final", [np.float64(0.5), np.float32(0.5), np.int64(1)])
def test_solve_takes_a_numpy_scalar_t_final(t_final):
    # stored as a float, so the solve is the float solve bit for bit
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 64)
    f0 = fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0))
    params = FvParams(t_final=t_final)
    assert type(params.t_final) is float and params == FvParams(t_final=float(t_final))
    got, want = solve(f0, params), solve(f0, FvParams(t_final=float(t_final)))
    assert np.array_equal(got.times, want.times) and np.array_equal(got.values, want.values)
    assert got.meta == want.meta



def test_fused_free_energy_matches_free_energy(rng):
    # the run record's free energies of a block of rows, in one pass, are
    # `free_energy` of each row bit for bit, exact 0 and 1 cells among them
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        for n in (32, 64, 128):
            grid = fdfp.make_grid(geometry, dim, 8.0, n)
            rows = np.empty((200, n))
            for trial, v in enumerate(rows):
                v[...] = fuzz_state(grid, rng).values if trial % 2 else _rough_values(grid, rng)
            entropy, energy = free_energy_parts(rows, grid)
            assert (entropy + energy).tolist() \
                == [free_energy(fdfp.DistributionState(grid, v)) for v in rows]


def test_free_energy_parts_is_the_clipped_formula_bit_for_bit():
    # a block in [0, 1] (exact 0 and 1 cells, a -0.0 cell) skips the clip
    # and the range check, a block a hair outside is clipped, and a NaN
    # still raises: each against the formula as written, clip, then
    # x log(max(x, tiny)) per term, then numpy's dot of each row
    tiny = np.finfo(float).tiny
    grid = fdfp.make_grid("radialNd", 3, 8.0, 16)
    inside = np.array([np.linspace(0.0, 1.0, 16), np.linspace(1.0, 0.0, 16) ** 3])
    inside[0, 5] = -0.0
    below, above, nan = inside.copy(), inside.copy(), inside.copy()
    below[1, 7] = -1e-17
    above[0, 9] = np.nextafter(1.0, 2.0)
    nan[1, 3] = np.nan
    for block in (inside, below, above):
        x = np.clip(block, 0.0, 1.0)
        density = x * np.log(np.maximum(x, tiny)) + (1 - x) * np.log(np.maximum(1 - x, tiny))
        entropy, _ = free_energy_parts(block, grid)
        assert entropy.tolist() == [np.dot(grid.qweight, row) for row in density]
    with pytest.raises(ValueError, match=r"entropy density is defined on \[0, 1\]"):
        free_energy_parts(nan, grid)


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_solve_lands_on_output_times(geometry, dim, rng):
    grid = fdfp.make_grid(geometry, dim, 8.0, 64)
    f0 = fdfp.DistributionState(grid, _rough_values(grid, rng))
    params = FvParams(t_final=0.1, output_stride=7)
    plain = solve(f0, params)
    # the 14th step is a stride row; as an output time it adds no row
    on_stride = float(plain.times[2])
    output_times = [on_stride, (on_stride + 0.1) / 2, 0.1]
    traj = solve(f0, params, output_times)
    times, states, rows, run = _ref_solve(f0, params, output_times)
    assert traj.times.tolist() == times
    assert all(np.array_equal(s.values, r) for s, r in zip(traj.states, states, strict=True))
    assert columns(traj) == rows
    assert traj.meta == run
    assert traj.times[2] == on_stride and traj.times.tolist() != plain.times.tolist()
    for target in output_times:
        assert (traj.times == target).sum() == 1
    # the march to an output time is that of a solve ending there
    first = solve(f0, FvParams(t_final=on_stride))
    assert np.array_equal(traj.states[2].values, first.states[-1].values)
    # t_final as an output time changes nothing
    again = solve(f0, params, [0.1])
    assert again.times.tolist() == plain.times.tolist()
    assert all(np.array_equal(a.values, b.values) for a, b in zip(again.states, plain.states))
    assert again.meta == plain.meta
    for shape in (0.05, [[0.01, 0.05]]):
        with pytest.raises(ValueError, match="output_times"):
            solve(f0, params, shape)


def test_the_last_row_and_every_output_time_land_bit_for_bit():
    # the march counts a target reached 1e-14 relative short of it: the
    # last row lay at 1.9999999999999971, and the row for 0.5 of a
    # decay_fit window at 0.4999999999999998, outside the window
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 32)
    f0 = fdfp.DistributionState(grid, 0.5 * fdfp.equilibrium_state(MASS_BETA1_N1, grid).values)
    params = FvParams(2.0, 100000)
    assert solve(f0, params).times.tolist() == [0.0, 2.0]
    window = np.linspace(0.5, 1.5, solver_fv.FIT_ROWS).tolist()
    assert solve(f0, params, window).times.tolist() == [0.0, *window, 2.0]


# Radial N = 1 is the Cartesian line folded at 0: its cell measures are 2h
# and its interface areas 2, so on even data radialNd with n cells on [0, 8]
# marches step for step with cartesian1d on 2n cells of [-8, 8].  A wrong
# radial area (r^N, say) passes the structural criteria but not this.
@pytest.mark.parametrize("cells", [64, 128])
@pytest.mark.parametrize("profile", [lambda v: 0.9 * np.exp(-v ** 2 / 4),
                                     lambda v: np.where(np.abs(v) < 2, 1.0, 0.0)],
                         ids=["gaussian", "indicator"])
def test_radial_line_is_the_cartesian_line_folded_at_zero(profile, cells):
    half = fdfp.make_grid("radialNd", 1, 8.0, cells)
    line = fdfp.make_grid("cartesian1d", 1, 8.0, 2 * cells)
    params = FvParams(t_final=1.0, output_stride=1)
    folded = solve(fdfp.DistributionState(half, profile(half.node)), params)
    whole = solve(fdfp.DistributionState(line, profile(line.node)), params)
    assert folded.meta.steps == whole.meta.steps
    assert folded.times.shape == whole.times.shape
    assert np.max(np.abs(folded.times - whole.times)) <= 1e-15
    assert np.max(np.abs(folded.values - whole.values[:, cells:])) <= 1e-14
    assert np.max(np.abs(whole.values - whole.values[:, ::-1])) <= 1e-15


# The entropy budget H(0) - H(t) = int_0^t D, with the integral the trapezoid
# rule over every step.  Forward Euler misses it by O(dt); a wrong clock (every
# step 2% short in time, say) misses it by the clock's error.  D is -dH/dt
# only where no cell is clamped (see `functionals`), so the data are
# min(1, factor F_mass), smooth and with no empty cell next to mass.
@pytest.mark.parametrize("geometry, dim, cells, mass, factor", [
    ("cartesian1d", 1, 128, MASS_BETA1_N1, 0.5),
    ("cartesian1d", 1, 256, MASS_BETA1_N1, 0.5),
    ("radialNd", 3, 128, 2.0, 2.0),
])
def test_free_energy_falls_by_the_integrated_dissipation(geometry, dim, cells, mass, factor):
    grid = fdfp.make_grid(geometry, dim, 8.0, cells)
    f0 = np.minimum(1.0, factor * fdfp.equilibrium_state(mass, grid).values)
    traj = solve(fdfp.DistributionState(grid, f0), FvParams(t_final=2.0, output_stride=1))
    assert traj.meta.steps == len(traj.times) - 1
    h, d = traj.column("free_energy"), traj.column("dissipation")
    dissipated = np.concatenate([[0.0], np.cumsum(np.diff(traj.times) * (d[1:] + d[:-1]) / 2)])
    residual = np.max(np.abs(dissipated - (h[0] - h))) / (h[0] - h[-1])
    assert residual <= 5e-3


# The small-mass limit, an exact solution in every dimension N.  For data
# eps g the mobility f(1 - f) is f and the potential |v|^2/2 + log(f/(1 - f))
# is |v|^2/2 + log f, up to O(eps): the solution is eps times that of the
# linear Fokker-Planck equation, whose Gaussians stay Gaussian with the mass
# kept, eps (sigma0/sigma)^N exp(-|v|^2/(2 sigma^2)) with
# sigma(t)^2 = 1 + (sigma0^2 - 1) e^(-2t).  This checks the radial scheme's
# areas and weights at N = 2 and 3 against a closed form.  The gate was set
# before the test first ran: at 256 cells the relative L1 error at t = 0.25
# is at most 2.5e-2, and each halving of h divides it by at least 1.7.  It
# bounds the factor from below only: a clock whose every step is 2% short
# converges faster, with factors above 2, and
# `test_free_energy_falls_by_the_integrated_dissipation` catches that clock.
@pytest.mark.parametrize("geometry, dim", [
    ("cartesian1d", 1), ("radialNd", 1), ("radialNd", 2), ("radialNd", 3)])
def test_small_mass_limit_is_the_linear_gaussian(geometry, dim):
    eps, var0, t = 1e-6, 0.25, 0.25
    var = 1 + (var0 - 1) * math.exp(-2 * t)
    errors = []
    for cells in (64, 128, 256):
        grid = fdfp.make_grid(geometry, dim, 8.0, cells)
        f0 = fdfp.DistributionState(grid, eps * np.exp(-grid.speed ** 2 / (2 * var0)))
        traj = solve(f0, FvParams(t_final=t), output_times=(t,))
        assert traj.times[-1] == t
        exact = eps * (var0 / var) ** (dim / 2) * np.exp(-grid.speed ** 2 / (2 * var))
        errors.append(np.dot(grid.qweight, np.abs(traj.values[-1] - exact))
                      / np.dot(grid.qweight, exact))
    assert errors[-1] <= 2.5e-2
    assert min(coarse / fine for coarse, fine in zip(errors, errors[1:])) >= 1.7


# Exact solutions at full nonlinearity, radialNd N = 2 (Cole-Hopf; Hopf, Comm.
# Pure Appl. Math. 3, 1950).  With s = |v|^2/2 radial data solve
# f_t = d_s[2s(f_s + f(1 - f))], and psi = exp(-int_0^s f), up to a constant
# factor, solves the linear psi_t = 2s(psi_ss + psi_s), with f = -d_s log psi.
# psi = 1 + beta^-1 e^(-u(t) s), with u' = 2u(1 - u), gives
# f = u / (1 + beta e^(u s)) and u(t) = theta e^(2t) / (1 - theta + theta e^(2t)).
# theta = 1 + beta touches 1 at v = 0, and a small beta is a degenerate Fermi
# sea.  The cell averages are exact: in s, f has the antiderivative
# u s - log(1 + beta e^(u s)), whose difference across a cell,
# log1p(expm1(u ds) / (1 + beta e^(u s_right))), times 2 pi, is f's integral
# over the annulus, of area qweight at N = 2.  The gate was fixed before the
# test first ran: each halving of h divides the L1 error at t = 0.25 by at
# least 1.7, and the 512-cell error is at most `bound`.  A wrong radial area
# (r^0 or r^2 at N = 2) does not converge at all.
def _cole_hopf_averages(grid, theta, beta, t):
    growth = theta * math.exp(2 * t)
    u = growth / (1 - theta + growth)
    s = grid.edges ** 2 / 2
    mass = np.log1p(np.expm1(u * np.diff(s)) / (1 + beta * np.exp(u * s[1:])))
    return 2 * math.pi * mass / grid.qweight


@pytest.mark.parametrize("theta, beta, extent, bound", [
    (0.8, 0.05, 8.0, 2e-2), (2.0, 1.0, 8.0, 2e-2), (0.5, 1e-3, 10.0, 0.15)],
    ids=["height0.76", "height1", "fermi_sea"])
def test_radial_2d_matches_the_exact_cole_hopf_solutions(theta, beta, extent, bound):
    t = 0.25
    errors = []
    for cells in (64, 128, 256, 512):
        grid = fdfp.make_grid("radialNd", 2, extent, cells)
        f0 = fdfp.DistributionState(grid, _cole_hopf_averages(grid, theta, beta, 0.0))
        traj = solve(f0, FvParams(t_final=t), output_times=(t,))
        assert traj.times[-1] == t
        exact = _cole_hopf_averages(grid, theta, beta, t)
        errors.append(float(np.dot(grid.qweight, np.abs(traj.values[-1] - exact))))
    factors = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    print(f"REFINEMENT cole-hopf N=2 theta={theta:g} beta={beta:g} n=64..512: L1 "
          + ", ".join(f"{e:.3e}" for e in errors)
          + "; factors " + ", ".join(f"{f:.3f}" for f in factors))
    assert errors[-1] <= bound
    assert min(factors) >= 1.7, factors


# numbers of every awkward kind: nan, infinities, signed zeros, negatives,
# subnormals, integral floats and numpy integers
_numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, 8.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-20, 20),
    st.integers(-20, 20),
    st.integers(-20, 20).map(float),
    st.integers(-20, 20).map(np.int64),
    st.integers(0, 20).map(np.uint8),
)


def _is_integer(x):
    return isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_params_raise_exactly_outside_their_ranges(data):
    t_final, count = data.draw(_numbers), data.draw(_numbers)
    checks = [
        (lambda: FvParams(t_final=t_final, output_stride=count),
         0 < t_final < math.inf and _is_integer(count) and count >= 1),
        (lambda: DuhamelParams(t_final=t_final, time_nodes=count),
         0 < t_final <= 1 and _is_integer(count) and count >= 8),
    ]
    for build, valid in checks:
        if valid:
            assert all(type(value) is int for value in dataclasses.astuple(build())[1:])
        else:
            with pytest.raises(ValueError):
                build()


_SOLVE_GRID = fdfp.make_grid("cartesian1d", 1, 8.0, 16)
_SOLVE_F0 = fdfp.equilibrium_state(1.0, _SOLVE_GRID)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_output_times_raise_exactly_outside_their_range(data):
    params = FvParams(t_final=0.25)
    times = data.draw(st.lists(st.one_of(_numbers, st.floats(0.0, 0.25)), max_size=4))
    if data.draw(st.booleans()):
        times = sorted(times, key=lambda x: (math.isnan(x), x))
    # the times must increase strictly in (0, t_final]
    ends = [0.0, *times]
    valid = all(a < b for a, b in zip(ends, ends[1:])) and ends[-1] <= 0.25
    if not valid:
        with pytest.raises(ValueError, match="output_times"):
            solve(_SOLVE_F0, params, times)
        return
    traj = solve(_SOLVE_F0, params, times)
    landed = traj.times.tolist()
    for target in map(float, times):   # a row on each output time, bit for bit
        assert target in landed


# the bad time lists that the former values_at refused; solve's output_times
# must refuse them all: unordered, repeated-down, negative, nan, infinite, 2-D
@pytest.mark.parametrize("times", [[0.2, 0.1, -1.0, math.nan], [0.2, 0.1], [-1.0],
                                   [0.1, math.nan], [math.inf], [[0.1, 0.2]]])
def test_values_at_rejects_bad_times(times):
    with pytest.raises(ValueError, match="output_times"):
        solve(_SOLVE_F0, FvParams(t_final=0.25), times)


def _flux_of_one_step(state):
    """The area-weighted interface fluxes (zero at the boundary) of one FV step
    from state, and the state after it."""
    kernel = _FvKernel(state.grid, state.values)
    kernel.advance(kernel.dt, np.empty((1, state.grid.cells)))
    return kernel.flux, kernel.values


def test_equilibrium_fluxes_vanish(eq_beta1):
    # sampled equilibria are exact steady states: zero flux, so the step
    # leaves the state unchanged
    J, after = _flux_of_one_step(eq_beta1)
    assert np.abs(J).max() <= 1e-12
    assert J[0] == 0.0 and J[-1] == 0.0
    assert np.abs(after - eq_beta1.values).max() <= 1e-14


def test_full_state_has_no_interior_flux(grid256):
    ones = fdfp.DistributionState(grid256, np.ones(256))
    J, after = _flux_of_one_step(ones)
    assert np.abs(J).max() == 0.0
    assert np.array_equal(after, ones.values)


def test_flux_antisymmetry_for_even_states(grid256):
    vals = 0.5 * np.exp(-grid256.node ** 2 / 3)
    J, _ = _flux_of_one_step(fdfp.DistributionState(grid256, vals))
    assert np.abs(J).max() > 1e-6   # not at equilibrium
    assert np.abs(J + J[::-1]).max() <= 1e-13


def test_max_stable_dt_flat_state_formula():
    # h = 0.05 on [-8, 8]: the cells next to the two ends are the fastest,
    # with interfaces at |v| = 7.95 and 7.9, where dphi = h |v|, so
    # dt = 0.5 h^2 / (B(-7.95 h) + B(-7.9 h)), for a flat state as for any
    g = fdfp.make_grid("cartesian1d", 1, 8.0, 320)
    h = g.width
    expected = 0.5 * h * h / float(_bernoulli(-7.95 * h) + _bernoulli(-7.9 * h))
    for value in (0.0, 0.3, 1.0):
        assert max_stable_dt(fdfp.DistributionState(g, np.full(320, value))) \
            == pytest.approx(expected, rel=1e-12)


@pytest.fixture
def fresh_step_caches():
    caches = (solver_fv._fixed_step, sg_weights)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_step_constants_are_one_per_mesh_value(fresh_step_caches):
    # two equal but distinct meshes share one step size and one read-only
    # set of flux weights, which every reader of the step takes
    grid, twin = fdfp.make_grid("radialNd", 3, 8.0, 40), fdfp.Grid("radialNd", 3, 8.0, 40)
    assert grid is not twin and grid == twin
    values = 0.5 * fdfp.equilibrium_state(1.0, grid).values
    dt = _FvKernel(grid, values).dt
    assert dt == _FvKernel(twin, values).dt == max_stable_dt(fdfp.DistributionState(twin, values))
    weights = sg_weights(grid)
    assert weights is sg_weights(twin) and not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weights[0, 0] = 0.0
    assert solver_fv._fixed_step.cache_info().misses == sg_weights.cache_info().misses == 1


def test_an_interface_area_patched_before_the_first_build_reaches_the_step(
        monkeypatch, fresh_step_caches):
    # the mutation gate's route: `tests/mutants.py` replaces
    # `Grid.interface_area` before any mesh is built
    grid = fdfp.make_grid("radialNd", 2, 8.0, 32)
    f0 = fdfp.DistributionState(grid, 0.5 * fdfp.equilibrium_state(1.0, grid).values)
    plain = solve(f0, FvParams(t_final=0.01))
    plain_dt = max_stable_dt(f0)
    for name, power in MUTANTS.items():
        solver_fv._fixed_step.cache_clear()
        sg_weights.cache_clear()
        monkeypatch.setattr(fdfp.Grid, "interface_area", mutant_area(power))
        mutant_f0 = fdfp.DistributionState(fdfp.Grid("radialNd", 2, 8.0, 32), f0.values)
        mutant = solve(mutant_f0, FvParams(t_final=0.01))
        assert max_stable_dt(mutant_f0) != plain_dt, name
        assert not np.array_equal(mutant.values[-1], plain.values[-1]), name
        monkeypatch.undo()


def test_max_stable_dt_scales_like_h_squared():
    # at large n the drift term of B is negligible
    dts = []
    for n in (1600, 3200):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        flat = fdfp.DistributionState(g, np.full(n, 0.3))
        dts.append(max_stable_dt(flat))
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=0.05)


def _one_step(state, dt):
    """The one-step solve of size dt from `state`."""
    traj = solve(state, FvParams(t_final=dt))
    assert traj.meta.steps == 1
    return traj


def test_step_preserves_invariant_region_fuzz(rng):
    # single explicit steps from rough random states never leave [0, 1]
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        grid = fdfp.make_grid(geometry, dim, 8.0, 64)
        for _ in range(2000):
            st_ = fuzz_state(grid, rng)
            run = _one_step(st_, max_stable_dt(st_)).meta
            assert run.min_value >= 0.0
            assert run.max_value <= 1.0


def test_step_conserves_mass_and_dissipates(grid256, rng):
    for _ in range(200):
        st_ = fuzz_state(grid256, rng)
        out = _one_step(st_, max_stable_dt(st_)).states[-1]
        m0, m1 = fdfp.integrate(st_), fdfp.integrate(out)
        assert abs(m1 - m0) <= 1e-13 * max(1.0, abs(m0))
        assert free_energy(out) <= free_energy(st_) + 1e-10


def test_step_equilibrium_fixed_point(eq_beta1):
    out = _one_step(eq_beta1, 5e-4).values[-1]
    assert np.abs(out - eq_beta1.values).max() <= 1e-12


def test_solve_indicator_short_run(grid256):
    vals = np.where(np.abs(grid256.node) <= 1.0, 0.5, 0.0)
    f0 = fdfp.DistributionState(grid256, vals)
    traj = solve(f0, FvParams(t_final=2.0, output_stride=200))
    assert traj.meta.holds
    rel = traj.column("rel_entropy")
    assert rel[-1] < rel[0]
    assert np.all(rel >= -1e-8)


def test_solve_on_zero_data_returns_zero_rows(grid256):
    # zero data has no equilibrium: its rows are measured against the zero state
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    traj = solve(zero, FvParams(t_final=0.05, output_stride=10))
    assert traj.meta == FvRun(min_value=0.0, max_value=0.0, max_mass_drift_rel=0.0,
                              max_free_energy_rise=0.0, steps=traj.meta.steps)
    assert traj.meta.steps > 1
    assert all(s.values.max() == 0.0 for s in traj.states)
    assert all(col == [0.0] * traj.times.size for col in columns(traj).values())


def test_solve_second_moment_growth_bound_smooth_data(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.5 * eq_beta1.values)
    M = fdfp.integrate(f0)
    traj = solve(f0, FvParams(t_final=1.0, output_stride=50))
    m2 = np.array([fdfp.moment(s, 2) for s in traj.states])
    assert np.all(m2 <= m2[0] + 2 * 1 * M * traj.times + 1e-8)


def test_second_moment_front_overshoot_vanishes_with_h():
    # at an unresolved front the former upwind mobility exceeded the
    # mean-value mobility, so the discrete second moment transiently outran
    # the continuum growth bound m2(0) + 2 N M t, by an overshoot that shrank
    # under refinement; the Scharfetter-Gummel flux has none at any level,
    # after any step
    for n in (128, 256, 512):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        f0 = fdfp.DistributionState(g, np.where(np.abs(g.node) <= 1.0, 0.5, 0.0))
        M = fdfp.integrate(f0)
        traj = solve(f0, FvParams(t_final=0.5, output_stride=1))
        m2 = np.array([fdfp.moment(s, 2) for s in traj.states])
        assert np.max(m2[1:] - (m2[0] + 2 * M * traj.times[1:])) < 0.0


def test_comparison_nested_equilibria(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.3 * eq_beta1.values)
    assert comparison_experiment(f0, eq_beta1, FvParams(t_final=1.0)).holds


def test_comparison_identical_inputs(eq_beta1):
    rep = comparison_experiment(eq_beta1, eq_beta1, FvParams(t_final=0.5))
    assert rep.max_positive_part == 0.0
    assert rep.max_contraction_slack == 0.0


def test_comparison_requires_order(grid256, eq_beta1):
    above = fdfp.DistributionState(grid256, np.minimum(1.0, eq_beta1.values + 0.1))
    with pytest.raises(ValueError):
        comparison_experiment(above, eq_beta1, FvParams(t_final=0.5))


def test_rough_ordered_pairs_stay_ordered():
    # ROADMAP item 1's rough pairs, which the former log-potential flux broke
    # in 20 of 20 (worst (f - g)_+ 0.630): f from U(0, 1) on |v| < 3 and 0
    # outside, g = min(1, f + U(0, 0.3)), on 32 and 128 Cartesian cells to
    # t = 0.5; the monotone flux keeps each ordered and L1-contracting
    rng = np.random.default_rng(0)
    for cells in (32, 128):
        grid = fdfp.make_grid("cartesian1d", 1, 8.0, cells)
        for _ in range(10):
            f = np.where(grid.speed < 3.0, rng.uniform(0, 1, cells), 0.0)
            g = np.minimum(1.0, f + rng.uniform(0, 0.3, cells))
            rep = comparison_experiment(fdfp.DistributionState(grid, f),
                                        fdfp.DistributionState(grid, g), FvParams(t_final=0.5))
            assert rep.holds, (cells, rep)


def test_run_claim_holds_at_n5():
    # 0.9 F_{M*} with M* = 2 on 128 radial cells of [0, 8] at N = 5, to t = 5:
    # the clamp's footprint in the former flux's free energy (delta q per
    # cell) broke the free-energy claim, a rise of 1.009e-10 against 1e-10
    grid = fdfp.make_grid("radialNd", 5, 8.0, 128)
    f0 = fdfp.DistributionState(grid, 0.9 * fdfp.equilibrium_state(2.0, grid).values)
    run = solve(f0, FvParams(t_final=5.0, output_stride=10 ** 9)).meta
    assert run.holds, run.checks()


def test_comparison_random_ordered_pairs(grid256, rng):
    for _ in range(3):
        base = np.minimum(1.0, np.abs(rng.normal(0.3, 0.2))
                          * np.exp(-(grid256.node - rng.uniform(-2, 2)) ** 2 / rng.uniform(0.5, 4)))
        extra = np.minimum(1.0 - base, np.abs(rng.normal(0.2, 0.1))
                           * np.exp(-(grid256.node - rng.uniform(-2, 2)) ** 2 / rng.uniform(0.5, 4)))
        f = fdfp.DistributionState(grid256, base)
        g = fdfp.DistributionState(grid256, base + extra)
        assert comparison_experiment(f, g, FvParams(t_final=1.0)).holds


_PAIR = ComparisonReport(0.0, 0.0, steps=1)
_MOMENTS = solver_fv.MomentPropagationReport(4, (1.0,), (1.0,), 0.0, 0.0, True)
_DECAY_FIT = solver_fv.DecayFitReport(-1.0, -1.0, True, 4)
_RUN = FvRun(min_value=0.5, max_value=0.5, max_mass_drift_rel=0.0, max_free_energy_rise=0.0,
             steps=1)


# each verdict with `field` at its bound, then at the next float past it:
# above it, and below it for min_value, which is bounded below
@pytest.mark.parametrize("report,field,bound,at_bound,beyond", [
    (_PAIR, "max_positive_part", solver_fv.ORDER_TOL, True, False),
    (_PAIR, "max_contraction_slack", solver_fv.CONTRACTION_TOL, True, False),
    (_MOMENTS, "spread", solver_fv.MOMENT_SPREAD_TOL, True, False),
    (dataclasses.replace(_MOMENTS, monotone_preserved=False), "spread",
     solver_fv.MOMENT_SPREAD_TOL, False, False),
    (_DECAY_FIT, "slope", -1.0, True, False),
    (dataclasses.replace(_DECAY_FIT, bound_satisfied=False), "slope", -1.0, False, False),
    # no slope is fitted at equilibrium, where the envelope alone decides
    (dataclasses.replace(_DECAY_FIT, slope=None), "rate_bound", -1.0, True, True),
    (dataclasses.replace(_DECAY_FIT, slope=None, bound_satisfied=False), "rate_bound", -1.0,
     False, False),
    (_RUN, "max_mass_drift_rel", solver_fv.MASS_DRIFT_TOL, True, False),
    (_RUN, "max_free_energy_rise", solver_fv.FREE_ENERGY_RISE_TOL, True, False),
    (_RUN, "max_value", 1.0, True, False),
    (_RUN, "min_value", 0.0, True, False),
], ids=["positive_part", "contraction_slack", "moment_spread", "moments_not_monotone",
        "decay_slope", "decay_envelope_broken", "decay_at_equilibrium",
        "decay_at_equilibrium_envelope_broken", "run_mass_drift",
        "run_free_energy_rise", "run_above_one", "run_below_zero"])
def test_verdicts_hold_up_to_their_bounds(report, field, bound, at_bound, beyond):
    past = math.nextafter(bound, -math.inf if field == "min_value" else math.inf)
    assert dataclasses.replace(report, **{field: bound}).holds is at_bound
    assert dataclasses.replace(report, **{field: past}).holds is beyond


def test_rate_constant():
    # beta(M*) = 1 gives C = 1 - 1/2
    assert rate_constant(MASS_BETA1_N1, 1) == pytest.approx(0.5, rel=1e-7)


def test_decay_fit_skips_at_equilibrium(eq_beta1):
    traj = solve(eq_beta1, FvParams(t_final=0.2, output_stride=20))
    c = rate_constant(fdfp.integrate(eq_beta1) + 0.1, 1)
    rep = decay_rate_fit(traj.times, traj.column("rel_entropy"), c, (0.0, 0.2))
    assert rep.at_equilibrium and rep.slope is None and rep.bound_satisfied


def test_decay_fit_with_fewer_than_4_points_above_the_floor_checks_the_envelope():
    # the window [0.5, 1] holds 5 rows, 2 of them above REL_ENTROPY_FLOOR:
    # no slope, and the envelope 1.05 exp(-t) on all 5; [0.8, 1] holds 2 rows
    times = np.linspace(0.0, 1.0, 9)
    rel = np.array([1.0, 0.5, 0.2, 0.1, 0.05, 1e-3, 1e-13, 0.0, 0.0])
    rep = decay_rate_fit(times, rel, 0.5, (0.5, 1.0))
    assert rep.at_equilibrium and rep.bound_satisfied and rep.holds and rep.n_points == 5
    rel[5] = 0.6   # above 1.05 exp(-0.625) = 0.563
    rep = decay_rate_fit(times, rel, 0.5, (0.5, 1.0))
    assert rep.at_equilibrium and not rep.bound_satisfied and not rep.holds
    with pytest.raises(ValueError, match="^fewer than 4 rows in the fit window$"):
        decay_rate_fit(times, rel, 0.5, (0.8, 1.0))


def test_decay_fit_is_at_equilibrium_exactly_when_no_slope_is_fitted():
    assert not _DECAY_FIT.at_equilibrium
    assert dataclasses.replace(_DECAY_FIT, slope=None).at_equilibrium
    with pytest.raises(TypeError):
        solver_fv.DecayFitReport(None, -1.0, True, 0, at_equilibrium=True)


def test_decay_fit_recovers_exact_exponential(eq_beta1):
    # relative entropy 2 exp(-3t) at a solve's times: the fitted slope is -3
    traj = solve(eq_beta1, FvParams(t_final=0.2, output_stride=5))
    c = rate_constant(fdfp.integrate(eq_beta1) + 0.1, 1)
    rep = decay_rate_fit(traj.times, 2.0 * np.exp(-3.0 * traj.times), c, (0.0, 0.2))
    assert rep.slope == pytest.approx(-3.0, abs=1e-10)
    assert rep.n_points == traj.times.size


def test_comparison_requires_one_grid(eq_beta1):
    other = fdfp.equilibrium_state(1.0, fdfp.make_grid("cartesian1d", 1, 8.0, 128))
    with pytest.raises(ValueError, match="^states live on different grids$"):
        comparison_experiment(eq_beta1, other, FvParams(t_final=0.5))


def test_decay_fit_window_validation(grid256, eq_beta1):
    f0 = fdfp.DistributionState(grid256, 0.5 * eq_beta1.values)
    traj = solve(f0, FvParams(t_final=0.5, output_stride=50))
    with pytest.raises(ValueError):
        decay_rate_fit(traj.times, traj.column("rel_entropy"), rate_constant(MASS_BETA1_N1, 1),
                       (0.0, 5.0))


@pytest.mark.parametrize("factor", [0.25, 0.5, 0.75, 0.9])
def test_decay_rate_holds_for_every_factor_below_the_equilibrium(eq_beta1, factor):
    # f0 = factor F_{M*}, beta(M*) = 1: criterion 09's window and bound over
    # the factors, each fitted on the FIT_ROWS rows the march lands in it
    window = (0.5, 6.0)
    f0 = fdfp.DistributionState(eq_beta1.grid, factor * eq_beta1.values)
    traj = solve(f0, FvParams(t_final=8.0), np.linspace(*window, solver_fv.FIT_ROWS))
    rep = decay_rate_fit(traj.times, traj.column("rel_entropy"),
                         rate_constant(MASS_BETA1_N1, 1), window)
    assert not rep.at_equilibrium
    print(f"REFINEMENT decay-rate factor {factor:.2f}: slope {rep.slope:.4f} "
          f"<= {rep.rate_bound:.4f}, {rep.n_points} points")
    assert rep.holds


def test_radial_moment_propagation_stationary(radial256):
    eq = fdfp.equilibrium_state(2.0, radial256)
    traj = solve(eq, FvParams(t_final=2.0, output_stride=200))
    rep = radial_moment_propagation(traj, order=4)
    assert rep.horizons == (0.5, 1.0, 2.0)
    assert rep.spread <= 1e-10
    assert rep.monotone_preserved


def test_radial_moment_propagation_rejects_bad_input(radial256, grid256):
    short = FvParams(t_final=1e-3)
    increasing = fdfp.DistributionState(radial256, np.linspace(0.0, 0.5, 256))
    with pytest.raises(ValueError, match="non-increasing"):
        radial_moment_propagation(solve(increasing, short))
    eq = fdfp.equilibrium_state(1.0, grid256)
    with pytest.raises(ValueError, match="radialNd"):
        radial_moment_propagation(solve(eq, short))
    radial_eq = solve(fdfp.equilibrium_state(1.0, radial256), short)
    for order in (3, 0):
        with pytest.raises(ValueError, match="order"):
            radial_moment_propagation(radial_eq, order=order)


@pytest.mark.parametrize("rise, holds", [(solver_fv.MONOTONE_TOL, True),
                                         (2 * solver_fv.MONOTONE_TOL, False)])
def test_monotone_rule_is_one_bound(radial256, rise, holds):
    # a profile rising by `rise` from a zero cell of its tail: the
    # precondition on f0 and the verdict on later rows read the same bound
    ok = np.where(radial256.node < 1.0, 0.5, 0.0)
    kink = ok.copy()
    kink[200] = rise
    assert np.diff(kink).max() == rise
    if holds:
        solver_fv.require_moment_data(fdfp.DistributionState(radial256, kink), 4)
    else:
        with pytest.raises(ValueError, match="non-increasing"):
            solver_fv.require_moment_data(fdfp.DistributionState(radial256, kink), 4)
    traj = fdfp.Trajectory([0.0, 1.0], [ok, kink], radial256)
    rep = radial_moment_propagation(traj)
    assert rep.monotone_preserved is holds and rep.holds is holds


def test_radial_equilibrium_stationary(radial256):
    eq = fdfp.equilibrium_state(2.0, radial256)
    out = _one_step(eq, 1e-4).values[-1]
    assert np.abs(out - eq.values).max() <= 1e-12
