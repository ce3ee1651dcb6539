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
from fdfp.functionals import CLAMP_DELTA, free_energy, potential
from fdfp.solver_fv import (
    CFL,
    ComparisonReport,
    FvParams,
    FvRun,
    _FvKernel,
    _free_energies,
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


# The explicit scheme with one whole-array expression per formula.  The
# fused `_FvKernel` keeps every floating-point operation and its order, so
# it must reproduce these references bit for bit.  The update applies
# dt / (-h q) as one factor, as the kernel does; `_textbook_advance` is the
# unfolded order, which it must match to roundoff.

def _ref_potential(values, grid):
    f = np.clip(values, CLAMP_DELTA, 1.0 - CLAMP_DELTA)
    return grid.speed ** 2 / 2 + np.log(f / (1.0 - f))


def _ref_stable_dt(xi, grid):
    h = grid.width
    adxi = np.abs(np.diff(xi))
    if grid.geometry == "cartesian1d":
        jump_ratio = np.ones(grid.cells - 1)
    else:
        area = grid.interface_area[1:-1]
        jump_ratio = np.maximum(area * h / grid.qweight[:-1], area * h / grid.qweight[1:])
    worst = max(h * grid.extent, float((adxi * jump_ratio).max()) if adxi.size else 0.0)
    return CFL * h * h / (2.0 + worst)


def _ref_hard_dt_bound(xi, grid):
    adxi = np.abs(np.diff(xi))
    area = grid.interface_area[1:-1]
    denom = np.zeros(grid.cells)
    denom[:-1] += area * adxi
    denom[1:] += area * adxi
    with np.errstate(divide="ignore"):
        bounds = grid.qweight * grid.width / denom
    return float(np.min(np.where(denom > 0, bounds, np.inf)))


def _ref_mobility(values, xi):
    dxi = np.diff(xi)
    left, right = values[:-1], values[1:]
    return np.where(dxi < 0, left * (1.0 - right), right * (1.0 - left)), dxi


def _ref_advance(values, xi, dt, grid):
    mob, dxi = _ref_mobility(values, xi)
    aJ = np.zeros(grid.cells + 1)
    aJ[1:-1] = grid.interface_area[1:-1] * (mob * dxi)
    return values - np.diff(aJ) * (dt / (-grid.width * grid.qweight))


def _textbook_advance(values, xi, dt, grid):
    mob, dxi = _ref_mobility(values, xi)
    aJ = np.zeros(grid.cells + 1)
    aJ[1:-1] = grid.interface_area[1:-1] * (-mob * dxi / grid.width)
    return values - dt * np.diff(aJ) / grid.qweight


def _ref_free_energy(values, xi, grid):
    return float(np.dot(grid.qweight,
                        values * xi + np.log1p(-np.minimum(values, 1.0 - CLAMP_DELTA))))


def _ref_solve(f0, params, output_times=()):
    """The march of `solve`, with per-step reductions of every monitor, and
    the diagnostics of its rows from the single-state functionals."""
    grid = f0.grid
    mass = fdfp.integrate(f0)
    eq = discrete_equilibrium(mass, grid)
    h_eq = free_energy(eq)
    values = f0.values.copy()
    t = 0.0
    times, states = [0.0], [f0.values]
    min_val, max_val = float(values.min()), float(values.max())
    max_drift = max_rise = 0.0
    xi = _ref_potential(values, grid)
    h_prev = _ref_free_energy(values, xi, grid)
    steps = 0
    for target in [*output_times, params.t_final]:
        while t < target * (1 - 1e-14):
            dt = min(_ref_stable_dt(xi, grid), target - t)
            values = _ref_advance(values, xi, dt, grid)
            t += dt
            steps += 1
            min_val = min(min_val, float(values.min()))
            max_val = max(max_val, float(values.max()))
            m = float(np.dot(grid.qweight, values))
            max_drift = max(max_drift, abs(m - mass) / max(abs(mass), 1e-300))
            xi = _ref_potential(values, grid)
            h_now = _ref_free_energy(values, xi, grid)
            max_rise = max(max_rise, h_now - h_prev)
            h_prev = h_now
            landed = t >= target * (1 - 1e-14)
            if landed:   # the row that reaches a target carries the target itself
                t = target
            if steps % params.output_stride == 0 or (landed and times[-1] != t):
                times.append(t)
                states.append(values)
    run = FvRun(min_value=min_val, max_value=max_val, max_mass_drift_rel=max_drift,
                max_free_energy_rise=max_rise, steps=steps)
    rows = state_diagnostics([fdfp.DistributionState(grid, v) for v in states], eq, h_eq)
    return times, states, rows, run


def _ref_comparison(f0, g0, params):
    """Two single-state marches that share the smaller of their step sizes."""
    grid = f0.grid
    fv, gv = f0.values.copy(), g0.values.copy()
    l1_0 = float(np.dot(grid.qweight, np.abs(fv - gv)))
    max_pos = max_slack = 0.0
    t = 0.0
    steps = 0
    while t < params.t_final * (1 - 1e-14):
        xi_f, xi_g = _ref_potential(fv, grid), _ref_potential(gv, grid)
        dt = min(_ref_stable_dt(xi_f, grid), _ref_stable_dt(xi_g, grid), params.t_final - t)
        fv, gv = _ref_advance(fv, xi_f, dt, grid), _ref_advance(gv, xi_g, dt, grid)
        t += dt
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
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(2, 3))
    cells = data.draw(st.integers(9, 128))
    values = np.array(data.draw(st.lists(_cell_value, min_size=cells, max_size=cells)))
    grid = fdfp.make_grid(geometry, dim, data.draw(st.sampled_from([4.0, 8.0])), cells)

    kernel = _FvKernel(grid, values)
    xi = _ref_potential(values, grid)
    assert np.array_equal(kernel.xi, xi)
    assert np.array_equal(kernel.dxi, np.diff(xi))
    dt = kernel.stable_dt()
    assert dt == _ref_stable_dt(xi, grid)
    # the invariant-region bound that `CFL`'s derivation promises
    assert dt <= _ref_hard_dt_bound(xi, grid)

    rows, xis = np.empty((2, 1, cells))
    kernel.advance((dt,), rows, xis)
    new = _ref_advance(values, xi, dt, grid)
    new_xi = _ref_potential(new, grid)
    assert np.array_equal(kernel.values, new)
    assert np.array_equal(kernel.xi, new_xi)
    assert np.array_equal(rows[0], new) and np.array_equal(xis[0], new_xi)
    assert kernel.stable_dt() == _ref_stable_dt(new_xi, grid) <= _ref_hard_dt_bound(new_xi, grid)
    # the folded order against the unfolded one, so that a sign or factor
    # shared by the kernel and `_ref_advance` still fails: they may differ
    # by a few ulps of the terms f, dt aJ_right / (h q) and dt aJ_left / (h q)
    # where these lie far above underflow (below, both round absolutely)
    mob, dxi = _ref_mobility(values, xi)
    aJ = np.abs(np.concatenate([[0.0], grid.interface_area[1:-1] * mob * dxi, [0.0]]))
    terms = values + dt * (aJ[1:] + aJ[:-1]) / (grid.width * grid.qweight)
    gap = np.abs(new - _textbook_advance(values, xi, dt, grid))
    normal = terms > np.finfo(float).tiny / np.finfo(float).eps
    assert np.all(gap[normal] <= 8 * np.finfo(float).eps * terms[normal])

    # the block pass over both states: their potentials, step sizes and free energies
    stack = np.array([values, new])
    block_xi = potential(stack, grid)
    assert np.array_equal(block_xi, [xi, new_xi])
    assert kernel.step_sizes(np.diff(block_xi), 1).tolist() == [dt, _ref_stable_dt(new_xi, grid)]
    assert _free_energies(grid.qweight, stack, block_xi).tolist() \
        == [_ref_free_energy(values, xi, grid), _ref_free_energy(new, new_xi, grid)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_advance_call_matches_one_call_per_step(data):
    # a run of steps in one call: a settled size, a change mid-run and a
    # clipped last size, on one state or a (2, cells) pair
    geometry = data.draw(st.sampled_from(["cartesian1d", "radialNd"]))
    dim = 1 if geometry == "cartesian1d" else data.draw(st.integers(2, 3))
    cells = data.draw(st.integers(9, 128))
    shape = data.draw(st.sampled_from([(cells,), (2, cells)]))
    count = math.prod(shape)
    values = np.array(data.draw(st.lists(_cell_value, min_size=count, max_size=count)))
    values = values.reshape(shape)
    grid = fdfp.make_grid(geometry, dim, data.draw(st.sampled_from([4.0, 8.0])), cells)

    kernel = _FvKernel(grid, values)
    dt = kernel.stable_dt()
    changed = dt * data.draw(st.floats(0.1, 0.99))
    sizes = [dt] * data.draw(st.integers(1, 40)) + [changed] * data.draw(st.integers(1, 20)) \
        + [changed * data.draw(st.floats(0.01, 0.99))]
    rows, xis = np.empty((2, len(sizes)) + shape)
    kernel.advance(sizes, rows, xis)

    single = _FvKernel(grid, values)
    for i, size in enumerate(sizes):
        row, xi = np.empty((2, 1) + shape)
        single.advance((size,), row, xi)
        assert np.array_equal(rows[i], row[0]) and np.array_equal(xis[i], xi[0])
        assert np.array_equal(xis[i], potential(rows[i], grid))
    assert np.array_equal(kernel.values, single.values)
    assert np.array_equal(kernel.xi, single.xi) and np.array_equal(kernel.dxi, single.dxi)


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
    for fractions in [(1.0,), (1.0, 0.5, 0.5), (0.25,), (1.0, 0.75, 0.125, 1.0)]:
        dt = batch.stable_dt()
        assert dt == min(single.stable_dt() for single in singles)
        sizes = [dt * x for x in fractions]
        rows, xis = np.empty((2, len(sizes), 3, cells))
        batch.advance(sizes, rows, xis)
        for r, single in enumerate(singles):
            row, xi = np.empty((2, len(sizes), cells))
            single.advance(sizes, row, xi)
            assert np.array_equal(rows[:, r], row) and np.array_equal(xis[:, r], xi)
            assert np.array_equal(batch.values[r], single.values)
            assert np.array_equal(batch.xi[r], single.xi)
            assert np.array_equal(batch.dxi[r], single.dxi)
        # the check of a block's reused sizes, on each (3, cells) row
        allowed = batch.step_sizes(np.diff(xis), (1, 2))
        assert allowed.tolist() == [min(float(s.step_sizes(np.diff(xis[i, r])))
                                        for r, s in enumerate(singles))
                                    for i in range(len(sizes))]
    assert np.all((batch.values >= 0) & (batch.values <= 1))


@pytest.mark.parametrize("geometry, dim", [("cartesian1d", 1), ("radialNd", 3)])
def test_solve_matches_reference_march(geometry, dim, rng):
    grid = fdfp.make_grid(geometry, dim, 8.0, 64)
    f0 = fdfp.DistributionState(grid, _rough_values(grid, rng))
    # t_final at the end of the 50th adaptive step
    values, t = f0.values, 0.0
    for _ in range(50):
        xi = _ref_potential(values, grid)
        dt = _ref_stable_dt(xi, grid)
        values = _ref_advance(values, xi, dt, grid)
        t += dt
    params = FvParams(t_final=t, output_stride=7)
    traj = solve(f0, params)
    times, states, rows, run = _ref_solve(f0, params)
    assert traj.meta.steps == 50
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


def _count_calls(monkeypatch, name):
    """Count the calls of the `_FvKernel` method `name`, which still runs."""
    calls = []
    original = getattr(_FvKernel, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_FvKernel, name, counted)
    return calls


def _ref_series(f0, t_final, output_times=()):
    """The mass and free energy after every step of the reference march."""
    grid = f0.grid
    values, t = f0.values, 0.0
    xi = _ref_potential(values, grid)
    masses, free_energies = [np.dot(grid.qweight, values)], [_ref_free_energy(values, xi, grid)]
    for target in [*output_times, t_final]:
        while t < target * (1 - 1e-14):
            dt = min(_ref_stable_dt(xi, grid), target - t)
            values = _ref_advance(values, xi, dt, grid)
            t += dt
            if t >= target * (1 - 1e-14):
                t = target
            xi = _ref_potential(values, grid)
            masses.append(np.dot(grid.qweight, values))
            free_energies.append(_ref_free_energy(values, xi, grid))
    return masses, free_energies


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_march_matches_reference_marches(data):
    # blocks reuse a step size only where every step would have evaluated
    # the same one: rows, times, run records and reports are bit-identical
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
    # up to 3 blocks of steps at the drift-diffusion floor; rough data take more
    floor_dt = CFL * grid.width ** 2 / (2 + grid.width * grid.extent)
    t_final = floor_dt * data.draw(st.sampled_from([1.0, 10.5, 63.0, 64.0, 65.0, 129.5, 200.0]))
    params = FvParams(t_final=t_final, output_stride=data.draw(st.integers(1, 80)))
    fractions = data.draw(st.lists(st.floats(1e-3, 1.0), max_size=4))
    output_times = sorted({x * t_final for x in fractions})
    try:   # solve refuses times within 1e-14 relative of each other
        require_output_times(output_times, t_final)
    except ValueError:
        assume(False)

    f0 = fdfp.DistributionState(grid, g)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_cut_block_restarts_from_its_last_verified_row(monkeypatch):
    # radial rough data whose exact step size leaves a reused one inside a
    # block: the march cuts the block there, twice, and keeps every bit
    grid = fdfp.make_grid("radialNd", 3, 8.0, 32)
    f0 = fdfp.DistributionState(grid, _rough_values(grid, np.random.default_rng(10), support=1.5))
    params = FvParams(t_final=2.0, output_stride=9)
    output_times = [0.5, 1.25]
    restarts = _count_calls(monkeypatch, "restart")
    monitored = {}
    from_monitors = FvRun.from_monitors

    def capture(lowest, highest, masses, free_energies, steps):
        monitored.update(masses=list(masses), free_energies=list(free_energies))
        return from_monitors(lowest, highest, masses, free_energies, steps)

    monkeypatch.setattr(FvRun, "from_monitors", capture)
    traj = solve(f0, params, output_times)
    assert len(restarts) == 2
    times, states, rows, run = _ref_solve(f0, params, output_times)
    assert traj.times.tolist() == times
    assert all(np.array_equal(s.values, r) for s, r in zip(traj.states, states, strict=True))
    assert columns(traj) == rows
    assert traj.meta == run
    masses, free_energies = _ref_series(f0, params.t_final, output_times)
    assert monitored == {"masses": masses, "free_energies": free_energies}


def _rough_member(grid, rng):
    """A rough profile as the benchmark's ensemble draws them: compact
    support, exact 0 and 1 cells among U(0, 1) draws, mass in [0.25, 0.85]."""
    while True:
        half, centre = rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)
        v = _rough_values(grid, rng, support=grid.extent)
        v[np.abs(grid.node - centre) > half] = 0.0
        if 0.25 <= np.dot(grid.qweight, v) <= 0.85 and (v == 1.0).any() \
                and ((v > 0.0) & (v < 1.0)).any():
            return v


def _count_blocks(monkeypatch, f0, params):
    """Solve `f0` and return the trajectory, the `stable_dt` calls and, per
    yielded block, its rows and the evaluations and `advance` calls so far."""
    evaluations = _count_calls(monkeypatch, "stable_dt")
    advances = _count_calls(monkeypatch, "advance")
    blocks = []
    march = solver_fv._march

    def counted(kernel, targets):
        for block in march(kernel, targets):
            blocks.append((len(block[0]), len(evaluations), len(advances)))
            yield block

    monkeypatch.setattr(solver_fv, "_march", counted)
    traj = solve(f0, params)
    monkeypatch.undo()
    assert [calls for _, _, calls in blocks] == list(range(1, len(blocks) + 1))
    assert sum(rows for rows, _, _ in blocks) == 1 + traj.meta.steps   # the initial row leads
    return traj, evaluations, blocks


@pytest.fixture(scope="module")
def radial_moments_blocks():
    """The radial_moments data (0.9 F_{M*} with M* = 4, radial N = 3, 128
    cells, t = 10) through `_count_blocks`, once for the two tests below."""
    grid = fdfp.make_grid("radialNd", 3, 8.0, 128)
    f0 = fdfp.DistributionState(grid, 0.9 * fdfp.equilibrium_state(4.0, grid).values)
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _count_blocks(monkeypatch, f0, FvParams(t_final=10.0, output_stride=200))


def test_block_march_evaluates_the_step_size_once_per_block(radial_moments_blocks):
    # a march that evaluated every step would fail here
    traj, evaluations, _ = radial_moments_blocks
    assert traj.meta.steps > 10_000
    assert len(evaluations) <= traj.meta.steps / 32


def test_block_march_runs_settled_steps_in_one_kernel_call(radial_moments_blocks):
    # on the radial_moments data, one `advance` call per block, whether its
    # steps evaluate their size or reuse it; a march that called it once per
    # step would fail here
    traj, evaluations, blocks = radial_moments_blocks
    assert traj.meta.steps > 10_000
    assert len(blocks) <= traj.meta.steps / 32
    assert len(evaluations) + len(blocks) <= traj.meta.steps / 16


def test_block_march_evaluates_in_one_kernel_call(monkeypatch):
    # a rough 48-cell member needs many evaluations before its step size
    # settles; they and the settled steps of their block share one `advance`
    # call
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 48)
    f0 = fdfp.DistributionState(grid, _rough_member(grid, np.random.default_rng(7)))
    _, _, blocks = _count_blocks(monkeypatch, f0, FvParams(t_final=2.0, output_stride=25))
    assert blocks[0][1] > 10 and len(blocks) > 2


def test_solve_and_comparison_log_steps_evaluations_and_cut_blocks(monkeypatch, caplog):
    grid = fdfp.make_grid("radialNd", 3, 8.0, 32)
    g = _rough_values(grid, np.random.default_rng(10), support=1.5)
    f0, g0 = fdfp.DistributionState(grid, 0.5 * g), fdfp.DistributionState(grid, g)
    params = FvParams(t_final=2.0)
    expected = []
    with caplog.at_level(logging.INFO, logger="fdfp.solver_fv"):
        for name, run in (("solve", lambda: solve(g0, params).meta),
                          ("comparison_experiment", lambda: comparison_experiment(f0, g0, params))):
            evaluations = _count_calls(monkeypatch, "stable_dt")
            restarts = _count_calls(monkeypatch, "restart")
            steps = run().steps
            monkeypatch.undo()
            expected.append(f"{name}: {steps} steps, {len(evaluations)} step-size evaluations, "
                            f"{len(restarts)} truncated blocks")
    assert [r.message for r in caplog.records if r.levelno == logging.INFO] == expected


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
    # the potential clips f to [delta, 1 - delta], which moves the term of a
    # cell with 0 < f < delta or f > 1 - delta (exact 1 cells among them) by
    # at most delta * q; exact 0 cells and all others agree to roundoff
    delta = CLAMP_DELTA
    for geometry, dim in (("cartesian1d", 1), ("radialNd", 3)):
        for n in (32, 64, 128):
            grid = fdfp.make_grid(geometry, dim, 8.0, n)
            rows = np.empty((200, n))
            for trial, v in enumerate(rows):
                if trial % 2:
                    v[...] = fuzz_state(grid, rng).values
                else:
                    # exact 0 and 1 cells among U(0, 1) draws, sometimes compactly supported
                    kind = rng.choice(3, size=n, p=[0.3, 0.2, 0.5])
                    v[...] = np.where(kind == 0, 0.0,
                                      np.where(kind == 1, 1.0, rng.uniform(0, 1, n)))
                    if trial % 4:
                        v[np.abs(grid.node - rng.uniform(0, 3)) > rng.uniform(0.5, 3)] = 0.0
            xi = potential(rows, grid)
            for v, fused in zip(rows, _free_energies(grid.qweight, rows, xi)):
                clipped = ((v > 0) & (v < delta)) | (v > 1 - delta)
                slack = delta * float(grid.qweight[clipped].sum())
                exact = free_energy(fdfp.DistributionState(grid, v))
                assert abs(fused - exact) <= 1e-13 * abs(exact) + slack


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
# step 2% short in time, say) misses it by the clock's error.  It holds only
# while no clamped cell borders a filled one (see `functionals`), so the data
# are min(1, factor F_mass), smooth and with no empty cell next to mass.
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
    # each time must lie more than 1e-14 relative above the one before it
    # (0 first), and t_final must equal the last or lie that far above it
    ends = [0.0, *times]
    valid = all(a < b * (1 - 1e-14) for a, b in zip(ends, ends[1:])) and \
        (ends[-1] == 0.25 or ends[-1] < 0.25 * (1 - 1e-14))
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
    """The interface fluxes (zero at the boundary) of one FV step from state;
    the kernel keeps them multiplied by -h."""
    kernel = _FvKernel(state.grid, state.values)
    rows, xis = np.empty((2, 1, state.grid.cells))
    kernel.advance((kernel.stable_dt(),), rows, xis)
    return kernel.flux / -state.grid.width, kernel.values


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
    # h = 0.05, R = 8, safety 0.5: dt = 0.5 * 0.0025 / (2 + 0.4)
    g = fdfp.make_grid("cartesian1d", 1, 8.0, 320)
    flat = fdfp.DistributionState(g, np.full(320, 0.3))
    dt = max_stable_dt(flat)
    assert dt == pytest.approx(0.5 * 0.0025 / 2.4, rel=1e-12)


def test_max_stable_dt_scales_like_h_squared():
    # at large n the drift term h*R in the denominator is negligible
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
    # at an unresolved front the upwind mobility exceeds the mean-value
    # mobility, so the discrete second moment can transiently outrun the
    # continuum growth bound; the overshoot is a mesh artifact and shrinks
    # under refinement
    overshoots = []
    for n in (128, 256, 512):
        g = fdfp.make_grid("cartesian1d", 1, 8.0, n)
        f0 = fdfp.DistributionState(g, np.where(np.abs(g.node) <= 1.0, 0.5, 0.0))
        M = fdfp.integrate(f0)
        traj = solve(f0, FvParams(t_final=0.5, output_stride=20))
        m2 = np.array([fdfp.moment(s, 2) for s in traj.states])
        overshoots.append(float(np.max(m2 - (m2[0] + 2 * M * traj.times))))
    assert overshoots[0] > overshoots[1] > overshoots[2]
    assert overshoots[2] <= 0.05


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
    # no slope is fitted at equilibrium
    (dataclasses.replace(_DECAY_FIT, slope=None), "rate_bound", -1.0, True, True),
    (_RUN, "max_mass_drift_rel", solver_fv.MASS_DRIFT_TOL, True, False),
    (_RUN, "max_free_energy_rise", solver_fv.FREE_ENERGY_RISE_TOL, True, False),
    (_RUN, "max_value", 1.0, True, False),
    (_RUN, "min_value", 0.0, True, False),
], ids=["positive_part", "contraction_slack", "moment_spread", "moments_not_monotone",
        "decay_slope", "decay_envelope_broken", "decay_at_equilibrium", "run_mass_drift",
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
