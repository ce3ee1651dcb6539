import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fdfp
from fdfp import solver_duhamel
from fdfp.solver_duhamel import (
    DuhamelParams,
    _linear_terms,
    apply_T,
    picard_solve,
)
from fdfp.solver_fv import FvParams, solve
from fdfp.mehler import _apply_folded, _edge_gaussians, apply_kernel, apply_kernel_gradient_edges

from conftest import MASS_BETA1_N1


def _constant_trajectory(f0, params):
    # the trajectory matrix that holds f0 at every time node
    return np.tile(f0.values, (params.time_nodes, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        DuhamelParams(t_final=1.5)
    with pytest.raises(ValueError):
        DuhamelParams(t_final=0.25, time_nodes=4)
    with pytest.raises(ValueError):
        DuhamelParams(t_final=0.0)
    # a non-integral count would fail later, inside numpy; an integral
    # number is an integer, by the one rule of fdfp (grid.as_integer)
    for value in (7, 7.0, 8.5, math.nan, math.inf, "16", None):
        with pytest.raises(ValueError, match="^time_nodes must be an integer >= 8$"):
            DuhamelParams(t_final=0.25, time_nodes=value)
    for value in (np.int64(9), 9.0, np.float64(9)):
        params = DuhamelParams(t_final=0.25, time_nodes=value)
        assert type(params.time_nodes) is int and params.time_grid().size == 9
    # the Picard numerics are module constants, not parameters
    assert [f.name for f in dataclasses.fields(DuhamelParams)] == ["t_final", "time_nodes"]


def test_apply_T_zero_trajectory_gives_linear_flow(grid256, eq_beta1):
    # with f == 0 in the quadratic term the map returns the pure kernel flow
    params = DuhamelParams(t_final=0.2, time_nodes=9)
    out = apply_T(np.zeros((params.time_nodes, 256)), eq_beta1, params)
    for k, t in enumerate(params.time_grid()):
        if k == 0:
            continue
        lin = apply_kernel(float(t), grid256, eq_beta1.values)
        assert float(np.dot(grid256.qweight, np.abs(out[k] - lin))) <= 1e-12


def test_apply_T_zero_initial_gives_zero(grid256):
    params = DuhamelParams(t_final=0.2, time_nodes=9)
    zero = fdfp.DistributionState(grid256, np.zeros(256))
    out = apply_T(_constant_trajectory(zero, params), zero, params)
    for row in out:
        assert np.abs(row).max() <= 1e-14


def test_apply_T_time_grid_mismatch(grid256, radial256, eq_beta1):
    # F has one row per time node of params and one column per cell
    params = DuhamelParams(t_final=0.2, time_nodes=9)
    other = DuhamelParams(t_final=0.2, time_nodes=12)
    for F in (_constant_trajectory(eq_beta1, other), np.zeros((9, 255)), np.zeros(256)):
        with pytest.raises(ValueError, match=r"\(time_nodes, cells\) = \(9, 256\)"):
            apply_T(F, eq_beta1, params)
    radial = fdfp.equilibrium_state(1.0, radial256)
    with pytest.raises(ValueError, match="cartesian"):
        apply_T(_constant_trajectory(radial, params), radial, params)


def test_apply_T_image_may_leave_the_invariant_region():
    # 32 cells cannot resolve the kernel at the first node (t = 0.01 / 7):
    # the midpoint linear term amplifies the data to 1.87, and apply_T
    # returns that image, as the map with full-matrix kernel gradients does
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 32)
    f0 = fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0))
    params = DuhamelParams(t_final=0.01, time_nodes=8)
    F = _constant_trajectory(f0, params)
    out = apply_T(F, f0, params)
    assert out.max() > 1.0
    reference = _apply_T_per_node(F, f0, params, _linear_terms(f0, params),
                                  _gradient_edges_full_matrix)
    assert np.abs(out - reference).max() <= 1e-14


def test_apply_T_reproduces_pde_right_hand_side(grid512):
    # one application to the constant-in-time extension approximates
    # f0 + t*(f'' + (v f (1-f))') at small t; oracle is the FD stencil
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid512)
    f0 = fdfp.DistributionState(grid512, 0.5 * eq.values)
    params = DuhamelParams(t_final=0.04, time_nodes=9)
    out = apply_T(_constant_trajectory(f0, params), f0, params)
    t1 = float(params.time_grid()[1])
    lhs = (out[1] - f0.values) / t1

    h = grid512.width
    f = f0.values
    lap = np.zeros_like(f)
    lap[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h ** 2
    drift = grid512.node * f * (1 - f)
    div = np.zeros_like(f)
    div[1:-1] = (drift[2:] - drift[:-2]) / (2 * h)
    rhs = lap + div
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs)[4:-4].max() <= 0.01 * scale


def test_picard_fixed_point_at_equilibrium(grid256, eq_beta1):
    traj = picard_solve(eq_beta1, DuhamelParams(t_final=0.25))
    dev = max(fdfp.l1_distance(s, eq_beta1) for s in traj.states)
    assert dev <= 5e-3


def test_picard_indicator_convergence(grid256):
    vals = np.where(np.abs(grid256.node) <= 1.0, 0.5, 0.0)
    f0 = fdfp.DistributionState(grid256, vals)
    traj = picard_solve(f0, DuhamelParams(t_final=0.25))
    assert traj.meta.iterations <= 15
    # geometric contraction at every time node
    assert len(traj.meta.increments) == 15
    for inc in traj.meta.increments:
        assert all(inc[i + 1] / inc[i] < 0.9 for i in range(len(inc) - 1))
    # mass constant and invariant region violated by at most 1e-6
    mass = traj.column("mass")
    assert np.abs(mass - mass[0]).max() <= 1e-6
    lo = min(s.values.min() for s in traj.states)
    hi = max(s.values.max() for s in traj.states)
    assert lo >= -1e-6 and hi <= 1 + 1e-6


def test_picard_aborts_without_contraction(grid256):
    big = fdfp.DistributionState(grid256, np.full(256, 0.95))
    with pytest.raises(RuntimeError, match="t_final"):
        picard_solve(big, DuhamelParams(t_final=1.0, time_nodes=9))


def test_picard_reports_no_convergence_within_max_iter(grid256, monkeypatch):
    # the smooth data contracts, but not to 1e-8 within two iterations
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid256)
    f0 = fdfp.DistributionState(grid256, 0.5 * eq.values)
    monkeypatch.setattr(solver_duhamel, "PICARD_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match=r"did not reach tol 1\.0e-08 within 2 iterations"):
        picard_solve(f0, DuhamelParams(t_final=0.25))


def _count_builds(monkeypatch, stored=None):
    # the kernel times of each Gaussian tensor picard_solve builds, one entry
    # per call, and the bytes each tensor stores, if `stored` is a list
    builds = []

    def counted(times, grid):
        builds.append(np.array(times))
        gaussians = _edge_gaussians(times, grid)
        if stored is not None:
            stored.append(gaussians[1].nbytes)
        return gaussians

    monkeypatch.setattr(solver_duhamel, "_edge_gaussians", counted)
    return builds


def _assert_every_quadrature_node_built_once(builds, params):
    # node k builds lag k - 1 and nothing else: one tensor per positive time
    # node, holding exactly the kernel times of that lag's piece
    dt = params.t_final / (params.time_nodes - 1)
    assert [theta.size for theta in builds] == (
        [solver_duhamel.SELF_QUAD_NODES]
        + [solver_duhamel.LAG_QUAD_NODES] * (params.time_nodes - 2))
    for d, theta in enumerate(builds):
        assert np.allclose(theta, _piece_nodes(d, dt)[0], rtol=1e-14, atol=0)


def test_picard_stops_at_the_first_node_outside_the_invariant_region(monkeypatch):
    # 32 cells cannot resolve the kernel at the first node (t = 0.01 / 7), and
    # the row there peaks at 1.87; the march stops before building node 2's
    # lag, after node 1's build of the self piece alone
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 32)
    f0 = fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0))
    builds = _count_builds(monkeypatch)
    with pytest.raises(ValueError, match=r"outside \[0, 1\] at time node 1 \(t=0\.00142857\): "
                                         r"min=.*, max=1\.87"):
        picard_solve(f0, DuhamelParams(t_final=0.01, time_nodes=8))
    assert [theta.size for theta in builds] == [solver_duhamel.SELF_QUAD_NODES]


def test_picard_rejects_radial(radial256):
    eq = fdfp.equilibrium_state(1.0, radial256)
    with pytest.raises(ValueError, match="cartesian"):
        picard_solve(eq, DuhamelParams(t_final=0.25))


def test_cross_solver_agreement_smooth_data(grid256):
    # derived oracle: the two independent discretizations agree to O(h^2)+O(dt)
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid256)
    f0 = fdfp.DistributionState(grid256, 0.5 * eq.values)
    du = picard_solve(f0, DuhamelParams(t_final=0.25))
    # no stride rows: one row at each Picard node
    fv = solve(f0, FvParams(t_final=0.25, output_stride=10 ** 9), du.times[1:])
    assert np.allclose(fv.times, du.times, rtol=1e-13, atol=0)
    assert solver_duhamel.node_gaps(du, fv).max() <= 2e-3


def test_cross_solver_agreement_indicator(grid256):
    # frozen from the cross-solver oracle at n=256: the L1 gap at t=0.25 is
    # about 1.9e-2 (front-dominated) and shrinks by ~2x per refinement level;
    # see also the acceptance suite for the refinement run
    vals = np.where(np.abs(grid256.node) <= 1.0, 0.5, 0.0)
    f0 = fdfp.DistributionState(grid256, vals)
    du = picard_solve(f0, DuhamelParams(t_final=0.25))
    # the FV march lands a row on each Picard node
    fv = solve(f0, FvParams(t_final=0.25), du.times[1:])
    assert solver_duhamel.node_gaps(du, fv)[-1] <= 2.5e-2


@pytest.mark.parametrize("kind", ["smooth", "indicator"])
def test_cross_solver_gap_falls_under_refinement(kind):
    # the L1 gap at t = 0.25 falls by at least 1.5 per halving of h, the
    # Picard time step shrinking with it: O(h^2) + O(dt) for smooth data,
    # front-dominated first order for the indicator
    gaps = []
    for cells, nodes in ((128, 9), (256, 16), (512, 31)):
        grid = fdfp.make_grid("cartesian1d", 1, 8.0, cells)
        if kind == "smooth":
            values = 0.5 * fdfp.equilibrium_state(MASS_BETA1_N1, grid).values
        else:
            values = np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0)
        f0 = fdfp.DistributionState(grid, values)
        start = time.perf_counter()
        du = picard_solve(f0, DuhamelParams(t_final=0.25, time_nodes=nodes))
        picard_s = time.perf_counter() - start
        fv = solve(f0, FvParams(t_final=0.25), du.times[1:])
        gaps.append(float(solver_duhamel.node_gaps(du, fv)[-1]))
        factor = f", factor {gaps[-2] / gaps[-1]:.3f}" if len(gaps) > 1 else ""
        print(f"REFINEMENT cross-solver {kind} n={cells} nodes={nodes}: "
              f"L1 gap {gaps[-1]:.4e}{factor}, picard {picard_s:.3f} s")
    factors = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
    assert min(factors) >= 1.5, factors


def _gradient_edges_full_matrix(theta, grid, u):
    # the edge-integrated kernel gradient written out directly: all rows of
    # the Gaussian matrix, differenced along the edges, no mirror
    a, nu = math.exp(-2 * theta), math.expm1(2 * theta)
    x = (a ** -0.5) * grid.node[:, None] - grid.edges[None, :]
    P = np.exp(-x * x / (2 * nu)) / math.sqrt(2 * math.pi * nu)
    return (1.0 / a) * ((P[:, :-1] - P[:, 1:]) @ u)


def _piece_nodes(d, dt):
    # the kernel times and quadrature weights of lag d's piece of the
    # s-integral, theta in (d dt, (d + 1) dt): Gauss nodes in tau = theta^(1/2)
    # on the self piece, in theta on the others
    if d == 0:
        nodes, weights = leggauss(solver_duhamel.SELF_QUAD_NODES)
        half = 0.5 * math.sqrt(dt)
        tau = half * (nodes + 1.0)
        return tau ** 2, half * weights * 2.0 * tau
    nodes, weights = leggauss(solver_duhamel.LAG_QUAD_NODES)
    return d * dt + 0.5 * dt * (nodes + 1.0), 0.5 * dt * weights


def _node_terms(F, grid, times, k, gradient):
    # the terms of the s-integral at time node k, one per quadrature node,
    # each with one kernel-gradient call, and the lag of its piece
    dt = times[1] - times[0]
    for d in range(k):
        theta, weight = _piece_nodes(d, dt)
        for j in range(theta.size):
            s = times[k] - theta[j]
            lam = (s - times[k - d - 1]) / (times[k - d] - times[k - d - 1])
            fs = (1.0 - lam) * F[k - d - 1] + lam * F[k - d]
            u = grid.node * fs * fs
            yield d, weight[j] * np.exp(-theta[j]) * gradient(theta[j], grid, u)


def _apply_T_per_node(F, f0, params, lin, gradient):
    # the mild-equation map with one kernel-gradient call per quadrature node
    times = params.time_grid()
    out = np.empty_like(F)
    out[0] = f0.values
    for k in range(1, times.size):
        correction = np.zeros(f0.grid.cells)
        for _, term in _node_terms(F, f0.grid, times, k, gradient):
            correction += term
        out[k] = lin[k] - correction
    return out


@pytest.mark.parametrize("cells,extent", [(128, 8.0), (100, 8.0), (65, 8.0), (9, 6.0)])
def test_batched_map_matches_per_node_loop(cells, extent, rng):
    # 100 cells on [-8, 8] have a non-dyadic width, so the mesh is mirror
    # symmetric only to roundoff; 65 and 9 cells have a middle row
    grid = fdfp.make_grid("cartesian1d", 1, extent, cells)
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid)
    f0 = fdfp.DistributionState(grid, 0.5 * eq.values)
    params = DuhamelParams(t_final=1.0, time_nodes=16)
    lin = _linear_terms(f0, params)
    F = np.clip(lin + 0.05 * rng.uniform(-1, 1, lin.shape), 0.0, 1.0)
    batched = apply_T(F, f0, params, lin)
    for gradient in (apply_kernel_gradient_edges, _gradient_edges_full_matrix):
        reference = _apply_T_per_node(F, f0, params, lin, gradient)
        assert np.abs(batched - reference).max() <= 1e-14


@pytest.mark.parametrize("cells,extent", [(128, 8.0), (65, 8.0), (9, 6.0)])
def test_folded_self_part_matches_its_quadrature_nodes(cells, extent, rng):
    # each piece, the self piece (lag 0) and every earlier one, folded into
    # its three lag-matrix slots, against its quadrature nodes at the last
    # time node summed one full-matrix kernel gradient at a time
    grid = fdfp.make_grid("cartesian1d", 1, extent, cells)
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid)
    f0 = fdfp.DistributionState(grid, 0.5 * eq.values)
    params = DuhamelParams(t_final=1.0, time_nodes=16)
    lin = _linear_terms(f0, params)
    F = np.clip(lin + 0.05 * rng.uniform(-1, 1, lin.shape), 0.0, 1.0)
    times = params.time_grid()
    k = times.size - 1
    reference = np.zeros((k, cells))
    for d, term in _node_terms(F, grid, times, k, _gradient_edges_full_matrix):
        reference[d] += term
    for d in range(k):
        L = solver_duhamel._lag_matrices(params, grid)
        solver_duhamel._fold_lag(L, d, params, grid)
        a, b = F[k - d - 1], F[k - d]
        piece = _apply_folded(L[:, 2 * d:2 * d + 3], grid.node * np.stack([b * b, a * b, a * a]))
        assert np.abs(piece - reference[d]).max() <= 1e-14


@pytest.mark.parametrize("cells", [128, 65])
def test_kernel_gradient_edges_matches_full_matrix(cells, rng):
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, cells)
    u = rng.uniform(-1, 1, cells)
    for theta in (1e-9, 1e-4, 0.05, 0.7):
        ref = _gradient_edges_full_matrix(theta, grid, u)
        got = apply_kernel_gradient_edges(theta, grid, u)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _plain_picard(f0, params, apply):
    # the Picard loop written out: one application of the map per iteration,
    # stopping at PICARD_TOL (the settings below all contract)
    lin = _linear_terms(f0, params)
    F = lin.copy()
    increments = []
    for _ in range(solver_duhamel.PICARD_MAX_ITER):
        F_next = apply(F, f0, params, lin)
        increments.append(float(np.max(np.dot(np.abs(F_next - F), f0.grid.qweight))))
        F = F_next
        if increments[-1] <= solver_duhamel.PICARD_TOL:
            return F, tuple(increments)
    raise AssertionError("the reference loop did not converge")


def _cross_check_setting(cells=128):
    # the benchmark's cross_check setting: decay-rate data, 16 time nodes
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, cells)
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid)
    return fdfp.DistributionState(grid, 0.5 * eq.values), DuhamelParams(t_final=1.0, time_nodes=16)


def _sup_l1(states, F):
    # sup-over-time L1 distance of a trajectory's states to a trajectory matrix
    return max(float(np.dot(s.grid.qweight, np.abs(s.values - row))) for s, row in zip(states, F))


def test_picard_iterations_unchanged_by_batching(monkeypatch):
    # against the plain loop of the map with one full-matrix kernel gradient
    # per quadrature node, at the cross_check setting (128 cells, 16 time
    # nodes to t = 1)
    f0, params = _cross_check_setting()
    builds = _count_builds(monkeypatch)
    march = picard_solve(f0, params)
    monkeypatch.undo()
    F, increments = _plain_picard(
        f0, params, lambda F, f0, params, lin: _apply_T_per_node(F, f0, params, lin,
                                                                 _gradient_edges_full_matrix))
    assert len(increments) == 8
    assert _sup_l1(march.states, F) <= solver_duhamel.PICARD_TOL
    # one Gaussian tensor per positive time node, of one lag's kernel times:
    # 24 for the self piece and 4 for each of the 14 earlier pieces
    _assert_every_quadrature_node_built_once(builds, params)
    assert march.meta.kernel_times == sum(theta.size for theta in builds) == 80
    assert len(march.meta.increments) == params.time_nodes - 1
    assert march.meta.iterations == max(map(len, march.meta.increments)) <= 5
    # [5] * 12 + [4] * 3 iterations, each one product with the self piece's
    # two lag matrices
    assert march.meta.self_iterations == sum(map(len, march.meta.increments)) == 72


@pytest.mark.parametrize("removed", ["iterations", "self_iterations"])
def test_picard_run_reads_its_counts_off_the_increments(removed):
    run = solver_duhamel.PicardRun(kernel_times=28, increments=((1.0, 1e-9), (1e-9,)))
    assert (run.iterations, run.self_iterations) == (2, 3)
    with pytest.raises(TypeError):
        solver_duhamel.PicardRun(kernel_times=28, increments=run.increments, **{removed: 2})


def test_picard_solver_requires_a_cartesian_grid(radial256):
    f0 = fdfp.DistributionState(radial256, np.full(radial256.cells, 0.5))
    params = DuhamelParams(t_final=0.25)
    # the solver runs on the kernel operators, and refuses a grid in their words
    message = "^kernel operators require a cartesian1d grid$"
    with pytest.raises(ValueError, match=message):
        picard_solve(f0, params)
    with pytest.raises(ValueError, match=message):
        apply_T(_constant_trajectory(f0, params), f0, params)


def test_time_rule_is_converged_at_the_cross_check_setting(monkeypatch):
    # doubling every piece's node count moves the fixed point by less than
    # 1e-7 in sup-over-time L1 (2.0e-8 with 24 and 4 nodes; 16 self nodes
    # give 6.2e-7)
    f0, params = _cross_check_setting()
    march = picard_solve(f0, params)
    monkeypatch.setattr(solver_duhamel, "SELF_QUAD_NODES", 2 * solver_duhamel.SELF_QUAD_NODES)
    monkeypatch.setattr(solver_duhamel, "LAG_QUAD_NODES", 2 * solver_duhamel.LAG_QUAD_NODES)
    doubled = picard_solve(f0, params)
    assert doubled.meta.kernel_times == 160
    assert _sup_l1(march.states, doubled.values) <= 1e-7


@pytest.mark.parametrize("setting", ["cross_check", "indicator256", "chunked65"])
def test_picard_march_matches_the_plain_loop(setting):
    # the node-by-node march reaches the fixed point of applying the map once
    # per iteration, to within the stopping tolerance
    if setting == "indicator256":
        grid = fdfp.make_grid("cartesian1d", 1, 8.0, 256)
        f0 = fdfp.DistributionState(grid, np.where(np.abs(grid.node) <= 1.0, 0.5, 0.0))
        params = DuhamelParams(t_final=0.25)
    else:   # chunked65: 65 cells have a middle row, which the mirror symmetry maps to itself
        f0, params = _cross_check_setting(128 if setting == "cross_check" else 65)
    run = picard_solve(f0, params)
    F, increments = _plain_picard(f0, params, apply_T)
    assert _sup_l1(run.states, F) <= solver_duhamel.PICARD_TOL
    assert run.meta.iterations <= len(increments)


def test_picard_holds_one_node_tensor_at_a_time(grid256, monkeypatch):
    # the lag matrices, 128 * 31 * 257 doubles (8.2 MB) at 256 cells and 16
    # time nodes, are held for the whole solve; each node's banded tensor
    # of one lag is dropped once folded, before the next node's is built: the
    # peak is at least the lag matrices and less than those plus twice the
    # largest tensor
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid256)
    f0 = fdfp.DistributionState(grid256, 0.5 * eq.values)
    params = DuhamelParams(t_final=0.25)
    stored = []
    builds = _count_builds(monkeypatch, stored)
    tracemalloc.start()
    try:
        picard_solve(f0, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_every_quadrature_node_built_once(builds, params)
    held = solver_duhamel._lag_matrices(params, grid256).nbytes
    assert held == 128 * 31 * 257 * 8
    assert held <= peak < held + 2 * max(stored)


def test_picard_builds_store_a_fitted_band(monkeypatch):
    # each build's band is fitted to its own kernel times: over a solve at
    # 512 cells, 31 time nodes and t = 1/4 the builds store 56% of the full
    # tensors' entries, 256 rows by 513 edges per time (71% when the times
    # were grouped in levels of doubling band width)
    grid = fdfp.make_grid("cartesian1d", 1, 8.0, 512)
    eq = fdfp.equilibrium_state(MASS_BETA1_N1, grid)
    f0 = fdfp.DistributionState(grid, 0.5 * eq.values)
    params = DuhamelParams(t_final=0.25, time_nodes=31)
    stored = []
    builds = _count_builds(monkeypatch, stored)
    picard_solve(f0, params)
    _assert_every_quadrature_node_built_once(builds, params)
    full = sum(theta.size for theta in builds) * 256 * 513 * 8
    assert sum(stored) <= 0.6 * full
