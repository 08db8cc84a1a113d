"""Variational sweep, exact-transpose adjoint, ensemble-mean adjoint, duality."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from fhn_control.adjoint import (
    control_signal,
    duality_gap,
    solve_adjoint_deterministic,
    solve_adjoint_regression,
    solve_variational,
)
from fhn_control.control import CostSpec, Problem
from fhn_control.dynamics import FhnParams
from fhn_control.forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    implicit_solve_star,
    integrate,
    integrate_ensemble,
    tangent_step,
    transpose_step,
)
from fhn_control.scenario import Scenario
from fhn_control.grid import Grid, StateX, neumann_eigenmode, norm_h_sq
from fhn_control.noise import SpectralCovariance


def _setup(n=16, N=50, T=0.1, linear=False, c_g=1.0, c0=0.1, v0=0.3):
    """A noise-free 1-D problem on the whole domain."""
    g = Grid(1, n)
    return Problem(
        params=FhnParams(linear=linear),
        grid=g,
        cov=SpectralCovariance.zero(1),
        spec=ActuatorSpec.identity(g),
        timegrid=TimeGrid(T, N),
        cost=CostSpec(alpha=2.0, c_g=c_g, c0=c0),
        x0=StateX(g.constant(v0), g.zeros()),
    )


def _unpack(problem):
    return (
        problem.grid, problem.params, problem.spec, problem.timegrid, problem.cost, problem.x0
    )


def _uncontrolled_ensemble(problem):
    """The problem's paths under the zero control: one when noise-free."""
    return integrate_ensemble(problem, ControlPath.zero(problem.timegrid, problem.grid), 0)


def _uncontrolled(problem):
    """The one noise-free path under the zero control."""
    return _uncontrolled_ensemble(problem)[:, 0]


def test_variational_matches_forward_difference():
    problem = _setup()
    g, p, spec, tg, cost, x0 = _unpack(problem)
    rng = np.random.default_rng(0)
    u = ControlPath(0.2 * rng.standard_normal((tg.N + 1,) + g.shape))
    direction = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    var = solve_variational(problem, integrate_ensemble(problem, u, 0), direction)[:, 0]
    h = 1e-6
    plus = integrate(p, g, spec, tg, x0, u + h * direction, None)
    minus = integrate(p, g, spec, tg, x0, u - h * direction, None)
    fd_v = (plus.v - minus.v) / (2 * h)
    fd_w = (plus.w - minus.w) / (2 * h)
    np.testing.assert_allclose(var.v, fd_v, atol=1e-7)
    np.testing.assert_allclose(var.w, fd_w, atol=1e-7)


def test_variational_linear_in_direction():
    problem = _setup(linear=True)
    g, tg = problem.grid, problem.timegrid
    ens = _uncontrolled_ensemble(problem)
    rng = np.random.default_rng(1)
    d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    v1 = solve_variational(problem, ens, d)
    v3 = solve_variational(problem, ens, 3.0 * d)
    np.testing.assert_allclose(v3.v, 3.0 * v1.v, atol=1e-12)


def test_non_finite_direction_fails_the_sweep():
    problem = _setup(n=8, N=10)
    ens = _uncontrolled_ensemble(problem)
    direction = ControlPath.zero(problem.timegrid, problem.grid)
    direction.values[4, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_variational(problem, ens, direction)


def test_adjoint_terminal_condition():
    problem = _setup()
    traj = _uncontrolled(problem)
    adj = solve_adjoint_deterministic(problem, traj)
    terminal = problem.cost.dg0(traj[problem.timegrid.N])
    np.testing.assert_allclose(adj.p_v[-1], -terminal.v, atol=1e-14)
    np.testing.assert_allclose(adj.p_w[-1], -terminal.w, atol=1e-14)


def test_adjoint_matches_matrix_exponential_oracle():
    # homogeneous linear reduction with pure terminal cost: the multiplier
    # evolves by powers of the 2x2 resolvent, which converge to expm
    problem = _setup(n=5, N=5000, T=0.5, linear=True, c_g=0.0, c0=0.3, v0=0.4)
    _, p, _, tg, cost, _ = _unpack(problem)
    traj = _uncontrolled(problem)
    adj = solve_adjoint_deterministic(problem, traj)
    m_star = np.array([[0.0, 1.0], [-p.gamma, -p.delta]])
    lam_T = np.array([cost.dg0(traj[tg.N]).v[0], cost.dg0(traj[tg.N]).w[0]])
    for n in (0, tg.N // 2):
        s = tg.T - tg.times()[n]
        oracle = expm(s * m_star) @ lam_T
        assert adj.p_v[n][0] == pytest.approx(-oracle[0], rel=2e-4)
        assert adj.p_w[n][0] == pytest.approx(-oracle[1], rel=2e-4)


def test_control_signal_vanishes_at_final_node():
    problem = _setup()
    q = control_signal(problem, _uncontrolled_ensemble(problem))
    np.testing.assert_array_equal(q.values[-1], problem.grid.zeros())
    assert np.max(np.abs(q.values[:-1])) > 0


def _transpose_sweep(p, g, tg, traj, cost):
    """Reference transpose sweep along one unbatched trajectory: the dual
    path and the transport S* p_{n+1} of its voltage."""
    p_v = np.zeros((tg.N + 1,) + g.shape)
    p_w = np.zeros((tg.N + 1,) + g.shape)
    sp_v = np.zeros((tg.N,) + g.shape)
    lam = cost.dg0(traj[tg.N])
    p_v[tg.N], p_w[tg.N] = -lam.v, -lam.w
    gw = tg.g_weights()
    for n in range(tg.N - 1, -1, -1):
        X = traj[n]
        y = implicit_solve_star(p, g, tg.dt, lam)
        lam = transpose_step(p, g, X, y, gw[n] * cost.dg(X, n), tg.dt)
        sp_v[n] = -y.v
        p_v[n], p_w[n] = -lam.v, -lam.w
    return p_v, p_w, sp_v


SWEEP_CASES = [
    dict(d=1, n=16, steps=50, horizon=0.1),
    dict(d=2, n=12, steps=20, horizon=0.2, mask="left_half", x_ref="modes:2:0.3,3:-0.2"),
]


@pytest.mark.parametrize("overrides", SWEEP_CASES, ids=["d1", "d2"])
def test_regression_single_path_reduces_to_deterministic(overrides):
    # over one path the sweep is the reference transpose sweep, bit for bit
    problem = Scenario(**overrides, modes=6).problem
    p, g, tg, cost = problem.params, problem.grid, problem.timegrid, problem.cost
    rng = np.random.default_rng(2)
    u = ControlPath(0.1 * rng.standard_normal((tg.N + 1,) + g.shape))
    traj = integrate(p, g, problem.spec, tg, problem.x0, u, None)
    ref_v, ref_w, _ = _transpose_sweep(p, g, tg, traj, cost)
    batched = solve_adjoint_regression(problem, traj[:, None])
    for adj in (batched, solve_adjoint_deterministic(problem, traj)):
        np.testing.assert_array_equal(adj.p_v, ref_v)
        np.testing.assert_array_equal(adj.p_w, ref_w)


def _moving_ref_problem(overrides, M):
    """A sweep case on M noisy paths, actuated on the left half, whose
    reference moves in time."""
    overrides = {**overrides, "mask": "left_half"}
    problem = Scenario(
        **overrides, modes=6, mode="stochastic", ensemble=M, sigma1=1.0, sigma2=1.0
    ).problem
    g, N = problem.grid, problem.timegrid.N
    profile = neumann_eigenmode(g, 2)

    def x_ref(n):
        return StateX(0.3 * np.cos(2.0 * np.pi * n / N) * profile, g.zeros())

    return dataclasses.replace(problem, cost=dataclasses.replace(problem.cost, x_ref=x_ref))


@pytest.mark.parametrize("M", [1, 7])
@pytest.mark.parametrize("overrides", SWEEP_CASES, ids=["d1", "d2"])
def test_control_signal_is_the_scaled_mean_transport(overrides, M):
    # the signal is read off the sweep as it passes each node, and no dual
    # path is stored: q_n = (dt/w_n) B* of the mean over paths of the
    # reference sweeps' transport S* p_{n+1}, bit for bit, and q_N = 0
    problem = _moving_ref_problem(overrides, M)
    p, g, tg, cost = problem.params, problem.grid, problem.timegrid, problem.cost
    N = tg.N
    rng = np.random.default_rng(7)
    ens = integrate_ensemble(problem, ControlPath(0.1 * rng.standard_normal((N + 1,) + g.shape)), 0)
    total = _transpose_sweep(p, g, tg, ens[:, 0], cost)[2]
    for path in range(1, M):
        total = total + _transpose_sweep(p, g, tg, ens[:, path], cost)[2]
    scale = (tg.dt / tg.u_weights()[:N]).reshape((N,) + (1,) * g.d)
    q = control_signal(problem, ens).values
    np.testing.assert_array_equal(q[:N], p.gamma * problem.spec.mask * (total / M) * scale)
    np.testing.assert_array_equal(q[N], 0.0)
    # the actuator reads the left half only
    off = problem.spec.mask == 0.0
    assert np.all(q[:N][:, off] == 0.0) and np.all(q[:N][:, ~off] != 0.0)


@pytest.mark.parametrize("M", [1, 7])
@pytest.mark.parametrize("overrides", SWEEP_CASES, ids=["d1", "d2"])
def test_sweep_is_mean_of_per_path_sweeps(overrides, M):
    # the paths share one open-loop control and their noise streams, so the
    # exact gradient of the sampled cost is the mean of the pathwise ones:
    # the ensemble sweep is the sum of its one-path sweeps over M, bit for bit
    problem = Scenario(**overrides, modes=6, mode="stochastic", ensemble=M).problem
    g, tg = problem.grid, problem.timegrid
    rng = np.random.default_rng(3)
    ens = integrate_ensemble(problem, ControlPath(0.1 * rng.standard_normal((tg.N + 1,) + g.shape)), 0)
    adj = solve_adjoint_regression(problem, ens)
    parts = [solve_adjoint_regression(problem, ens[:, q : q + 1]) for q in range(M)]
    for name in ("p_v", "p_w"):
        total = getattr(parts[0], name).copy()
        for part in parts[1:]:
            total += getattr(part, name)
        np.testing.assert_array_equal(getattr(adj, name), total / M)


def _tangent_sweep(problem, traj, direction):
    """Reference tangent sweep along one unbatched trajectory."""
    p, g, tg = problem.params, problem.grid, problem.timegrid
    z_v = np.zeros((tg.N + 1,) + g.shape)
    z_w = np.zeros((tg.N + 1,) + g.shape)
    Z = StateX.zero(g)
    for n in range(tg.N):
        Z = tangent_step(p, g, problem.spec, traj[n], Z, direction.values[n], tg.dt)
        z_v[n + 1], z_w[n + 1] = Z.v, Z.w
    return z_v, z_w


@pytest.mark.parametrize("overrides", SWEEP_CASES, ids=["d1", "d2"])
def test_tangent_ensemble_paths_equal_one_path_sweeps(overrides):
    # the tangent sweep runs every path at once; path p of the tangent
    # ensemble is the one-path tangent sweep along path p, bit for bit
    overrides = {**overrides, "mask": "left_half"}
    for M in (1, 7):
        problem = Scenario(
            **overrides, modes=6, mode="stochastic", ensemble=M, sigma1=1.0, sigma2=1.0
        ).problem
        g, tg = problem.grid, problem.timegrid
        rng = np.random.default_rng(5)
        u = ControlPath(0.1 * rng.standard_normal((tg.N + 1,) + g.shape))
        direction = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
        ens = integrate_ensemble(problem, u, 0)
        var = solve_variational(problem, ens, direction)
        assert var.v.shape == var.w.shape == ens.v.shape
        # the reaction Jacobian differs along paths, and so do the tangents
        assert M == 1 or not np.array_equal(var.v[:, 0], var.v[:, 1])
        for path in range(M):
            ref_v, ref_w = _tangent_sweep(problem, ens[:, path], direction)
            np.testing.assert_array_equal(var.v[:, path], ref_v)
            np.testing.assert_array_equal(var.w[:, path], ref_w)


def test_regression_error_shrinks_with_noise():
    problem = _setup(N=40)
    g, tg = problem.grid, problem.timegrid
    u = ControlPath.zero(tg, g)
    det = solve_adjoint_deterministic(problem, _uncontrolled(problem))
    errs = []
    for sigma in (0.2, 0.05):
        cov = SpectralCovariance.power_spectrum(8, sigma, sigma)
        ens = integrate_ensemble(dataclasses.replace(problem, cov=cov, ensemble=40), u, 0)
        avg = solve_adjoint_regression(problem, ens)
        errs.append(float(np.max(np.abs(avg.p_v - det.p_v))))
    assert errs[1] < errs[0]


@pytest.mark.parametrize("c_g, c0", [(1.0, 0.0), (0.0, 0.1)])
def test_regression_zero_cost_weight_on_ensemble(c_g, c0):
    # a zero terminal (or running) weight must give ensemble-shaped zero
    # sources; the sweep is linear in them, so the two one-term costs
    # add up to the two-term cost
    problem = _setup(N=10)
    g, tg = problem.grid, problem.timegrid
    noisy = dataclasses.replace(problem, cov=SpectralCovariance.power_spectrum(4), ensemble=12)
    ens = integrate_ensemble(noisy, ControlPath.zero(tg, g), 0)

    def sweep(cg, c_0):
        swept = dataclasses.replace(problem, cost=CostSpec(alpha=2.0, c_g=cg, c0=c_0))
        adj = solve_adjoint_regression(swept, ens)
        return adj.p_v, adj.p_w, control_signal(swept, ens).values

    part = sweep(c_g, c0)
    other = sweep(1.0 - c_g, 0.1 - c0)
    both = sweep(1.0, 0.1)
    # the sweeps return ensemble means, not one path per member
    assert part[0].shape == part[1].shape == part[2].shape == (tg.N + 1,) + g.shape
    if c0 == 0.0:
        assert np.all(part[0][tg.N] == 0.0)
    for a, b, ab in zip(part, other, both):
        np.testing.assert_allclose(a + b, ab, rtol=1e-10, atol=1e-14)


def test_duality_gap_exact_for_linear_terminal_cost():
    problem = _setup(linear=True, c_g=0.0, c0=0.2)
    g, tg = problem.grid, problem.timegrid
    rng = np.random.default_rng(4)
    d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    assert abs(duality_gap(problem, _uncontrolled_ensemble(problem), d)) <= 1e-12


@pytest.mark.parametrize("overrides", SWEEP_CASES, ids=["d1", "d2"])
def test_duality_gap_exact_for_linear_terminal_cost_on_an_ensemble(overrides):
    # the mean of the pathwise linearizations pairs exactly with the mean
    # dual path when the reaction is linear and only the terminal cost is on
    problem = Scenario(
        **overrides, modes=6, mode="stochastic", ensemble=7, sigma1=1.0, sigma2=1.0,
        linear=True, running_weight=0.0, terminal_weight=0.2,
    ).problem
    g, tg = problem.grid, problem.timegrid
    rng = np.random.default_rng(6)
    ens = integrate_ensemble(problem, ControlPath.zero(tg, g), 0)
    assert ens.v.shape[1] == 7
    d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    gap = duality_gap(problem, ens, d)
    assert type(gap) is float
    assert abs(gap) <= 1e-12


def test_duality_gap_first_order_in_dt():
    gaps = []
    for N in (25, 50, 100):
        problem = _setup(N=N, T=0.1)
        d = ControlPath(np.ones((N + 1,) + problem.grid.shape))
        gaps.append(abs(duality_gap(problem, _uncontrolled_ensemble(problem), d)))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.2)


def test_adjoint_scales_with_cost_weights():
    problem = _setup()
    cost = problem.cost
    traj = _uncontrolled(problem)
    adj1 = solve_adjoint_deterministic(problem, traj)
    scaled = CostSpec(alpha=cost.alpha, c_g=3.0 * cost.c_g, c0=3.0 * cost.c0)
    adj3 = solve_adjoint_deterministic(dataclasses.replace(problem, cost=scaled), traj)
    np.testing.assert_allclose(adj3.p_v, 3.0 * adj1.p_v, atol=1e-13)
    np.testing.assert_allclose(adj3.p_w, 3.0 * adj1.p_w, atol=1e-13)


def test_adjoint_nontrivial_energy():
    problem = _setup()
    adj = solve_adjoint_deterministic(problem, _uncontrolled(problem))
    gamma = problem.params.gamma
    assert norm_h_sq(problem.grid, gamma, StateX(adj.p_v[0], adj.p_w[0])) > 0.0
