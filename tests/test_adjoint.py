"""Variational sweep, exact-transpose adjoint, regression adjoint, duality."""

import warnings

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
from fhn_control.control import CostSpec
from fhn_control.dynamics import FhnParams
from fhn_control.forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    implicit_solve_star,
    integrate,
    integrate_ensemble,
    transpose_step,
)
from fhn_control.scenario import Scenario
from fhn_control.grid import Grid, StateX, norm_h_sq
from fhn_control.noise import SpectralCovariance


def _setup(n=16, N=50, T=0.1, linear=False, c_g=1.0, c0=0.1, v0=0.3):
    g = Grid(1, n)
    p = FhnParams(linear=linear)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(T, N)
    cost = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=c_g, c0=c0)
    x0 = StateX(g.constant(v0), g.zeros())
    return g, p, spec, tg, cost, x0


def test_variational_matches_forward_difference():
    g, p, spec, tg, cost, x0 = _setup()
    cov = SpectralCovariance.zero(1)
    rng = np.random.default_rng(0)
    u = ControlPath(0.2 * rng.standard_normal((tg.N + 1,) + g.shape))
    direction = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    traj = integrate(p, g, cov, spec, tg, x0, u, 0)
    var = solve_variational(p, g, spec, tg, traj, direction)
    h = 1e-6
    plus = integrate(p, g, cov, spec, tg, x0, u + h * direction, 0)
    minus = integrate(p, g, cov, spec, tg, x0, u - h * direction, 0)
    fd_v = (plus.v - minus.v) / (2 * h)
    fd_w = (plus.w - minus.w) / (2 * h)
    np.testing.assert_allclose(var.v, fd_v, atol=1e-7)
    np.testing.assert_allclose(var.w, fd_w, atol=1e-7)


def test_variational_linear_in_direction():
    g, p, spec, tg, _, x0 = _setup(linear=True)
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    rng = np.random.default_rng(1)
    d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    v1 = solve_variational(p, g, spec, tg, traj, d)
    v3 = solve_variational(p, g, spec, tg, traj, 3.0 * d)
    np.testing.assert_allclose(v3.v, 3.0 * v1.v, atol=1e-12)


def test_adjoint_terminal_condition():
    g, p, spec, tg, cost, x0 = _setup()
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    terminal = cost.dg0(traj[tg.N])
    np.testing.assert_allclose(adj.p_v[-1], -terminal.v, atol=1e-14)
    np.testing.assert_allclose(adj.p_w[-1], -terminal.w, atol=1e-14)


def test_adjoint_matches_matrix_exponential_oracle():
    # homogeneous linear reduction with pure terminal cost: the multiplier
    # evolves by powers of the 2x2 resolvent, which converge to expm
    g, p, spec, tg, cost, x0 = _setup(
        n=5, N=5000, T=0.5, linear=True, c_g=0.0, c0=0.3, v0=0.4
    )
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    m_star = np.array([[0.0, 1.0], [-p.gamma, -p.delta]])
    lam_T = np.array([cost.dg0(traj[tg.N]).v[0], cost.dg0(traj[tg.N]).w[0]])
    for n in (0, tg.N // 2):
        s = tg.T - tg.times()[n]
        oracle = expm(s * m_star) @ lam_T
        assert adj.p_v[n][0] == pytest.approx(-oracle[0], rel=2e-4)
        assert adj.p_w[n][0] == pytest.approx(-oracle[1], rel=2e-4)


def test_control_signal_vanishes_at_final_node():
    g, p, spec, tg, cost, x0 = _setup()
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    q = control_signal(p, g, spec, tg, adj)
    np.testing.assert_array_equal(q.values[-1], g.zeros())
    assert np.max(np.abs(q.values[:-1])) > 0


def _transpose_sweep(p, g, tg, traj, cost):
    """Reference transpose sweep along one unbatched trajectory."""
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


@pytest.mark.parametrize(
    "overrides",
    [
        dict(d=1, n=16, steps=50, horizon=0.1),
        dict(d=2, n=12, steps=20, horizon=0.2, mask="left_half", x_ref="modes:2:0.3,3:-0.2"),
    ],
    ids=["d1", "d2"],
)
def test_regression_single_path_reduces_to_deterministic(overrides):
    # one path is its own conditional expectation: the sweep is the exact
    # transpose sweep, bit for bit, with zero kappa energy
    s = Scenario(**overrides, modes=6)
    p, g, tg, cost = s.build_params(), s.build_grid(), s.build_timegrid(), s.build_cost()
    rng = np.random.default_rng(2)
    u = ControlPath(0.1 * rng.standard_normal((tg.N + 1,) + g.shape))
    traj = integrate(
        p, g, s.build_cov(), s.build_actuator(), tg, s.build_initial_state(), u, 0
    )
    ref_v, ref_w, ref_sp = _transpose_sweep(p, g, tg, traj, cost)
    adj, kappa = solve_adjoint_regression(p, g, tg, traj[:, None], cost)
    np.testing.assert_array_equal(adj.p_v, ref_v)
    np.testing.assert_array_equal(adj.p_w, ref_w)
    np.testing.assert_array_equal(adj.sp_v, ref_sp)
    np.testing.assert_array_equal(kappa, 0.0)
    det = solve_adjoint_deterministic(p, g, tg, traj, cost)
    np.testing.assert_array_equal(det.sp_v, ref_sp)


def test_regression_warns_on_small_ensemble():
    g, p, spec, tg, cost, x0 = _setup(N=5)
    cov = SpectralCovariance.power_spectrum(4)
    ens = integrate_ensemble(p, g, cov, spec, tg, x0, ControlPath.zero(tg, g), 0, 3)
    with pytest.warns(RuntimeWarning, match="small"):
        solve_adjoint_regression(p, g, tg, ens, cost)


def test_regression_error_shrinks_with_noise():
    g, p, spec, tg, cost, x0 = _setup(N=40)
    u = ControlPath.zero(tg, g)
    det_traj = integrate(p, g, SpectralCovariance.zero(1), spec, tg, x0, u, 0)
    det = solve_adjoint_deterministic(p, g, tg, det_traj, cost)
    errs = []
    for sigma in (0.2, 0.05):
        cov = SpectralCovariance.power_spectrum(8, sigma, sigma)
        ens = integrate_ensemble(p, g, cov, spec, tg, x0, u, 0, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            avg, _ = solve_adjoint_regression(p, g, tg, ens, cost)
        errs.append(float(np.max(np.abs(avg.p_v - det.p_v))))
    assert errs[1] < errs[0]


def test_regression_kappa_energy():
    g, p, spec, tg, cost, x0 = _setup(N=10)
    cov = SpectralCovariance.power_spectrum(4)
    ens = integrate_ensemble(p, g, cov, spec, tg, x0, ControlPath.zero(tg, g), 0, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, kappa = solve_adjoint_regression(p, g, tg, ens, cost)
        # path 0 alone: the path axis is the second one
        _, kappa_one = solve_adjoint_regression(p, g, tg, ens[:, :1], cost)
    assert kappa.shape == (tg.N,)
    assert np.all(kappa >= 0.0)
    # every step leaves a residual, node 0 included, where the fit is the mean
    assert np.all(kappa > 0.0)
    np.testing.assert_array_equal(kappa_one, np.zeros(tg.N))


@pytest.mark.parametrize("c_g, c0", [(1.0, 0.0), (0.0, 0.1)])
def test_regression_zero_cost_weight_on_ensemble(c_g, c0):
    # a zero terminal (or running) weight must give ensemble-shaped zero
    # sources; the sweep is linear in them, so the two one-term costs
    # add up to the two-term cost
    g, p, spec, tg, _, x0 = _setup(N=10)
    cov = SpectralCovariance.power_spectrum(4)
    ens = integrate_ensemble(p, g, cov, spec, tg, x0, ControlPath.zero(tg, g), 0, 12)

    def sweep(cg, c_0):
        cost = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=cg, c0=c_0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return solve_adjoint_regression(p, g, tg, ens, cost)[0]

    part = sweep(c_g, c0)
    other = sweep(1.0 - c_g, 0.1 - c0)
    both = sweep(1.0, 0.1)
    # the sweep returns the ensemble mean, not one path per member
    assert part.p_v.shape == part.p_w.shape == (tg.N + 1,) + g.shape
    assert part.sp_v.shape == (tg.N,) + g.shape
    if c0 == 0.0:
        assert np.all(part.p_v[tg.N] == 0.0)
    for name in ("p_v", "p_w", "sp_v"):
        np.testing.assert_allclose(
            getattr(part, name) + getattr(other, name),
            getattr(both, name),
            rtol=1e-10,
            atol=1e-14,
        )


def test_duality_gap_exact_for_linear_terminal_cost():
    g, p, spec, tg, cost, x0 = _setup(linear=True, c_g=0.0, c0=0.2)
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    rng = np.random.default_rng(4)
    d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    assert abs(duality_gap(p, g, spec, tg, traj, adj, d, cost)) <= 1e-12


def test_duality_gap_first_order_in_dt():
    gaps = []
    for N in (25, 50, 100):
        g, p, spec, tg, cost, x0 = _setup(N=N, T=0.1)
        traj = integrate(
            p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
        )
        adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
        d = ControlPath(np.ones((tg.N + 1,) + g.shape))
        gaps.append(abs(duality_gap(p, g, spec, tg, traj, adj, d, cost)))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.2)


def test_adjoint_scales_with_cost_weights():
    g, p, spec, tg, cost, x0 = _setup()
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj1 = solve_adjoint_deterministic(p, g, tg, traj, cost)
    scaled = CostSpec(
        grid=g, gamma=p.gamma, alpha=cost.alpha, c_g=3.0 * cost.c_g, c0=3.0 * cost.c0
    )
    adj3 = solve_adjoint_deterministic(p, g, tg, traj, scaled)
    np.testing.assert_allclose(adj3.p_v, 3.0 * adj1.p_v, atol=1e-13)
    np.testing.assert_allclose(adj3.p_w, 3.0 * adj1.p_w, atol=1e-13)


def test_adjoint_nontrivial_energy():
    g, p, spec, tg, cost, x0 = _setup()
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    assert norm_h_sq(g, p.gamma, StateX(adj.p_v[0], adj.p_w[0])) > 0.0
