"""Cost functional, exact gradients, contraction margin, and the optimizer."""

import dataclasses

import numpy as np
import pytest

import fhn_control.control as control_module
import fhn_control.forward as forward_module
import fhn_control.grid as grid_module
from fhn_control.adjoint import solve_adjoint_deterministic
from fhn_control.control import (
    CostSpec,
    Problem,
    contraction_margin,
    gradient,
    optimize,
    psi_estimate,
    subdiff_inverse,
)
from fhn_control.dynamics import FhnParams
from fhn_control.errors import ConfigurationError, ContractViolation
from fhn_control.forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    integrate,
    u_inner,
    u_norm,
)
from fhn_control.grid import Grid, StateX
from fhn_control.noise import SpectralCovariance


def _setup(n=16, N=50, T=0.1, alpha=2.0, c_g=1.0, c0=0.1, v0=0.3, linear=False):
    """A noise-free 1-D problem on the whole domain."""
    g = Grid(1, n)
    p = FhnParams(linear=linear)
    return Problem(
        params=p,
        grid=g,
        cov=SpectralCovariance.zero(1),
        spec=ActuatorSpec.identity(g),
        timegrid=TimeGrid(T, N),
        cost=CostSpec(grid=g, gamma=p.gamma, alpha=alpha, c_g=c_g, c0=c0),
        x0=StateX(g.constant(v0), g.zeros()),
    )


def _noisy(problem, ensemble):
    return dataclasses.replace(
        problem, cov=SpectralCovariance.power_spectrum(4, 0.05, 0.05), ensemble=ensemble
    )


def test_problem_path_count_follows_noise():
    problem = _noisy(_setup(n=8), 20)
    assert problem.n_paths == 20
    assert dataclasses.replace(problem, cov=SpectralCovariance.zero(4)).n_paths == 1
    with pytest.raises(ConfigurationError, match="ensemble"):
        dataclasses.replace(problem, ensemble=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.ensemble = 5


def test_cost_spec_validation():
    g = Grid(1, 8)
    with pytest.raises(ConfigurationError):
        CostSpec(grid=g, gamma=0.5, alpha=0.0)
    with pytest.raises(ConfigurationError):
        CostSpec(grid=g, gamma=0.5, alpha=1.0, c0=-1.0)


def test_quadratic_cost_values():
    g = Grid(1, 9, 1.0)
    cost = CostSpec(grid=g, gamma=0.5, alpha=2.0, c_g=1.0, c0=0.4)
    X = StateX(g.constant(1.0), g.constant(2.0))
    # g = 0.5 * (gamma*|v|^2 + |w|^2) = 0.5 * (0.5 + 4) over unit volume
    assert cost.g(X, 0) == pytest.approx(0.5 * (0.5 + 4.0))
    assert cost.g0(X) == pytest.approx(0.4 * 0.5 * (0.5 + 4.0))
    assert cost.h(g.constant(3.0)) == pytest.approx(0.5 * 2.0 * 9.0)


def test_reference_profiles_constant_and_time_varying():
    g = Grid(1, 9)
    ref = StateX(g.constant(1.0), g.zeros())
    cost = CostSpec(grid=g, gamma=0.5, alpha=1.0, x_ref=ref)
    X = StateX(g.constant(1.0), g.zeros())
    assert cost.g(X, 0) == pytest.approx(0.0)
    moving = CostSpec(
        grid=g, gamma=0.5, alpha=1.0,
        x_ref=lambda n: StateX(g.constant(float(n)), g.zeros()),
    )
    assert moving.g(X, 1) == pytest.approx(0.0)
    assert moving.g(X, 3) > 0.0


def test_subdiff_inverse_is_inverse_of_dh():
    g = Grid(1, 8)
    tg = TimeGrid(0.1, 4)
    cost = CostSpec(grid=g, gamma=0.5, alpha=2.5)
    rng = np.random.default_rng(0)
    q = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    u = subdiff_inverse(cost, q)
    # dh(u) = alpha*u must reproduce q
    np.testing.assert_allclose(cost.alpha * u.values, q.values, atol=1e-14)


def test_contraction_margin_formula():
    g = Grid(1, 8)
    cost = CostSpec(grid=g, gamma=0.5, alpha=2.0, c0=0.1)
    out = contraction_margin(cost, 0.5)
    assert out["L"] == pytest.approx(0.5)
    assert out["margin"] == pytest.approx(0.5 * 0.5 + 0.1)
    assert out["within"]
    far = contraction_margin(cost, 10.0)
    assert not far["within"]


def test_psi_estimate_zero_cost_for_zero_everything():
    problem = _setup(c0=0.0, c_g=1.0)
    problem = dataclasses.replace(problem, x0=StateX.zero(problem.grid))
    val, err = psi_estimate(problem, ControlPath.zero(problem.timegrid, problem.grid))
    assert val == pytest.approx(0.0, abs=1e-15)
    assert err == 0.0


def test_psi_estimate_control_cost_only():
    problem = _setup(c0=0.0, c_g=0.0, alpha=2.0, linear=True)
    g, tg = problem.grid, problem.timegrid
    problem = dataclasses.replace(problem, x0=StateX.zero(g))
    u = ControlPath(np.ones((tg.N + 1,) + g.shape))
    val, _ = psi_estimate(problem, u)
    # the state cost is off, so only (alpha/2)|u|^2 = 1 * T * |Lambda| remains
    assert val == pytest.approx(1.0 * tg.T, rel=1e-10)


def test_psi_estimate_stochastic_reports_stderr():
    problem = dataclasses.replace(
        _setup(N=10), cov=SpectralCovariance.power_spectrum(4), ensemble=16
    )
    u = ControlPath.zero(problem.timegrid, problem.grid)
    val, err = psi_estimate(problem, u, 0)
    assert val > 0
    assert err > 0


def test_gradient_matches_finite_differences():
    problem = _setup()
    g, p, cov, spec, tg, cost, x0 = (
        problem.grid, problem.params, problem.cov, problem.spec, problem.timegrid,
        problem.cost, problem.x0,
    )
    rng = np.random.default_rng(3)
    u = ControlPath(0.3 * rng.standard_normal((tg.N + 1,) + g.shape))
    traj = integrate(p, g, cov, spec, tg, x0, u, 0)
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    grad = gradient(p, g, spec, tg, cost, u, adj)
    h = 1e-5
    for k in range(3):
        d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
        d = (1.0 / u_norm(g, tg, d)) * d
        plus, _ = psi_estimate(problem, u + h * d)
        minus, _ = psi_estimate(problem, u - h * d)
        fd = (plus - minus) / (2 * h)
        ip = u_inner(g, tg, grad, d)
        assert abs(fd - ip) <= 1e-8 * max(1.0, abs(ip))


def test_gradient_rejects_mismatched_paths():
    problem = _setup()
    g, p, spec, tg, cost = (
        problem.grid, problem.params, problem.spec, problem.timegrid, problem.cost
    )
    traj = integrate(p, g, problem.cov, spec, tg, problem.x0, ControlPath.zero(tg, g), 0)
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    bad = ControlPath(np.zeros((tg.N + 2,) + g.shape))
    with pytest.raises(ContractViolation):
        gradient(p, g, spec, tg, cost, bad, adj)


def test_optimize_converges_and_certificate_small():
    rep = optimize(_setup(N=100, T=0.2), tol=1e-7, max_iters=30)
    assert rep.converged
    assert rep.certificate_residual <= 1e-6
    psi = rep.psi_history
    assert all(b <= a + 1e-12 for a, b in zip(psi, psi[1:]))


def test_optimize_improves_on_zero_control():
    problem = _setup(N=100, T=0.2)
    g, tg = problem.grid, problem.timegrid
    base, _ = psi_estimate(problem, ControlPath.zero(tg, g))
    rep = optimize(problem, tol=1e-7, max_iters=30)
    assert rep.psi_final < base
    assert u_norm(g, tg, rep.u_star) > 0


def test_optimize_respects_iteration_cap():
    rep = optimize(_setup(N=20), tol=1e-16, max_iters=3)
    assert not rep.converged
    assert len(rep.iterations) == 3


def test_optimize_warm_start_converges_immediately():
    problem = _setup(N=50)
    first = optimize(problem, tol=1e-8, max_iters=30)
    second = optimize(problem, tol=1e-6, max_iters=5, u0=first.u_star)
    assert second.converged
    assert len(second.iterations) <= 2


def test_optimize_stochastic_smoke():
    problem = _noisy(_setup(n=8, N=20), 20)
    rep = optimize(problem, tol=1e-4, max_iters=10)
    assert rep.converged
    assert rep.certificate_residual <= 1e-3
    assert rep.ensemble.v.shape == (problem.timegrid.N + 1, 20) + problem.grid.shape


def test_optimize_theta_toggle_same_fixed_point():
    problem = _setup(N=50)
    with_theta = optimize(problem, tol=1e-9, max_iters=30)
    without = optimize(problem, tol=1e-9, max_iters=30, use_theta=False)
    assert with_theta.converged and without.converged
    gap = u_norm(problem.grid, problem.timegrid, with_theta.u_star - without.u_star)
    assert gap <= 1e-7


@pytest.mark.parametrize(
    "stochastic, tol, max_iters",
    [(False, 1e-7, 30), (True, 1e-4, 10), (False, 1e-16, 2)],
    ids=["deterministic", "stochastic", "iteration-cap"],
)
def test_optimize_integrates_each_control_once(monkeypatch, stochastic, tol, max_iters):
    problem = _noisy(_setup(n=8, N=20), 20) if stochastic else _setup(n=8, N=20)
    integrated = []
    signal_depth = []
    solves_in_signal = []
    real_integrate = control_module.integrate_ensemble
    real_signal = control_module.control_signal
    real_solve = grid_module.helmholtz_solve

    def recording_integrate(params, grid, cov, spec, timegrid, x0, control, *rest):
        integrated.append(control.values.tobytes())
        return real_integrate(params, grid, cov, spec, timegrid, x0, control, *rest)

    def tracking_signal(*args):
        signal_depth.append(1)
        try:
            return real_signal(*args)
        finally:
            signal_depth.pop()

    def counting_solve(*args):
        if signal_depth:
            solves_in_signal.append(1)
        return real_solve(*args)

    monkeypatch.setattr(control_module, "integrate_ensemble", recording_integrate)
    monkeypatch.setattr(control_module, "control_signal", tracking_signal)
    monkeypatch.setattr(forward_module, "helmholtz_solve", counting_solve)
    monkeypatch.setattr(grid_module, "helmholtz_solve", counting_solve)
    rep = optimize(problem, tol=tol, max_iters=max_iters)

    assert len(integrated) >= 2
    assert len(set(integrated)) == len(integrated)
    assert solves_in_signal == []
    if rep.converged:
        assert rep.certificate_residual == rep.iterations[-1]["residual"]
    else:
        # the cap hit right after an accepted step: the certificate needs a
        # fresh adjoint, but the accepted trial's paths are reused
        assert rep.iterations[-1]["accepted"]
        assert 0.0 < rep.certificate_residual < rep.iterations[-1]["residual"]
    assert rep.converged == (max_iters > 2)
