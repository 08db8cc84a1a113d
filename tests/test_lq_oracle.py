"""A linear-quadratic oracle: in linear mode the reduced cost is an exact
quadratic in u, so its Hessian H comes from gradient differences to
roundoff, H e_j = g(e_j) - g(0), with no second-order sweep.  The dense H
checks the gradient, through the quadratic model, and the optimizer's
answer, against the dense minimizer -H^{-1} g(0).

The plain map u -> q(u)/alpha carries its error by I - H/alpha, so it
contracts by rho = max|1 - lambda/alpha| over the spectrum of H.  On the
alpha = 0.1 row rho exceeds one: the plain loop cannot converge there, and
the Anderson-accelerated one does.
"""

import dataclasses

import numpy as np
import pytest

from fhn_control.adjoint import control_signal
from fhn_control.control import optimize, psi_estimate
from fhn_control.forward import ControlPath, integrate_ensemble, u_norm
from fhn_control.scenario import Scenario


@pytest.fixture(scope="module")
def lq():
    """The problem at alpha = 0.3, the U weights W of its coordinates, and
    the signal q(0) and the dense signal derivative dQ, which no alpha moves:
    H = alpha*I - dQ."""
    problem = Scenario(
        n=8, steps=20, horizon=1.0, linear=True, alpha=0.3, terminal_weight=0.1,
        mask="left_half", x_ref="constant:1.0",
    ).problem
    grid, tg = problem.grid, problem.timegrid
    shape = (tg.N + 1,) + grid.shape
    D = int(np.prod(shape))

    def signal(values):
        u = ControlPath(values.reshape(shape))
        return control_signal(problem, integrate_ensemble(problem, u, 0)).values.ravel()

    q0 = signal(np.zeros(D))
    dQ = np.empty((D, D))
    for j in range(D):
        e = np.zeros(D)
        e[j] = 1.0
        dQ[:, j] = signal(e) - q0
    W = np.multiply.outer(tg.u_weights(), grid.weights()).ravel()
    return problem, W, q0, dQ


def _with_alpha(problem, alpha):
    return dataclasses.replace(problem, cost=dataclasses.replace(problem.cost, alpha=alpha))


def _hessian(dQ, alpha):
    return alpha * np.eye(len(dQ)) - dQ


def _rho(W, H, alpha):
    # H is self-adjoint in the U inner product: W^(1/2) H W^(-1/2) is symmetric
    root = np.sqrt(W)
    sym = root[:, None] * H / root[None, :]
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return float(np.max(np.abs(1.0 - lam / alpha)))


def test_hessian_is_self_adjoint_in_the_control_inner_product(lq):
    problem, W, _, dQ = lq
    WH = W[:, None] * _hessian(dQ, problem.cost.alpha)
    assert np.max(np.abs(WH - WH.T)) <= 1e-12 * np.max(np.abs(WH))


def test_quadratic_model_is_exact(lq):
    # Psi(u) = Psi(0) + <g(0), u>_U + (1/2)<H u, u>_U at random u ties the
    # adjoint's gradient to forward-only cost values
    problem, W, q0, dQ = lq
    alpha, shape = problem.cost.alpha, (problem.timegrid.N + 1,) + problem.grid.shape
    g0 = -q0  # alpha*0 - q(0)
    H = _hessian(dQ, alpha)
    psi0 = psi_estimate(problem, ControlPath(np.zeros(shape)))[0]
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal(len(W))
        psi = psi_estimate(problem, ControlPath(u.reshape(shape)))[0]
        model = psi0 + np.dot(W, g0 * u) + 0.5 * np.dot(W, (H @ u) * u)
        assert abs(psi - model) <= 1e-12 * abs(psi)


@pytest.mark.parametrize("alpha, rho", [(0.3, 0.412), (0.1, 1.235)])
def test_optimize_finds_the_dense_minimizer(lq, alpha, rho):
    base, W, q0, dQ = lq
    problem = _with_alpha(base, alpha)
    H = _hessian(dQ, alpha)
    assert _rho(W, H, alpha) == pytest.approx(rho, abs=1e-3)
    u_dense = np.linalg.solve(H, q0)  # H u = -g(0) = q(0)
    report = optimize(problem, seed=0, tol=1e-10, max_iters=200)
    assert report.converged
    error = ControlPath(report.u_star.values - u_dense.reshape(report.u_star.values.shape))
    assert u_norm(problem.grid, problem.timegrid, error) <= 1e-9

