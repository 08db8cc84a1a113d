"""A linear-quadratic oracle: in linear mode the reduced cost is an exact
quadratic in u, so its Hessian H comes from gradient differences to
roundoff, H e_j = g(e_j) - g(0), with no second-order sweep.  The dense H
checks the gradient, through the quadratic model, and the optimizer's
answer, against the dense minimizer -H^{-1} g(0).

H does not depend on the noise or on the reference: both only shift the
signal q(0).  So one noise-free H per grid serves the stochastic rows
(sigma1 = 1, sigma2 = 0.5, K = 4 modes, M = 7 paths) and the row with a
reference that moves in time, at d = 1 (n = 8) and d = 2 (n = 5).

The plain map u -> q(u)/alpha carries its error by I - H/alpha, so it
contracts by rho = max|1 - lambda/alpha| over the spectrum of H.  On the
alpha = 0.1 row rho exceeds one: the plain loop cannot converge there, and
the Anderson-accelerated one does.
"""

import dataclasses
import functools

import numpy as np
import pytest

from fhn_control.adjoint import control_signal
from fhn_control.control import optimize, psi_estimate, subdiff_inverse
from fhn_control.forward import ControlPath, integrate_ensemble, u_norm
from fhn_control.grid import StateX, neumann_eigenmode
from fhn_control.noise import SpectralCovariance
from fhn_control.scenario import Scenario

#: Grid points per axis of the d = 1 and d = 2 rows.
NODES = {1: 8, 2: 5}


def _signal(problem, values):
    """q(u) of the control with these raveled values, at seed 0, raveled."""
    u = ControlPath(values.reshape((problem.timegrid.N + 1,) + problem.grid.shape))
    return control_signal(problem, integrate_ensemble(problem, u, 0)).values.ravel()


@functools.lru_cache(maxsize=None)
def _dense(d):
    """The noise-free problem at alpha = 0.3 on the d-dimensional grid, the U
    weights W of its coordinates, and the signal q(0) and the dense signal
    derivative dQ, which no alpha moves: H = alpha*I - dQ."""
    problem = Scenario(
        d=d, n=NODES[d], steps=20, horizon=1.0, linear=True, alpha=0.3, terminal_weight=0.1,
        mask="left_half", x_ref="constant:1.0",
    ).problem
    grid, tg = problem.grid, problem.timegrid
    D = (tg.N + 1) * grid.num_nodes
    q0 = _signal(problem, np.zeros(D))
    dQ = np.empty((D, D))
    for j in range(D):
        e = np.zeros(D)
        e[j] = 1.0
        dQ[:, j] = _signal(problem, e) - q0
    W = np.multiply.outer(tg.u_weights(), grid.weights()).ravel()
    return problem, W, q0, dQ


@pytest.fixture(scope="module")
def lq():
    return _dense(1)


def _with_alpha(problem, alpha):
    return dataclasses.replace(problem, cost=dataclasses.replace(problem.cost, alpha=alpha))


def _noisy(problem):
    return dataclasses.replace(
        problem, cov=SpectralCovariance.power_spectrum(4, 1.0, 0.5), ensemble=7
    )


def _moving_reference(problem):
    # the voltage reference ramps from 1 to 2 along the second eigenmode
    grid, N = problem.grid, problem.timegrid.N
    profile = 1.0 + neumann_eigenmode(grid, 2)

    def x_ref(k):
        return StateX((1.0 + k / N) * profile, grid.zeros())

    return dataclasses.replace(problem, cost=dataclasses.replace(problem.cost, x_ref=x_ref))


VARIANTS = {"noisy": _noisy, "moving_reference": _moving_reference}


def _hessian(dQ, alpha):
    return alpha * np.eye(len(dQ)) - dQ


def _rho(W, H, alpha):
    # H is self-adjoint in the U inner product: W^(1/2) H W^(-1/2) is symmetric
    root = np.sqrt(W)
    sym = root[:, None] * H / root[None, :]
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return float(np.max(np.abs(1.0 - lam / alpha)))


def _u_norm(problem, values):
    shape = (problem.timegrid.N + 1,) + problem.grid.shape
    return u_norm(problem.grid, problem.timegrid, ControlPath(values.reshape(shape)))


def test_hessian_is_self_adjoint_in_the_control_inner_product(lq):
    problem, W, _, dQ = lq
    WH = W[:, None] * _hessian(dQ, problem.cost.alpha)
    assert np.max(np.abs(WH - WH.T)) <= 1e-12 * np.max(np.abs(WH))


def test_hessian_is_self_adjoint_in_2d():
    problem, W, _, dQ = _dense(2)
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


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("d", [1, 2])
def test_hessian_does_not_depend_on_the_noise_or_the_reference(d, variant):
    # H v = q(v) - q(0) is the noise-free, constant-reference problem's at
    # each direction v; the difference cancels, so its roundoff is relative
    # to the signals, not to H v, which is about 1/50 of them
    base, _, q0, dQ = _dense(d)
    problem = VARIANTS[variant](base)
    q0_variant = _signal(problem, np.zeros(len(dQ)))
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(len(dQ))
        q_v = _signal(problem, v)
        defect = (q_v - q0_variant) - (_signal(base, v) - q0)
        assert np.max(np.abs(defect)) <= 1e-12 * np.max(np.abs(q_v))


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


@pytest.mark.parametrize("d, variant", [(1, "noisy"), (2, "noisy"), (1, "moving_reference")])
def test_optimize_finds_the_minimizer_with_the_noise_free_hessian(d, variant):
    # rho = 0.412 at d = 1; the minimizer solves H u = q(0) of the variant
    base, _, _, dQ = _dense(d)
    problem = VARIANTS[variant](base)
    u_dense = np.linalg.solve(_hessian(dQ, problem.cost.alpha), _signal(problem, np.zeros(len(dQ))))
    report = optimize(problem, seed=0, tol=1e-10, max_iters=200)
    assert report.converged
    assert _u_norm(problem, report.u_star.values.ravel() - u_dense) <= 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_the_noise_shifts_the_minimizer_by_one_solve(d):
    # u*_M - u*_det = H^{-1}(q_M(0) - q_det(0)): the noise-free minimizer,
    # shifted so, is stationary for the stochastic problem; its gradient
    # alpha*u - q_M(u) is roundoff beside the noise's pull at u*_det
    base, _, q_det, dQ = _dense(d)
    problem, alpha = _noisy(base), base.cost.alpha
    H = _hessian(dQ, alpha)
    q_noisy = _signal(problem, np.zeros(len(dQ)))
    u = np.linalg.solve(H, q_det) + np.linalg.solve(H, q_noisy - q_det)
    gradient = alpha * u - _signal(problem, u)
    assert _u_norm(problem, gradient) <= 1e-11 * _u_norm(problem, q_noisy - q_det)


@pytest.mark.parametrize("alpha", [0.3, 0.1])
def test_plain_map_residuals_decay_by_rho(lq, alpha):
    # undamped iterates u <- u + step, step = q(u)/alpha - u, from zero: the
    # residual ratio settles on rho from about the fifth iterate, below one
    # at alpha = 0.3 and above it at alpha = 0.1
    base, W, _, dQ = lq
    problem = _with_alpha(base, alpha)
    grid, tg = problem.grid, problem.timegrid
    u, res = ControlPath.zero(tg, grid), []
    for _ in range(12):
        ens = integrate_ensemble(problem, u, 0)
        step = subdiff_inverse(problem.cost, control_signal(problem, ens)) - u
        res.append(u_norm(grid, tg, step))
        u = u + step
    rho = _rho(W, _hessian(dQ, alpha), alpha)
    late = [b / a for a, b in zip(res[4:], res[5:])]
    assert late == pytest.approx([rho] * len(late), abs=1e-3)
