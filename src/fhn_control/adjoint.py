"""Linearized (variational) and dual backward sweeps, plus the duality gap.

The backward sweep is the exact transpose of the forward semi-implicit
step (discretize-then-optimize); both sweeps here run the step kernel of
the forward module.  With the quadrature conventions of that module, the
multiplier recursion is

    lam_N = Dg0(X_N)
    lam_n = dt*Dg(X_n) + (I + dt*DF*(X_n)) S* lam_{n+1},   n = N-1 .. 0,

and the reported dual path is p_n = -lam_n, so the terminal condition
p(T) = -Dg0(X(T)) holds exactly and the control-space gradient assembled
from this path is the exact gradient of the discrete cost functional.
The sweeps also keep the transported values S* p_{n+1}, from which the
control signal is read off without further solves.

There is one backward sweep.  Over an ensemble of M > 1 paths
adaptedness is restored by least-squares projection: at each backward
step the transported value S* lam_{n+1} is replaced by its regression
onto state features over the ensemble, and the per-path regression
residual serves as the martingale-integrand estimate.  A single path is
fitted exactly, so with M = 1 the sweep is the exact transpose sweep and
does no regression work.  The sweep keeps only the ensemble mean of the
dual path: B* is linear, so that is all the control signal reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import FhnParams
from .errors import ContractViolation
from .forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    actuator_adjoint,
    ensemble_size,
    implicit_solve_star,
    tangent_step,
    transpose_step,
)
from .grid import Grid, StateX, eigenmode_matrix, inner_h, inner_l2, norm_h_sq

#: Regression features: the constant plus the leading (BASIS_SIZE - 1) // 2
#: mode coefficients of each state component.
BASIS_SIZE = 9
#: Tikhonov weight of the fallback fit when the design matrix loses rank.
RIDGE = 1.0e-8


@dataclass
class AdjointPath:
    """Dual state per time node, and the voltage part of its transport
    S* p_{n+1} back over each step (all that B* reads); the mean over the
    ensemble when the sweep ran over several paths."""

    p_v: np.ndarray  # (N+1,) + grid.shape
    p_w: np.ndarray
    sp_v: np.ndarray  # (N,) + grid.shape


def solve_variational(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    traj: StateX,
    direction: ControlPath,
) -> StateX:
    """Forward sweep of the linearization along the frozen trajectory; the
    tangent path has (N+1,) + grid.shape fields and starts from zero.

    This is the exact derivative of the forward step map: the reaction
    Jacobian is evaluated at the pre-step state, matching the explicit
    treatment of the reaction in the forward scheme.
    """
    if direction.values.shape[0] != timegrid.N + 1:
        raise ContractViolation("direction does not match the time grid")
    N, dt = timegrid.N, timegrid.dt
    z = StateX(np.zeros((N + 1,) + grid.shape), np.zeros((N + 1,) + grid.shape))
    Z = StateX.zero(grid)
    for n in range(N):
        Z = tangent_step(params, grid, spec, traj[n], Z, direction.values[n], dt)
        if not np.all(np.isfinite(Z.v)):
            raise FloatingPointError(f"variational sweep blew up at step {n + 1}")
        z.v[n + 1], z.w[n + 1] = Z.v, Z.w
    return z


def solve_adjoint_deterministic(
    params: FhnParams,
    grid: Grid,
    timegrid: TimeGrid,
    traj: StateX,
    cost,
) -> AdjointPath:
    """Backward transpose sweep along one trajectory (kappa = 0).

    Meant for noise-free runs; applying it to a single noisy path is an
    anticipating approximation and is the caller's responsibility.
    """
    return solve_adjoint_regression(params, grid, timegrid, traj[:, None], cost)[0]


def control_signal(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    adj: AdjointPath,
) -> ControlPath:
    """Adjoint-to-control signal q with exact-gradient weights.

    q_n = (dt / w_n) B* S* p_{n+1} for n < N and q_N = 0, where w_n are
    the control-space trapezoid weights.  The discrete cost gradient is
    alpha*u - q, and the optimality fixed point is u = (dh)^{-1}(q).
    """
    N, dt = timegrid.N, timegrid.dt
    scale = (dt / timegrid.u_weights()[:N]).reshape((N,) + (1,) * grid.d)
    values = np.zeros((N + 1,) + grid.shape)
    values[:N] = scale * actuator_adjoint(spec, grid, params.gamma, adj.sp_v)
    return ControlPath(values)


def _features(grid: Grid, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Regression design matrix: constant plus leading mode coefficients
    of both state components.  v, w have shape (M,) + grid.shape."""
    M = v.shape[0]
    n_modes = (BASIS_SIZE - 1) // 2
    cols = [np.ones(M)]
    if n_modes > 0:
        E = eigenmode_matrix(grid, n_modes)
        wts = grid.weights().ravel()
        cols.append((v.reshape(M, -1) * wts) @ E)
        cols.append((w.reshape(M, -1) * wts) @ E)
    return np.column_stack(cols)


def _regress(phi: np.ndarray, targets: np.ndarray, warn: bool = True) -> np.ndarray:
    """Least-squares fit of targets (M, k) on features (M, F); returns the
    fitted values.  Falls back to ridge on rank deficiency."""
    F = phi.shape[1]
    coef, _, rank, _ = np.linalg.lstsq(phi, targets, rcond=None)
    if rank < F:
        if warn:
            warnings.warn(
                f"regression basis degraded (rank {rank} < {F}); using ridge fallback",
                RuntimeWarning,
            )
        gram = phi.T @ phi + RIDGE * np.eye(F)
        coef = np.linalg.solve(gram, phi.T @ targets)
    return phi @ coef


def solve_adjoint_regression(
    params: FhnParams,
    grid: Grid,
    timegrid: TimeGrid,
    ens: StateX,
    cost,
) -> tuple:
    """Regression Monte Carlo backward sweep over an ensemble, whose fields
    have shape (N+1, M) + grid.shape.

    Returns (mean AdjointPath, kappa energy per step), where the kappa
    energy is the ensemble mean of |residual|_H^2 and the residual is the
    gap between the transported dual value and its conditional-expectation
    fit.  One path is its own conditional expectation: the sweep is then
    the exact transpose sweep and the kappa energy is zero.
    """
    M = ensemble_size(timegrid, grid.shape, ens)
    if 1 < M < 10 * BASIS_SIZE:
        warnings.warn(
            f"ensemble of {M} paths is small for {BASIS_SIZE} features; "
            "conditional expectations may be noisy",
            RuntimeWarning,
        )
    N, dt = timegrid.N, timegrid.dt
    gw = timegrid.g_weights()
    shape = (M,) + grid.shape

    def store_mean_negated(out, a):
        # paths are summed one after another, as averaging per-path sweeps
        # would; a single path comes back exactly
        np.sum(a, axis=0, out=out)
        out /= -M

    p_v = np.zeros((N + 1,) + grid.shape)
    p_w = np.zeros((N + 1,) + grid.shape)
    sp_v = np.zeros((N,) + grid.shape)
    kappa_energy = np.zeros(N)

    lam = cost.dg0(ens[N])
    store_mean_negated(p_v[N], lam.v)
    store_mean_negated(p_w[N], lam.w)

    half = grid.num_nodes
    for n in range(N - 1, -1, -1):
        X = ens[n]
        y = implicit_solve_star(params, grid, dt, lam)
        fit = y
        if M > 1:
            phi = _features(grid, X.v, X.w)
            targets = np.concatenate(
                [y.v.reshape(M, -1), y.w.reshape(M, -1)], axis=1
            )
            # at n = 0 every path shares the initial state, so the design
            # matrix is rank one by construction and the ridge fit is just
            # the mean
            fitted = _regress(phi, targets, warn=(n > 0))
            fit = StateX(fitted[:, :half].reshape(shape), fitted[:, half:].reshape(shape))
            kappa_energy[n] = np.mean(norm_h_sq(grid, params.gamma, y - fit))
        lam = transpose_step(params, grid, X, fit, gw[n] * cost.dg(X, n), dt)
        store_mean_negated(sp_v[n], y.v)
        store_mean_negated(p_v[n], lam.v)
        store_mean_negated(p_w[n], lam.w)

    return AdjointPath(p_v, p_w, sp_v), kappa_energy


def duality_gap(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    traj: StateX,
    adj: AdjointPath,
    direction: ControlPath,
    cost,
) -> float:
    """Normalized defect of the variational/dual pairing identity.

    LHS pairs the cost linearization with the variational solution; RHS
    pairs the control direction with the nodal dual path.  Both sides use
    the left-rectangle time quadrature of the running cost, so the defect
    measures only the node-versus-transport sampling mismatch: it is
    first order in dt and vanishes (to roundoff) when the running cost is
    off and the reaction is linear.
    """
    var = solve_variational(params, grid, spec, timegrid, traj, direction)
    N, dt, gamma = timegrid.N, timegrid.dt, params.gamma
    lhs = inner_h(grid, gamma, cost.dg0(traj[N]), var[N])
    # the cost gradient is evaluated node by node (the reference may depend
    # on n); each side's pairings over all nodes are one batched quadrature
    dg = [cost.dg(traj[n], n) for n in range(N)]
    dg_path = StateX(np.stack([d.v for d in dg]), np.stack([d.w for d in dg]))
    running = inner_h(grid, gamma, dg_path, var[:N])
    lhs += float(np.dot(timegrid.g_weights()[:N], running))
    # B d_n = (mask * d_n, 0) pairs with the voltage part of p_n only
    bd_p = gamma * inner_l2(grid, spec.mask * direction.values[:N], adj.p_v[:N])
    rhs = -dt * float(np.sum(bd_p))
    return (lhs - rhs) / max(1.0, abs(rhs))
