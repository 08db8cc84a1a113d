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

There is one backward sweep, and it runs every path of an ensemble at
once.  The control is one deterministic open-loop path shared by all
paths, and a run evaluates every candidate control on the same noise
streams (common random numbers).  So the exact gradient of the sampled
cost Psi_M = (1/M) sum_p J(u, omega_p) is the mean of the M pathwise
gradients, each of which is the transpose sweep along its own path.  B*
is linear, so the sweep keeps only the ensemble mean of the dual path:
that is all the control signal reads.  With M = 1 it is the
deterministic sweep.
"""

from __future__ import annotations

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
from .grid import Grid, StateX, inner_h, inner_l2

#: Manifest tag of the backward sweep: the ensemble mean of the exact
#: per-path transpose sweeps.
ADJOINT_SWEEP = "pathwise-mean-v1"


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
    """Backward transpose sweep along one trajectory, fields (N+1,) +
    grid.shape: the one-path case of `solve_adjoint_regression`.

    Along a noisy path it gives the exact gradient of that path's cost.
    """
    return solve_adjoint_regression(params, grid, timegrid, traj[:, None], cost)


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


def solve_adjoint_regression(
    params: FhnParams,
    grid: Grid,
    timegrid: TimeGrid,
    ens: StateX,
    cost,
) -> AdjointPath:
    """The backward sweep: the exact transpose sweep along every path of an
    ensemble, whose fields have shape (N+1, M) + grid.shape, all paths at
    once.  Returns the ensemble-mean AdjointPath, which equals the sum of
    the M one-path sweeps divided by M, bit for bit.

    The benchmark's tracer resolves both sweep names, this one and
    `solve_adjoint_deterministic`, so renaming either changes the
    benchmark too.
    """
    M = ensemble_size(timegrid, grid.shape, ens)
    N, dt = timegrid.N, timegrid.dt
    gw = timegrid.g_weights()

    def store_mean_negated(out, a):
        # paths are summed one after another, as averaging per-path sweeps
        # would; a single path comes back exactly
        np.sum(a, axis=0, out=out)
        out /= -M

    p_v = np.zeros((N + 1,) + grid.shape)
    p_w = np.zeros((N + 1,) + grid.shape)
    sp_v = np.zeros((N,) + grid.shape)

    lam = cost.dg0(ens[N])
    store_mean_negated(p_v[N], lam.v)
    store_mean_negated(p_w[N], lam.w)

    for n in range(N - 1, -1, -1):
        X = ens[n]
        y = implicit_solve_star(params, grid, dt, lam)
        lam = transpose_step(params, grid, X, y, gw[n] * cost.dg(X, n), dt)
        store_mean_negated(sp_v[n], y.v)
        store_mean_negated(p_v[n], lam.v)
        store_mean_negated(p_w[n], lam.w)

    return AdjointPath(p_v, p_w, sp_v)


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
