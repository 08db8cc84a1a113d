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
Both backward sweeps run one loop: `solve_adjoint_regression` stores
the dual path, and `control_signal` stores only the signal, read off the
transported values S* p_{n+1} as the loop passes them, without further
solves.

Every sweep reads the ensemble that `integrate_ensemble` returns, fields
(N+1, M) + grid.shape checked by `ensemble_size`, all paths at once.  The
control is one deterministic open-loop path shared by all paths, and a
run evaluates every candidate control on the same noise streams (common
random numbers).  So the exact gradient of the sampled cost
Psi_M = (1/M) sum_p J(u, omega_p) is the mean of the M pathwise
gradients, each of which is the transpose sweep along its own path.  B*
is linear, so the backward sweeps keep only ensemble means: the mean dual
path, or the signal of the mean transport.  With M = 1 it is the
deterministic sweep.

Every sweep reads one `control.Problem` for the dynamics, the grid, the
actuator, the time grid and the cost, so the state, the dual path and the
control gradient pair in one weighted inner product: the same gamma and
the same quadrature the forward step and the cost use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .forward import (
    ControlPath,
    actuator_adjoint,
    actuator_apply,
    check_control_path,
    ensemble_size,
    implicit_solve_star,
    tangent_step,
    transpose_step,
)
from .grid import StateX, inner_h, inner_l2

if TYPE_CHECKING:
    from .control import Problem

#: Manifest tag of the backward sweep: the ensemble mean of the exact
#: per-path transpose sweeps.
ADJOINT_SWEEP = "pathwise-mean-v1"


def solve_variational(problem: Problem, ens: StateX, direction: ControlPath) -> StateX:
    """Forward sweep of the linearization along every path of a frozen
    ensemble at once; the tangent ensemble has its layout and starts at 0.

    This is the exact derivative of the forward step map: the reaction
    Jacobian is evaluated at the pre-step state, matching the explicit
    treatment of the reaction in the forward scheme.  A non-finite tangent
    fails the next step's Helmholtz solve with a `FloatingPointError`.
    """
    params, grid, timegrid = problem.params, problem.grid, problem.timegrid
    M = ensemble_size(timegrid, grid.shape, ens)
    check_control_path(grid, timegrid, direction.values, "direction")
    N, dt = timegrid.N, timegrid.dt
    z = StateX(*np.zeros((2, N + 1, M) + grid.shape))
    Z = z[0]
    for n in range(N):
        Z = tangent_step(params, grid, problem.spec, ens[n], Z, direction.values[n], dt)
        z.v[n + 1], z.w[n + 1] = Z.v, Z.w
    return z


def _backward(problem: Problem, ens: StateX):
    """The transpose sweep along every path of an ensemble at once: yields
    (N, None, lam_N), then (n, y, lam_n) for n = N-1 .. 0, where
    y = S* lam_{n+1}.  The arrays yielded are the sweep's own, (M,) +
    grid.shape fields; a caller keeps what it reads of them."""
    params, grid, timegrid, cost = problem.params, problem.grid, problem.timegrid, problem.cost
    N, dt = timegrid.N, timegrid.dt
    gw = timegrid.g_weights()
    lam = cost.dg0(ens[N])
    yield N, None, lam
    for n in range(N - 1, -1, -1):
        X = ens[n]
        y = implicit_solve_star(params, grid, dt, lam)
        lam = transpose_step(params, grid, X, y, gw[n] * cost.dg(X, n), dt)
        yield n, y, lam


def _store_mean_negated(out: np.ndarray, a: np.ndarray, M: int) -> None:
    # paths are summed one after another, as averaging per-path sweeps
    # would; a single path comes back exactly
    np.sum(a, axis=0, out=out)
    out /= -M


def solve_adjoint_deterministic(problem: Problem, traj: StateX) -> StateX:
    """The one-path case of `solve_adjoint_regression`, fields (N+1,) +
    grid.shape; no package function calls it, but the benchmark traces it."""
    return solve_adjoint_regression(problem, traj[:, None])


def control_signal(problem: Problem, ens: StateX) -> ControlPath:
    """Adjoint-to-control signal q of the backward sweep along an ensemble,
    fields (N+1, M) + grid.shape, with exact-gradient weights.

    q_n = (dt / w_n) B* S* p_{n+1} for n < N and q_N = 0, where p is the
    ensemble-mean dual path and w_n are the control-space trapezoid
    weights.  The discrete cost gradient is alpha*u - q, and the
    optimality fixed point is u = (dh)^{-1}(q).  Each node of q is written
    into the signal's own array as the sweep passes it, so the dual path is
    never stored; the bits are those of `solve_adjoint_regression`'s sweep.
    """
    grid, timegrid = problem.grid, problem.timegrid
    M = ensemble_size(timegrid, grid.shape, ens)
    N, dt = timegrid.N, timegrid.dt
    scale = dt / timegrid.u_weights()[:N]
    values = np.zeros((N + 1,) + grid.shape)
    for n, y, _ in _backward(problem, ens):
        if y is not None:
            q = values[n]
            _store_mean_negated(q, y.v, M)
            # IEEE products commute, so the bits are those of scale * B* S* p
            np.multiply(actuator_adjoint(problem.spec, problem.params.gamma, q), scale[n], out=q)
    return ControlPath(values)


def solve_adjoint_regression(problem: Problem, ens: StateX) -> StateX:
    """The dual path of the backward sweep: the exact transpose sweep along
    every path of an ensemble, whose fields have shape (N+1, M) +
    grid.shape, all paths at once.  Returns the ensemble-mean dual path,
    which equals the sum of the M one-path sweeps divided by M, bit for bit.

    The duality gap and the invariant battery read the dual path here; the
    optimizer's sweep is `control_signal`, which runs the same loop and
    stores only the signal.  The benchmark's tracer resolves this function
    and `solve_adjoint_deterministic`, so renaming either changes the
    benchmark too.
    """
    grid, timegrid = problem.grid, problem.timegrid
    M = ensemble_size(timegrid, grid.shape, ens)
    p = StateX(*np.zeros((2, timegrid.N + 1) + grid.shape))
    for n, _, lam in _backward(problem, ens):
        _store_mean_negated(p.v[n], lam.v, M)
        _store_mean_negated(p.w[n], lam.w, M)
    return p


def duality_gap(problem: Problem, ens: StateX, direction: ControlPath) -> float:
    """Normalized defect of the variational/dual pairing identity along an
    ensemble; runs the tangent and the backward sweep itself.

    LHS is the ensemble mean of each path's cost linearization paired with
    its tangent; RHS pairs the control direction with the mean dual path.
    Both sides use the left-rectangle time quadrature of the running cost,
    so the defect measures only the node-versus-transport sampling
    mismatch: it is first order in dt and vanishes (to roundoff) when the
    running cost is off and the reaction is linear, on any ensemble.
    """
    var = solve_variational(problem, ens, direction)
    adj = solve_adjoint_regression(problem, ens)
    grid, timegrid, cost = problem.grid, problem.timegrid, problem.cost
    N, dt, gamma = timegrid.N, timegrid.dt, problem.params.gamma
    # the cost gradient is evaluated node by node (the reference may depend
    # on n); each path's pairings over all nodes are one batched quadrature
    dg = [cost.dg(ens[n], n) for n in range(N)]
    dg_path = StateX(np.stack([d.v for d in dg]), np.stack([d.w for d in dg]))
    running = inner_h(grid, gamma, dg_path, var[:N])
    terminal = inner_h(grid, gamma, cost.dg0(ens[N]), var[N])
    lhs = float(np.mean(terminal + np.dot(timegrid.g_weights()[:N], running)))
    # B d_n pairs with the voltage part of p_n only
    bd_p = gamma * inner_l2(grid, actuator_apply(problem.spec, direction.values[:N]), adj.v[:N])
    rhs = -dt * float(np.sum(bd_p))
    return (lhs - rhs) / max(1.0, abs(rhs))
