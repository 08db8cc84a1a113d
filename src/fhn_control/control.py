"""Cost functional, optimality map, and the regularized outer loop.

The optimizer iterates the control-to-adjoint-to-control fixed point

    u  ->  (dh)^{-1}( q(u) + sqrt(eps_k) * theta_k ),

where q is the adjoint control signal, theta_k is the normalized
previous update direction (norm at most one), and eps_k decreases
geometrically.  A backtracking line search accepts a step only if it
decreases the cost by at least sqrt(eps_k) times the step length, which
is the discrete form of the variational-principle condition the
convergence argument rests on.  The loop terminates on the fixed-point
residual; hitting the iteration cap yields a non-converged report, not
an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import control_signal, solve_adjoint_regression
from .dynamics import FhnParams
from .errors import ConfigurationError, ContractViolation
from .forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    energy_report,
    ensemble_size,
    integrate_ensemble,
    u_inner,
    u_norm,
)
from .grid import Grid, StateX, norm_h_sq, norm_l2_sq
from .noise import SpectralCovariance

#: Empirical uniqueness-margin threshold: on the calibration sweep
#: (alpha = 2, c0 = 0.1, T in {0.25, 0.5, 1, 2, 4}) geometric residual
#: decay survives well past margin 1; the sweep is reported by the
#: convergence-study command, and this value is a diagnostic, not a proof.
DEFAULT_MARGIN_THRESHOLD = 1.0

#: Line-search halvings before a trial step is rejected.
MAX_BACKTRACKS = 25


@dataclass
class CostSpec:
    """Quadratic tracking cost triple.

    g(X)  = (c_g/2) |X - x_ref|_H^2     (running tracker)
    g0(X) = (c0/2)  |X - x_T|_H^2       (terminal tracker)
    h(u)  = (alpha/2) |u|_U^2           (control cost)

    `x_ref` may be a constant state or a callable of the time-node index.
    g, g0 and h act on the trailing grid axes and broadcast leading ones
    (ensemble paths, time nodes): one value per field.
    Anything exposing the same g/dg/g0/dg0/h/subdiff_inverse surface
    (with Lipschitz gradients and a coercive convex control cost) can be
    used in its place by the solvers.
    """

    grid: Grid
    gamma: float
    alpha: float
    c_g: float = 1.0
    c0: float = 0.0
    x_ref: object = None  # StateX, callable n -> StateX, or None (zero)
    x_T: StateX | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.c0 < 0 or self.c_g < 0:
            raise ConfigurationError("cost weights must be nonnegative")

    def _ref(self, n: int) -> StateX:
        if self.x_ref is None:
            return StateX.zero(self.grid)
        if callable(self.x_ref):
            return self.x_ref(n)
        return self.x_ref

    def _target(self) -> StateX:
        return self.x_T if self.x_T is not None else StateX.zero(self.grid)

    def g(self, X: StateX, n: int) -> float:
        if self.c_g == 0.0:
            return 0.0
        return 0.5 * self.c_g * norm_h_sq(self.grid, self.gamma, X - self._ref(n))

    def dg(self, X: StateX, n: int) -> StateX:
        if self.c_g == 0.0:
            return StateX(np.zeros_like(X.v), np.zeros_like(X.w))
        return self.c_g * (X - self._ref(n))

    def g0(self, X: StateX) -> float:
        if self.c0 == 0.0:
            return 0.0
        return 0.5 * self.c0 * norm_h_sq(self.grid, self.gamma, X - self._target())

    def dg0(self, X: StateX) -> StateX:
        if self.c0 == 0.0:
            return StateX(np.zeros_like(X.v), np.zeros_like(X.w))
        return self.c0 * (X - self._target())

    def h(self, u):
        return 0.5 * self.alpha * norm_l2_sq(self.grid, u)

    def subdiff_inverse_field(self, q):
        return q / self.alpha

    @property
    def lip_dg0(self) -> float:
        return self.c0

    @property
    def inverse_subdiff_lipschitz(self) -> float:
        return 1.0 / self.alpha


@dataclass(frozen=True, eq=False)
class Problem:
    """One optimal control problem: dynamics on a grid, noise covariances,
    actuator, time grid, tracking cost, initial state and ensemble size."""

    params: FhnParams
    grid: Grid
    cov: SpectralCovariance
    spec: ActuatorSpec
    timegrid: TimeGrid
    cost: CostSpec
    x0: StateX
    ensemble: int = 1

    def __post_init__(self):
        if self.ensemble < 1:
            raise ConfigurationError(f"ensemble size must be >= 1, got {self.ensemble}")

    @property
    def n_paths(self) -> int:
        """Paths a run integrates: the ensemble, or one when the noise is off."""
        return 1 if self.cov.is_zero() else self.ensemble

    def paths(self, u: ControlPath, seed: int) -> StateX:
        """The `n_paths` paths under control u, as one read-only ensemble."""
        return integrate_ensemble(
            self.params, self.grid, self.cov, self.spec, self.timegrid, self.x0, u, seed, self.n_paths
        )


def subdiff_inverse(cost: CostSpec, q: ControlPath) -> ControlPath:
    """Inverse subdifferential of the control cost, applied nodewise."""
    return ControlPath(cost.subdiff_inverse_field(q.values))


def contraction_margin(cost: CostSpec, T: float) -> dict:
    """Uniqueness margin L*T + Lip(Dg0) against the calibrated
    `DEFAULT_MARGIN_THRESHOLD`."""
    L = cost.inverse_subdiff_lipschitz
    margin = L * T + cost.lip_dg0
    return {
        "L": L,
        "lip_dg0": cost.lip_dg0,
        "margin": margin,
        "threshold": DEFAULT_MARGIN_THRESHOLD,
        "within": margin < DEFAULT_MARGIN_THRESHOLD,
    }


def psi_estimate(problem: Problem, u: ControlPath, seed: int = 0) -> tuple:
    """Monte Carlo estimate of the cost functional; returns (value, stderr).

    Noise-free runs use a single path and report zero standard error.
    Path streams depend only on (seed, path, step), so repeated calls
    with different candidate controls reuse common random numbers.
    """
    return psi_from_trajectories(problem.timegrid, problem.cost, u, problem.paths(u, seed))


def psi_from_trajectories(timegrid: TimeGrid, cost: CostSpec, u: ControlPath, ens: StateX) -> tuple:
    """Cost of u averaged over its already integrated ensemble, fields
    (N+1, M) + grid.shape; (value, stderr).  Each node's cost is taken over
    all paths at once; the sums over nodes stay sequential, so each path's
    cost equals its per-path sum bit for bit."""
    # the state lives on the grid the control does
    n_paths = ensemble_size(timegrid, u.values.shape[1:], ens)
    gw = timegrid.g_weights()
    control_cost = float(sum(timegrid.u_weights() * cost.h(u.values)))
    state_cost = cost.g0(ens[timegrid.N])
    if cost.c_g != 0.0:
        state_cost = state_cost + sum(gw[n] * cost.g(ens[n], n) for n in range(timegrid.N))
    per_path = state_cost + np.full(n_paths, control_cost)
    value = float(np.mean(per_path))
    stderr = 0.0 if n_paths == 1 else float(np.std(per_path, ddof=1) / math.sqrt(n_paths))
    return value, stderr


def gradient(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    cost: CostSpec,
    u: ControlPath,
    adj,
) -> ControlPath:
    """Exact control-space gradient of the discrete cost: alpha*u - q(p).

    `adj` is the (ensemble-averaged) adjoint path computed along the
    trajectories of u; mixing adjoints from a different control or time
    grid is a contract violation.
    """
    if u.values.shape[0] != timegrid.N + 1:
        raise ContractViolation("control path does not match the time grid")
    if adj.p_v.shape[0] != timegrid.N + 1:
        raise ContractViolation("adjoint path does not match the time grid")
    q = control_signal(params, grid, spec, timegrid, adj)
    return ControlPath(cost.alpha * u.values - q.values)


@dataclass
class OptimizeReport:
    """Iterate history and final certificate of the outer loop."""

    iterations: list = field(default_factory=list)
    u_star: ControlPath | None = None
    ensemble: StateX | None = None
    certificate_residual: float = float("nan")
    converged: bool = False
    margin: dict = field(default_factory=dict)
    psi_final: float = float("nan")

    @property
    def psi_history(self) -> list:
        return [it["psi"] for it in self.iterations if it["accepted"]]

    @property
    def residual_history(self) -> list:
        return [it["residual"] for it in self.iterations if it["accepted"]]


def optimize(
    problem: Problem,
    seed: int = 0,
    tol: float = 1.0e-6,
    max_iters: int = 40,
    eps0: float = 1.0e-3,
    use_theta: bool = True,
    u0: ControlPath | None = None,
) -> OptimizeReport:
    """Regularized fixed-point outer loop; see the module docstring.

    Every quantity is deterministic given (seed, problem): candidate
    controls are always evaluated on the same per-path noise streams.
    Each distinct control is integrated once: the accepted trial's paths
    serve the next adjoint solve and the final certificate.
    """
    params, grid, timegrid, cost = problem.params, problem.grid, problem.timegrid, problem.cost
    u = u0.copy() if u0 is not None else ControlPath.zero(timegrid, grid)
    theta = None

    def evaluate(candidate):
        ens = problem.paths(candidate, seed)
        return psi_from_trajectories(timegrid, cost, candidate, ens)[0], ens

    def signal(ens):
        adj = solve_adjoint_regression(params, grid, timegrid, ens, cost)
        return control_signal(params, grid, problem.spec, timegrid, adj)

    report = OptimizeReport(margin=contraction_margin(cost, timegrid.T))
    psi_u, ens = evaluate(u)
    # fixed-point residual of the current u; None once u has moved past it
    certificate = None
    for k in range(max_iters):
        q = signal(ens)
        grad = ControlPath(cost.alpha * u.values - q.values)
        fixed_point = subdiff_inverse(cost, q)
        # the optimality residual is the gap to the plain fixed-point map;
        # step sizes are not a convergence measure (a blocked line search
        # would otherwise masquerade as convergence)
        residual = u_norm(grid, timegrid, fixed_point - u)
        certificate = residual
        # one record per iteration, read off the current paths; a step
        # taken below fills in its outcome
        record = {
            "iter": k,
            "psi": psi_u,
            "residual": residual,
            "eps": 0.0,
            "accepted": True,
            "tau": 0.0,
            "mean_sup_h_sq": energy_report(grid, timegrid, params.gamma, ens)["mean_sup_h_sq"],
        }
        report.iterations.append(record)
        if residual < tol:
            report.converged = True
            break

        # the regularization dies out both on schedule and with the
        # residual, so the penalty can never outweigh the decrease a
        # contraction step actually delivers
        eps = min(eps0 * 0.25**k, (0.1 * residual) ** 2)

        candidate = fixed_point
        if use_theta and theta is not None and eps > 0:
            candidate = subdiff_inverse(
                cost, ControlPath(q.values + math.sqrt(eps) * theta.values)
            )
        direction = candidate - u
        if u_inner(grid, timegrid, grad, direction) > 0.0:
            # the perturbation has overtaken the descent direction; fall
            # back to the plain fixed-point candidate
            candidate = fixed_point
            direction = candidate - u

        accepted = False
        tau = 1.0
        psi_c = psi_u
        dist = 0.0
        for _ in range(MAX_BACKTRACKS):
            trial = u + tau * direction
            dist = u_norm(grid, timegrid, trial - u)
            psi_c, trial_ens = evaluate(trial)
            if psi_c + math.sqrt(eps) * dist <= psi_u + 1.0e-12 * (1.0 + abs(psi_u)):
                accepted = True
                break
            # keep at most two ensembles alive: the current one and a trial
            del trial_ens
            tau *= 0.5

        if accepted:
            step_path = tau * direction
            if dist > 0:
                theta = ControlPath(step_path.values / dist)
            # u + tau*direction is the trial bit for bit, so its paths are u's
            u = u + step_path
            psi_u = psi_c
            ens = trial_ens
            certificate = None
        else:
            theta = None
        record.update(psi=psi_u, eps=eps, accepted=accepted, tau=tau if accepted else 0.0)

    if certificate is None:
        certificate = u_norm(grid, timegrid, subdiff_inverse(cost, signal(ens)) - u)
    report.certificate_residual = certificate
    report.u_star = u
    report.ensemble = ens
    report.psi_final = psi_u
    return report
