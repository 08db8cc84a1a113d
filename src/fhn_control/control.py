"""Cost functional, optimality map, and the regularized outer loop.

The optimizer iterates the control-to-adjoint-to-control fixed point
u -> (dh)^{-1}(q(u)) through one array, the fixed-point step

    step = (dh)^{-1}(q) - u = q/alpha - u,

where q is the adjoint control signal of u.  The cost's gradient is
-alpha*step, so |step|_U is the optimality residual.  The step is
perturbed to (dh)^{-1}(q + sqrt(eps_k)*theta_k) - u, where theta_k is the
normalized previous update (norm at most one) and eps_k decreases
geometrically, unless that perturbation points uphill.  A backtracking
line search accepts u + tau*step only if it decreases the cost by at
least sqrt(eps_k) times its length, which is the discrete form of the
variational-principle condition the convergence argument rests on.  The
loop terminates on the fixed-point residual; hitting the iteration cap
yields a non-converged report, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import control_signal
from .dynamics import FhnParams, i_ion_prime
from .errors import BlowUpError, ConfigurationError, ContractViolation
from .forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    check_control_path,
    ensemble_normals,
    ensemble_size,
    integrate_ensemble,
    sup_h_sq,
    u_inner,
    u_norm,
)
from .grid import Grid, StateX, norm_h_sq, norm_l2_sq
from .noise import SpectralCovariance

#: Line-search halvings before a trial step is rejected.
MAX_BACKTRACKS = 25


@dataclass
class CostSpec:
    """Quadratic tracking cost triple.

    g(X)  = (c_g/2) |X - x_ref|_H^2     (running tracker)
    g0(X) = (c0/2)  |X - x_T|_H^2       (terminal tracker)
    h(u)  = (alpha/2) |u|_U^2           (control cost)

    `x_ref` may be a constant state or a callable of the time-node index;
    None is the zero state.  g, g0 and h act on the trailing grid axes and
    broadcast leading ones (ensemble paths, time nodes): one value per
    field.  A zero weight takes the same formulas, so its values and
    gradients are zeros.  The cost holds no grid and no gamma: the values
    take both from the `Problem` that holds the cost, so they are the grid
    and the gamma the dynamics and the sweeps use.
    """

    alpha: float
    c_g: float = 1.0
    c0: float = 0.0
    x_ref: object = None  # StateX, callable n -> StateX, or None (zero)
    x_T: StateX | None = None

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.alpha < np.inf:
            raise ConfigurationError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0 <= self.c0 < np.inf and 0 <= self.c_g < np.inf):
            raise ConfigurationError("cost weights must be nonnegative and finite")

    def _from_ref(self, X: StateX, n: int) -> StateX:
        # X - 0 is X bit for bit, signed zeros included
        ref = self.x_ref(n) if callable(self.x_ref) else self.x_ref
        return X if ref is None else X - ref

    def _from_target(self, X: StateX) -> StateX:
        return X if self.x_T is None else X - self.x_T

    def g(self, grid: Grid, gamma: float, X: StateX, n: int) -> float:
        return 0.5 * self.c_g * norm_h_sq(grid, gamma, self._from_ref(X, n))

    def dg(self, X: StateX, n: int) -> StateX:
        return self.c_g * self._from_ref(X, n)

    def g0(self, grid: Grid, gamma: float, X: StateX) -> float:
        return 0.5 * self.c0 * norm_h_sq(grid, gamma, self._from_target(X))

    def dg0(self, X: StateX) -> StateX:
        return self.c0 * self._from_target(X)

    def h(self, grid: Grid, u):
        return 0.5 * self.alpha * norm_l2_sq(grid, u)


@dataclass(frozen=True, eq=False)
class Problem:
    """One optimal control problem: dynamics on a grid, noise covariances,
    actuator, time grid, tracking cost, initial state and ensemble size.

    However it is built (in code, from a scenario, or by `dataclasses.replace`
    in a study), construction checks that every field lives on the grid and
    is finite (a callable reference at each node 0..N-1 the cost reads), the
    truncation of any noise is exact on it and the explicit cubic is stable
    at x0, then freezes the mask, x0 and the constant references it shares."""

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
        grid, cost = self.grid, self.cost
        self.params.forcing(grid)  # raises for a forcing field off the grid
        # a field off the grid would broadcast silently; a callable reference
        # is checked at the nodes the cost and the sweeps read, 0..N-1
        states = [("initial state", self.x0), ("x_ref", cost.x_ref), ("x_T", cost.x_T)]
        shared = states = [(name, x) for name, x in states if isinstance(x, StateX)]
        if callable(cost.x_ref):
            states = shared + [(f"x_ref at node {n}", cost.x_ref(n)) for n in range(self.timegrid.N)]
        for name, x in states:
            if not isinstance(x, StateX):
                raise ContractViolation(f"{name} is a {type(x).__name__}, not a StateX")
        for name, arr in [("actuator mask", self.spec.mask)] + [(name, x.v) for name, x in states]:
            if np.shape(arr) != grid.shape:
                raise ContractViolation(f"{name} has shape {np.shape(arr)}, grid is {grid.shape}")
        for name, x in states:
            if not (np.all(np.isfinite(x.v)) and np.all(np.isfinite(x.w))):
                raise ConfigurationError(f"{name} holds non-finite values")
        # a noise-free run draws no modes, so its truncation is not checked
        top = grid.exact_truncation
        if not self.cov.is_zero() and self.cov.K > top:
            raise ConfigurationError(f"modes={self.cov.K} above the grid's exact truncation {top}")
        # the cubic is stepped explicitly: where dt*I_ion'(v) >= 2 (never in
        # linear mode) the step amplifies the voltage, and the run blows up
        dt = self.timegrid.dt
        growth = dt * float(np.max(i_ion_prime(self.params, self.x0.v)))
        if growth >= 2.0:
            raise ConfigurationError(
                f"step size dt={dt:g} is unstable at the initial voltage: "
                f"dt*max I_ion'(v0) = {growth:.4g} >= 2; take more time steps"
            )
        self.spec.mask.flags.writeable = False
        for _, x in shared:
            x.v.flags.writeable = x.w.flags.writeable = False

    @property
    def n_paths(self) -> int:
        """Paths a run integrates: the ensemble, or one when the noise is off."""
        return 1 if self.cov.is_zero() else self.ensemble


def subdiff_inverse(cost: CostSpec, q: ControlPath) -> ControlPath:
    """Inverse subdifferential of the control cost h = (alpha/2)|u|^2,
    applied nodewise: q / alpha."""
    return ControlPath(q.values / cost.alpha)


def contraction_margin(cost: CostSpec, T: float) -> float:
    """Uniqueness margin L*T + Lip(Dg0) of the paper's contraction
    argument: L = 1/alpha is the Lipschitz constant of the inverse
    subdifferential and Lip(Dg0) = c0.  A number, not a verdict: whether
    the iteration contracts is measured by `harness.margin_sweep`."""
    return (1.0 / cost.alpha) * T + cost.c0


def psi_estimate(problem: Problem, u: ControlPath, seed: int = 0) -> tuple:
    """Monte Carlo estimate of the cost functional; returns (value, stderr).

    Noise-free runs use a single path and report zero standard error.
    Path streams depend only on (seed, path, step), so repeated calls
    with different candidate controls reuse common random numbers.
    """
    return psi_from_trajectories(problem, u, integrate_ensemble(problem, u, seed))


def psi_from_trajectories(problem: Problem, u: ControlPath, ens: StateX) -> tuple:
    """Cost of u averaged over its already integrated ensemble, fields
    (N+1, M) + grid.shape; (value, stderr).  The cost's values read the
    problem's grid and gamma.  Each node's cost is taken over all paths at
    once; the sums over nodes stay sequential, so each path's cost equals
    its per-path sum bit for bit."""
    grid, gamma, timegrid, cost = problem.grid, problem.params.gamma, problem.timegrid, problem.cost
    check_control_path(grid, timegrid, u.values, "control path")
    n_paths = ensemble_size(timegrid, grid.shape, ens)
    gw = timegrid.g_weights()
    control_cost = float(sum(timegrid.u_weights() * cost.h(grid, u.values)))
    state_cost = cost.g0(grid, gamma, ens[timegrid.N]) + sum(
        gw[n] * cost.g(grid, gamma, ens[n], n) for n in range(timegrid.N)
    )
    per_path = state_cost + np.full(n_paths, control_cost)
    value = float(np.mean(per_path))
    stderr = 0.0 if n_paths == 1 else float(np.std(per_path, ddof=1) / math.sqrt(n_paths))
    return value, stderr


def gradient(cost: CostSpec, u: ControlPath, q: ControlPath) -> ControlPath:
    """Exact control-space gradient of the discrete cost: alpha*u - q.

    `q` is `control_signal` of the ensemble of u: the control signal of
    the ensemble-mean adjoint path along its trajectories.  A signal on a
    different time grid or grid is a contract violation.
    """
    if u.values.shape != q.values.shape:
        raise ContractViolation(f"control shape {u.values.shape} != signal shape {q.values.shape}")
    return ControlPath(cost.alpha * u.values - q.values)


@dataclass
class OptimizeReport:
    """Iterate history and final certificate of the outer loop."""

    iterations: list = field(default_factory=list)
    u_star: ControlPath | None = None
    path0: StateX | None = None  # path 0 of u_star's ensemble, (N+1,) + grid.shape
    certificate_residual: float = float("nan")
    converged: bool = False
    psi_final: float = float("nan")

    @property
    def psi_history(self) -> list:
        return [it["psi"] for it in self.iterations if it["accepted"]]

    @property
    def residual_history(self) -> list:
        return [it["residual"] for it in self.iterations if it["accepted"]]


def check_run_settings(tol: float, max_iters: int, eps0: float) -> None:
    """`optimize`'s settings, from a scenario or a call: a positive finite
    `tol`, `max_iters` >= 1 and a positive finite `eps0`, or a `ConfigurationError`."""
    # written so that NaN fails too
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    if not max_iters >= 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
    if not 0 < eps0 < math.inf:
        raise ConfigurationError(f"eps0 must be positive and finite, got {eps0}")


def optimize(
    problem: Problem,
    seed: int = 0,
    tol: float = 1.0e-6,
    max_iters: int = 40,
    eps0: float = 1.0e-3,
    u0: ControlPath | None = None,
) -> OptimizeReport:
    """Regularized fixed-point outer loop; see the module docstring.

    Each iteration forms one control path, the step q/alpha - u: its norm
    is the recorded residual, the descent test pairs it with the perturbed
    step, and the line search moves along whichever of the two it keeps.

    Every quantity is deterministic given (seed, problem): candidate
    controls are always evaluated on the same per-path noise, common
    random numbers.  Each path's standard normals are drawn once per run
    (`ensemble_normals`), before the first integration, and every control
    is integrated on them; each (path, step) stream is opened once.  Each
    distinct control is integrated and swept once.  Of an accepted trial's
    ensemble the loop keeps its signal, its mean sup energy and path 0, and
    drops the rest; path 0 is a copy, unless the ensemble has one path and
    path 0 is all of it.  theta, the normalized step taken, shapes the next
    direction and is dropped once it is chosen, as is a refused perturbed
    step; after a failed search, or a step too short to move u in floating
    point, there is none and the next direction is unperturbed.  So while
    a trial integrates, an iteration holds the normals, u, its signal q,
    path 0, the direction, the trial control and the trial's ensemble.
    The report carries path 0 of the final control.

    A line-search trial whose state blows up is rejected like one that
    does not decrease the cost, and the step halves; only a blow-up of the
    starting control (`u0`, or zero) raises `BlowUpError`.

    The acceptance test compares costs with a slack of 1e-12*(1 + |psi|),
    so there is a value floor: a step whose gain, about alpha*r^2 at
    residual r, falls below that slack cannot be told from roundoff, and
    the residual may stall or cycle near r ~ 1e-6*sqrt((1 + |psi|)/alpha).
    At a small alpha that floor lies above the default `tol`.

    Settings are checked before any draw or integration: the run settings
    (`check_run_settings`), a finite `u0` and the seed, or a
    `ConfigurationError`, and a `u0` off the time grid or the grid, a
    `ContractViolation`.
    """
    check_run_settings(tol, max_iters, eps0)
    grid, timegrid, cost = problem.grid, problem.timegrid, problem.cost
    if u0 is not None:
        check_control_path(grid, timegrid, u0.values, "u0")
        if not np.all(np.isfinite(u0.values)):
            raise ConfigurationError("u0 holds non-finite values")
    u = u0.copy() if u0 is not None else ControlPath.zero(timegrid, grid)
    theta = None
    normals = ensemble_normals(problem, seed)

    def evaluate(candidate):
        ens = integrate_ensemble(problem, candidate, seed, normals=normals)
        return psi_from_trajectories(problem, candidate, ens)[0], ens

    def keep(ens):
        # the signal, the mean sup energy and path 0 of an accepted
        # ensemble; path 0 is copied unless it is the whole ensemble
        path0 = ens[:, 0]
        if ens.v.shape[1] > 1:
            path0 = StateX(path0.v.copy(), path0.w.copy())
        return control_signal(problem, ens), float(np.mean(sup_h_sq(problem, ens))), path0

    report = OptimizeReport()
    psi_u, ens = evaluate(u)
    q, mean_sup, path0 = keep(ens)
    del ens
    for k in range(max_iters):
        # the residual is the norm of the full fixed-point step, not of a
        # step taken: a blocked line search would otherwise masquerade as
        # convergence
        step = subdiff_inverse(cost, q) - u
        residual = u_norm(grid, timegrid, step)
        # one record per iteration, read off what was kept of the current
        # paths; a step taken below fills in its outcome
        record = {
            "iter": k,
            "psi": psi_u,
            "residual": residual,
            "eps": 0.0,
            "accepted": True,
            "tau": 0.0,
            "mean_sup_h_sq": mean_sup,
        }
        report.iterations.append(record)
        if residual < tol:
            report.converged = True
            break

        # the regularization dies out both on schedule and with the
        # residual, so the penalty can never outweigh the decrease a
        # contraction step actually delivers
        eps = min(eps0 * 0.25**k, (0.1 * residual) ** 2)

        if theta is not None and eps > 0:
            perturbed = subdiff_inverse(
                cost, ControlPath(q.values + math.sqrt(eps) * theta.values)
            ) - u
            # the perturbed step is the direction, unless the perturbation
            # has overtaken the step and points uphill
            if u_inner(grid, timegrid, step, perturbed) >= 0.0:
                step = perturbed
            del perturbed
        # theta has shaped the direction; the step taken forms the next one
        theta = None

        tau = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = u + tau * step
            dist = u_norm(grid, timegrid, trial - u)
            try:
                psi_c, trial_ens = evaluate(trial)
            except BlowUpError:
                # a step too long for the explicit cubic: reject it
                psi_c, trial_ens = math.inf, None
            if psi_c + math.sqrt(eps) * dist <= psi_u + 1.0e-12 * (1.0 + abs(psi_u)):
                if dist > 0:
                    theta = ControlPath((tau * step).values / dist)
                u, psi_u = trial, psi_c
                del q, path0  # not alive while the trial's are taken
                q, mean_sup, path0 = keep(trial_ens)
                del trial_ens  # of it only the signal and path 0 stay
                record.update(psi=psi_u, eps=eps, tau=tau)
                break
            del trial_ens
            tau *= 0.5
        else:
            record.update(eps=eps, accepted=False)

    report.certificate_residual = u_norm(grid, timegrid, subdiff_inverse(cost, q) - u)
    report.u_star = u
    report.path0 = path0
    report.psi_final = psi_u
    return report
