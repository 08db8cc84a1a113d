"""Cost functional, optimality map, and the regularized outer loop.

The optimizer iterates the control-to-adjoint-to-control fixed point
u -> (dh)^{-1}(q(u)) through one array, the plain fixed-point step

    step = (dh)^{-1}(q) - u = q/alpha - u,

where q is the adjoint control signal of u.  The cost's gradient is
-alpha*step, so |step|_U is the optimality residual.  After an accepted
step the loop moves along the type-II Anderson direction of memory one
(Anderson, J. ACM 1965; Walker & Ni, SIAM J. Numer. Anal. 2011),
step - gamma*(du + dF), where du is the step taken and dF the change of
the plain step since; where that direction fails, the plain step is
retried.  A backtracking line search accepts u + tau*direction only if it
decreases the cost by at least sqrt(eps_k) times its length, eps_k
decreasing geometrically, which is the discrete form of the
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
from .errors import BlowUpError, ConfigurationError, ContractViolation, check_integer
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
        if check_integer(self.ensemble, "ensemble size") < 1:
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
    `tol`, an integer `max_iters` >= 1 and a positive finite `eps0`, or a
    `ConfigurationError`."""
    # written so that NaN fails too
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    if check_integer(max_iters, "max_iters") < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
    if not 0 < eps0 < math.inf:
        raise ConfigurationError(f"eps0 must be positive and finite, got {eps0}")


def _anderson_direction(
    grid: Grid, timegrid: TimeGrid, step: ControlPath, last_step: ControlPath, taken: ControlPath
) -> ControlPath | None:
    """The type-II Anderson direction of memory one, step - gamma*(du + dF).

    dF = step - last_step is the change of the plain step since the last
    step taken, du = `taken`, and gamma = <dF, step>_U / <dF, dF>_U.  Both
    are formed in place: dF in `last_step`'s array and the direction in
    `taken`'s, so the pair's two arrays become the one direction.  None,
    the pair spent, where dF is zero or its square is not finite.
    """
    delta = last_step.values
    np.subtract(step.values, delta, out=delta)
    delta_sq = u_inner(grid, timegrid, last_step, last_step)
    if not 0.0 < delta_sq < math.inf:
        return None
    gamma = u_inner(grid, timegrid, last_step, step) / delta_sq
    direction = taken.values
    direction += delta
    direction *= -gamma
    direction += step.values
    return taken


def optimize(
    problem: Problem,
    seed: int = 0,
    tol: float = 1.0e-6,
    max_iters: int = 40,
    eps0: float = 1.0e-3,
    u0: ControlPath | None = None,
) -> OptimizeReport:
    """Regularized fixed-point outer loop; see the module docstring.

    Each iteration reads the plain step q/alpha - u of the current control:
    its norm is the recorded residual and the certificate.  The line search
    moves along the Anderson direction where the previous iteration
    accepted a step, and along the plain step otherwise, or where the
    search along the Anderson direction fails; if that fails too, the
    iteration is not accepted and the next one has no pair.  Each record's
    `direction` names the direction of the step taken: "anderson", or
    "plain" (also where no step is taken).

    Every quantity is deterministic given (seed, problem): candidate
    controls are always evaluated on the same per-path noise, common
    random numbers.  Each path's standard normals are drawn once per run
    (`ensemble_normals`), before the first integration, and every control
    is integrated on them; each (path, step) stream is opened once.  Each
    distinct control is integrated and swept once.  Of an accepted trial's
    ensemble the loop keeps its plain step, its mean sup energy and path 0,
    and drops the rest, the signal included; path 0 is a copy, unless the
    ensemble has one path and path 0 is all of it.  The Anderson pair is
    the last plain step and the step taken from it, trial - u: the
    direction is formed in the pair's arrays, so while a trial integrates
    an iteration holds the normals, u, its plain step, path 0, the
    direction, the trial control and the trial's ensemble.  The report
    carries path 0 of the final control.

    A line-search trial whose state blows up is rejected like one that
    does not decrease the cost, and the step halves; only a blow-up of the
    starting control (`u0`, or zero) raises `BlowUpError`.

    The acceptance test compares costs with a slack of 1e-12*(1 + |psi|),
    so there is a value floor: once a step's gain, about alpha*r^2 at
    residual r, falls below that slack, roundoff decides the test, and the
    residual wanders near r ~ 1e-6*sqrt((1 + |psi|)/alpha) instead of
    falling.  On the travelling front at alpha = 0.1 (a floor of 3.2e-6)
    it wanders between 2.5e-6 and 2.0e-5 from iteration 23 on; at
    alpha = 0.01 runs end 100 iterations at two to five times their floor.
    At a small alpha the floor lies above the default `tol`.

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
    normals = ensemble_normals(problem, seed)

    def evaluate(candidate):
        ens = integrate_ensemble(problem, candidate, seed, normals=normals)
        return psi_from_trajectories(problem, candidate, ens)[0], ens

    def keep(candidate, ens):
        # the plain step, the mean sup energy and path 0 of an accepted
        # ensemble; path 0 is copied unless it is the whole ensemble
        path0 = ens[:, 0]
        if ens.v.shape[1] > 1:
            path0 = StateX(path0.v.copy(), path0.w.copy())
        step = subdiff_inverse(cost, control_signal(problem, ens)) - candidate
        return step, float(np.mean(sup_h_sq(problem, ens))), path0

    def search(direction, eps):
        # the Ekeland line search from u: (tau, trial, its cost, its
        # ensemble) of the first trial accepted, or None
        tau = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = u + tau * direction
            dist = u_norm(grid, timegrid, trial - u)
            try:
                psi_c, trial_ens = evaluate(trial)
            except BlowUpError:
                # a step too long for the explicit cubic: reject it
                psi_c, trial_ens = math.inf, None
            if psi_c + math.sqrt(eps) * dist <= psi_u + 1.0e-12 * (1.0 + abs(psi_u)):
                return tau, trial, psi_c, trial_ens
            del trial_ens
            tau *= 0.5
        return None

    report = OptimizeReport()
    psi_u, ens = evaluate(u)
    step, mean_sup, path0 = keep(u, ens)
    del ens
    pair = None  # (the last plain step, the step taken from it)
    for k in range(max_iters):
        # the residual is the norm of the plain step, not of a step taken:
        # a blocked line search would otherwise masquerade as convergence
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
            "direction": "plain",
        }
        report.iterations.append(record)
        if residual < tol:
            report.converged = True
            break

        # the regularization dies out both on schedule and with the
        # residual, so the penalty can never outweigh the decrease a
        # contraction step actually delivers
        eps = min(eps0 * 0.25**k, (0.1 * residual) ** 2)
        record["eps"] = eps

        direction = found = None
        if pair is not None:
            direction = _anderson_direction(grid, timegrid, step, *pair)
            pair = None
        if direction is not None:
            found = search(direction, eps)
            if found is not None:
                record["direction"] = "anderson"
        if found is None:
            found = search(step, eps)
        if found is None:
            record["accepted"] = False
            continue
        tau, trial, psi_u, trial_ens = found
        del found
        # the step taken goes into the direction's array, if there is one
        taken = direction if direction is not None else ControlPath(np.empty_like(u.values))
        np.subtract(trial.values, u.values, out=taken.values)
        pair = (step, taken)
        del taken
        del direction, step, path0  # not alive while the trial's are taken
        u = trial
        step, mean_sup, path0 = keep(u, trial_ens)
        del trial, trial_ens  # of it only the plain step and path 0 stay
        record.update(psi=psi_u, tau=tau)

    report.certificate_residual = u_norm(grid, timegrid, step)
    report.u_star = u
    report.path0 = path0
    report.psi_final = psi_u
    return report
