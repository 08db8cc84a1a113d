"""Semi-implicit time integration of the controlled state equation.

One step solves

    (I - dt*A) X+ = X + dt*(F(X) + B u) + dW,

i.e. the coupled linear operator is fully implicit (eliminating the
recovery component leaves a single symmetric positive definite Helmholtz
solve for the voltage), while the reaction, the control and the noise
are explicit.  The noise increment dW = (dbeta1, dbeta2) is a `StateX`
pair like the state it is added to.  `implicit_solve_star` is the exact
weighted-inner-product transpose of the same solve.  `step`, its
linearization `tangent_step` and the transposed linearization
`transpose_step` are the one kernel that the forward, variational and
adjoint sweeps all run.

Time-quadrature conventions (fixed here, relied on by the adjoint and
control modules for exact discrete gradients):

* control-space pairings use trapezoid weights over the N+1 time nodes;
* running state costs use left-rectangle weights (dt on nodes 0..N-1),
  which is what makes the terminal adjoint value exactly -Dg0(X(T)).

Step n of the dynamics consumes the control at the left node n; the
value at node N never enters the dynamics.

A path is a `StateX` whose fields carry a leading time axis, shape
(N+1,) + grid.shape: `X[n]` is the state at node n, and the norms reduce a
whole path at once.  An ensemble of M paths is one `StateX` of shape
(N+1, M) + grid.shape: `ens[n]` is every path at node n, as a view, and
`ens[:, p]` is path p, whose noise `noise.sample_path` re-derives from
(seed, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import FhnParams, df_apply, f_apply
from .errors import BlowUpError, ConfigurationError, ContractViolation
from .grid import Field, Grid, StateX, helmholtz_solve, norm_h_sq, norm_v_sq
from .noise import SpectralCovariance, sample_path

BLOWUP_THRESHOLD = 1.0e6

SNAPSHOT_FORMAT = "fhn-snapshot-v2"
CONTROL_FORMAT = "fhn-control-npz-v1"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ConfigurationError(f"need at least one time step, got N={self.N}")
        if self.T <= 0:
            raise ConfigurationError(f"horizon must be positive, got T={self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    def u_weights(self) -> np.ndarray:
        """Trapezoid weights over time nodes (control-space quadrature)."""
        w = np.full(self.N + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def g_weights(self) -> np.ndarray:
        """Left-rectangle weights for the running state cost."""
        w = np.full(self.N + 1, self.dt)
        w[-1] = 0.0
        return w


@dataclass
class ControlPath:
    """Open-loop control: one L2 field per time node."""

    values: np.ndarray  # shape (N+1,) + grid.shape

    @staticmethod
    def zero(timegrid: TimeGrid, grid: Grid) -> "ControlPath":
        return ControlPath(np.zeros((timegrid.N + 1,) + grid.shape))

    def copy(self) -> "ControlPath":
        return ControlPath(self.values.copy())

    def __add__(self, other: "ControlPath") -> "ControlPath":
        return ControlPath(self.values + other.values)

    def __sub__(self, other: "ControlPath") -> "ControlPath":
        return ControlPath(self.values - other.values)

    def __mul__(self, c: float) -> "ControlPath":
        return ControlPath(c * self.values)

    __rmul__ = __mul__


def u_inner(grid: Grid, timegrid: TimeGrid, u: ControlPath, v: ControlPath) -> float:
    """Discrete control-space inner product (trapezoid in time and space)."""
    if u.values.shape != v.values.shape:
        raise ContractViolation("control paths live on different time grids")
    if u.values.shape[0] != timegrid.N + 1:
        raise ContractViolation("control path does not match the time grid")
    spatial = np.tensordot(u.values * v.values, grid.weights(), axes=grid.d)
    return float(np.dot(timegrid.u_weights(), spatial))


def u_norm(grid: Grid, timegrid: TimeGrid, u: ControlPath) -> float:
    return float(np.sqrt(max(u_inner(grid, timegrid, u, u), 0.0)))


@dataclass
class ActuatorSpec:
    """Control-to-state map B u = (mask * u, 0)."""

    mask: Field

    def __post_init__(self):
        if np.any(self.mask < 0) or np.any(self.mask > 1):
            raise ConfigurationError("actuator mask values must lie in [0, 1]")

    @staticmethod
    def identity(grid: Grid) -> "ActuatorSpec":
        return ActuatorSpec(np.ones(grid.shape))


def actuator_apply(spec: ActuatorSpec, grid: Grid, u: Field) -> StateX:
    if u.shape != grid.shape:
        raise ContractViolation(f"control field shape {u.shape} does not match grid")
    return StateX(spec.mask * u, grid.zeros())


def actuator_adjoint(spec: ActuatorSpec, grid: Grid, gamma: float, v: Field) -> Field:
    """B* in the weighted inner product: <B*X, u>_U = <X, Bu>_H.  B acts
    on the voltage only, so B* reads only the voltage part v of X."""
    return gamma * spec.mask * v


def ensemble_size(timegrid: TimeGrid, field_shape: tuple, ens: StateX) -> int:
    """Number of paths M of an ensemble whose fields have shape
    (N+1, M) + field_shape; any other layout, such as a single path
    without its path axis or a slice of nodes, is a contract violation."""
    shape = ens.v.shape
    if len(shape) < 2 or shape[0] != timegrid.N + 1 or shape[1] < 1 or shape[2:] != field_shape:
        raise ContractViolation(
            f"ensemble fields have shape {shape}, expected "
            f"(N+1, M) + {field_shape} with N+1 = {timegrid.N + 1} and M >= 1"
        )
    return shape[1]


@lru_cache(maxsize=None)
def _solve_coeffs(gamma: float, delta: float, dt: float) -> tuple:
    denom = 1.0 + dt * delta
    c = 1.0 + dt * dt * gamma / denom
    return denom, c


def implicit_solve(params: FhnParams, grid: Grid, dt: float, r: StateX) -> StateX:
    """Apply S = (I - dt*A)^(-1): eliminate w, one Helmholtz solve for v."""
    denom, c = _solve_coeffs(params.gamma, params.delta, dt)
    v = helmholtz_solve(grid, c, dt, r.v - dt * r.w / denom)
    w = (r.w + dt * params.gamma * v) / denom
    return StateX(v, w)


def implicit_solve_star(params: FhnParams, grid: Grid, dt: float, r: StateX) -> StateX:
    """Apply S* = (I - dt*A*)^(-1), the H-adjoint of `implicit_solve`."""
    denom, c = _solve_coeffs(params.gamma, params.delta, dt)
    p = helmholtz_solve(grid, c, dt, r.v + dt * r.w / denom)
    q = (r.w - dt * params.gamma * p) / denom
    return StateX(p, q)


def step(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    X: StateX,
    u_t: Field,
    dW: StateX,
    dt: float,
) -> StateX:
    """One semi-implicit update: X+ = S(X + dt*(F(X) + B u) + dW).

    F and B act on the voltage only, so the recovery update skips them.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    rv = X.v + dt * (f_apply(params, grid, X).v + spec.mask * u_t) + dW.v
    rw = X.w + dW.w
    return implicit_solve(params, grid, dt, StateX(rv, rw))


def tangent_step(
    params: FhnParams, grid: Grid, spec: ActuatorSpec, X: StateX, Z: StateX, d_t: Field, dt: float
) -> StateX:
    """Derivative of `step` at the pre-step state X along the state and
    control perturbations Z, d_t: Z+ = S(Z + dt*(DF(X) Z + B d_t))."""
    rv = Z.v + dt * (df_apply(params, grid, X, Z).v + spec.mask * d_t)
    return implicit_solve(params, grid, dt, StateX(rv, Z.w))


def transpose_step(
    params: FhnParams, grid: Grid, X: StateX, y: StateX, source: StateX, dt: float
) -> StateX:
    """Transpose of `tangent_step` in Z once its solve is transposed:
    source + (I + dt*DF(X)*) y for y = S* lam, where DF(X)* = DF(X) acts
    pointwise on the voltage.  Callers apply S* themselves because they
    also need y alone (dt*B* y is the control part of the transpose).
    Leading axes broadcast."""
    rv = source.v + y.v + dt * df_apply(params, grid, X, y).v
    return StateX(rv, source.w + y.w)


def integrate(
    params: FhnParams,
    grid: Grid,
    cov: SpectralCovariance,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    x0: StateX,
    control: ControlPath,
    seed: int,
    path_index: int = 0,
    increments: StateX | None = None,
) -> StateX:
    """Run N steps from x0; the path has (N+1,) + grid.shape fields.

    Deterministic given (seed, path_index): the noise is
    `sample_path(cov, grid, timegrid, seed, path_index)`, unless
    `increments` (a path of (N,) + grid.shape fields) supplies it, as coupled
    refinement studies do with sums of fine-level increments over one
    Brownian path.
    """
    if control.values.shape[0] != timegrid.N + 1:
        raise ContractViolation("control path does not match the time grid")
    if x0.v.shape != grid.shape:
        raise ContractViolation("initial state does not live on the grid")
    N = timegrid.N
    dt = timegrid.dt
    if increments is not None:
        if increments.v.shape != (N,) + grid.shape:
            raise ContractViolation("increment arrays do not match the time grid")
    elif not cov.is_zero():
        increments = sample_path(cov, grid, timegrid, seed, path_index)
    # noise-free steps all add this one zero pair, which turns -0.0 into +0.0
    dW = StateX.zero(grid)
    v = np.empty((N + 1,) + grid.shape)
    w = np.empty((N + 1,) + grid.shape)
    v[0], w[0] = x0.v, x0.w
    X = x0
    for n in range(N):
        if increments is not None:
            dW = increments[n]
        X = step(params, grid, spec, X, control.values[n], dW, dt)
        energy = norm_h_sq(grid, params.gamma, X)
        if not np.isfinite(energy) or energy > BLOWUP_THRESHOLD**2:
            raise BlowUpError(n + 1, float(np.sqrt(max(energy, 0.0))))
        v[n + 1], w[n + 1] = X.v, X.w
    return StateX(v, w)


def integrate_ensemble(
    params: FhnParams,
    grid: Grid,
    cov: SpectralCovariance,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    x0: StateX,
    control: ControlPath,
    seed: int,
    n_paths: int,
) -> StateX:
    """Independent paths under a common control, as one read-only ensemble
    of shape (N+1, M) + grid.shape.  Path p uses stream (seed, p, .) and is
    `integrate(..., seed, p)` bit for bit."""
    if n_paths < 1:
        raise ConfigurationError(f"ensemble size must be >= 1, got {n_paths}")
    shape = (timegrid.N + 1, n_paths) + grid.shape
    ens = StateX(np.empty(shape), np.empty(shape))
    for p in range(n_paths):
        path = integrate(params, grid, cov, spec, timegrid, x0, control, seed, p)
        ens.v[:, p], ens.w[:, p] = path.v, path.w
    # the cost, the backward sweep, energy_report and the optimizer's
    # report all share these arrays
    ens.v.flags.writeable = ens.w.flags.writeable = False
    return ens


def energy_report(grid: Grid, timegrid: TimeGrid, gamma: float, ens: StateX) -> dict:
    """Discrete analogues of the a-priori energy functionals.

    Per path: sup over time nodes of |X|_H^2, and the trapezoid
    time-quadrature of |X|_V^2; plus their ensemble averages.  Paths are
    reduced one at a time, which keeps the temporaries one path large.
    """
    tw = timegrid.u_weights()
    paths = [ens[:, p] for p in range(ensemble_size(timegrid, grid.shape, ens))]
    sup_h = [float(np.max(norm_h_sq(grid, gamma, X))) for X in paths]
    int_v = [float(np.dot(tw, norm_v_sq(grid, gamma, X))) for X in paths]
    return {
        "sup_h_sq": sup_h,
        "int_v_sq": int_v,
        "mean_sup_h_sq": float(np.mean(sup_h)),
        "mean_int_v_sq": float(np.mean(int_v)),
    }


def save_snapshot(path: str, X: StateX, seed: int, path_index: int) -> None:
    """Binary snapshot of one state path, fields (N+1,) + grid.shape, plus
    the (seed, path_index) that re-derives its noise.  Field paths are
    written uncompressed, since doubles barely compress and deflate costs
    ~50x the write; np.load reads either."""
    np.savez(
        path,
        format=SNAPSHOT_FORMAT,
        v=X.v,
        w=X.w,
        path_index=path_index,
        seed=seed,
    )


def save_control(path: str, timegrid: TimeGrid, u: ControlPath) -> None:
    """Binary control path: the time nodes and u on every node."""
    np.savez(path, format=CONTROL_FORMAT, times=timegrid.times(), u=u.values)


def load_snapshot(path: str) -> tuple:
    """Read a snapshot back as (state path, seed, path_index)."""
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != SNAPSHOT_FORMAT:
            raise ConfigurationError(f"unknown snapshot format {fmt!r}")
        return StateX(data["v"], data["w"]), int(data["seed"]), int(data["path_index"])
