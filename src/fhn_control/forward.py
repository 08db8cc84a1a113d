"""Semi-implicit time integration of the controlled state equation.

One step solves

    (I - dt*A) X+ = X + dt*(F(X) + B u) + dW,

i.e. the coupled linear operator is fully implicit (eliminating the
recovery component leaves a single symmetric positive definite Helmholtz
solve for the voltage), while the reaction, the control and the noise
are explicit.  F, DF and B act on the voltage only: `dynamics.f_apply`,
`dynamics.df_apply` and `actuator_apply` return voltage fields.  The noise
increment dW = (dbeta1, dbeta2) is a `StateX` pair like the state it is
added to.  `implicit_solve_star` is the exact weighted-inner-product
transpose of the same solve.  `step`, its linearization `tangent_step` and
the transposed linearization `transpose_step` are the one kernel that the
forward, variational and adjoint sweeps all run, built from the operators
the invariant checks test.

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
`ens[:, p]` is path p.  `integrate` is the one time loop: it steps the
noise increments it is handed, one path or a path axis, and column p of a
batch is its one-path run, bit for bit.  `integrate_ensemble` is the one
integrator of a problem's paths, in one loop for every block size: path
p's standard normals, drawn from (seed, p) or held, are synthesized
straight into nodes 1..N of its column, and a contiguous block of paths,
all of them by default, steps in one `integrate` call; a one-path block
steps its column without the path axis.  The cost, the sweeps and the
optimizer take the whole ensemble; `simulate` takes one-path blocks and
reduces each as it arrives, so it holds one path besides path 0 whatever M
is.  The optimizer draws the normals once with `ensemble_normals` and hands
them to every call.  `noise.sample_path`, one path's increments in arrays
of their own, is the tests' reference and, after the same `check_seed`,
the fine-level draw of `harness.self_convergence_rate`.

The blow-up guard reads the paths once their time loop is over, not after
every step, one path at a time: it names the first node in time past
`BLOWUP_THRESHOLD` and the lowest path there, so on one path a
`BlowUpError` reports the step and norm a per-step check would.
"""

from __future__ import annotations

import operator
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import FhnParams, df_apply, f_apply
from .errors import BLOWUP_THRESHOLD, BlowUpError, ConfigurationError, ContractViolation
from .grid import Field, Grid, StateX, helmholtz_solve, norm_h_sq, norm_v_sq
from .noise import path_normals, synthesize

if TYPE_CHECKING:
    from .control import Problem

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
        if not 0 < self.T < np.inf:  # written so that NaN fails too
            raise ConfigurationError(f"horizon must be positive and finite, got T={self.T}")

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


def check_control_path(grid: Grid, timegrid: TimeGrid, values: np.ndarray, what: str) -> None:
    """A control or direction path has one grid field per time node."""
    expected = (timegrid.N + 1,) + grid.shape
    if values.shape != expected:
        raise ContractViolation(f"{what} has shape {values.shape}, expected {expected}")


def u_inner(grid: Grid, timegrid: TimeGrid, u: ControlPath, v: ControlPath) -> float:
    """Discrete control-space inner product (trapezoid in time and space)."""
    check_control_path(grid, timegrid, u.values, "control path")
    check_control_path(grid, timegrid, v.values, "control path")
    spatial = np.tensordot(u.values * v.values, grid.weights(), axes=grid.d)
    return float(np.dot(timegrid.u_weights(), spatial))


def u_norm(grid: Grid, timegrid: TimeGrid, u: ControlPath) -> float:
    return float(np.sqrt(max(u_inner(grid, timegrid, u, u), 0.0)))


@dataclass
class ActuatorSpec:
    """Control-to-state map B u = (mask * u, 0)."""

    mask: Field

    def __post_init__(self):
        # written so that a NaN entry fails too
        if not np.all((self.mask >= 0) & (self.mask <= 1)):
            raise ConfigurationError("actuator mask values must lie in [0, 1]")

    @staticmethod
    def identity(grid: Grid) -> "ActuatorSpec":
        return ActuatorSpec(np.ones(grid.shape))


def actuator_apply(spec: ActuatorSpec, u: Field) -> Field:
    """Voltage part of B u = (mask * u, 0); leading axes of u broadcast."""
    return spec.mask * u


def actuator_adjoint(spec: ActuatorSpec, gamma: float, v: Field) -> Field:
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
    rv = X.v + dt * (f_apply(params, grid, X.v) + actuator_apply(spec, u_t)) + dW.v
    rw = X.w + dW.w
    return implicit_solve(params, grid, dt, StateX(rv, rw))


def tangent_step(
    params: FhnParams, grid: Grid, spec: ActuatorSpec, X: StateX, Z: StateX, d_t: Field, dt: float
) -> StateX:
    """Derivative of `step` at the pre-step state X along the state and
    control perturbations Z, d_t: Z+ = S(Z + dt*(DF(X) Z + B d_t))."""
    rv = Z.v + dt * (df_apply(params, grid, X.v, Z.v) + actuator_apply(spec, d_t))
    return implicit_solve(params, grid, dt, StateX(rv, Z.w))


def transpose_step(
    params: FhnParams, grid: Grid, X: StateX, y: StateX, source: StateX, dt: float
) -> StateX:
    """Transpose of `tangent_step` in Z once its solve is transposed:
    source + (I + dt*DF(X)*) y for y = S* lam, where DF(X)* = DF(X) acts
    pointwise on the voltage.  Callers apply S* themselves because they
    also need y alone (dt*B* y is the control part of the transpose).
    Leading axes broadcast."""
    rv = source.v + y.v + dt * df_apply(params, grid, X.v, y.v)
    return StateX(rv, source.w + y.w)


def integrate(
    params: FhnParams,
    grid: Grid,
    spec: ActuatorSpec,
    timegrid: TimeGrid,
    x0: StateX,
    control: ControlPath,
    increments: StateX | None,
    path_index: int = 0,
    out: StateX | None = None,
) -> StateX:
    """Run N steps from the grid state x0 on the noise increments it is
    handed: one path, (N,) + grid.shape fields such as a `noise.sample_path`
    draw, or a path axis, (N, M) + grid.shape, such as an ensemble's draws
    or the aggregated fine-level increments of a coupled refinement study;
    None runs one noise-free path.  The result has (N+1,) + grid.shape or
    (N+1, M) + grid.shape fields, and column p of a batch is its one-path
    run, bit for bit.

    Given `out`, fields of the result's shape, the states are written into
    it and the result is `out` itself.  The increments may then be
    `out[1:]`: step n reads its increment at node n+1 before it writes the
    state there.  Any other overlap of the two is not allowed.

    The blow-up guard runs once, after the time loop, over nodes 1..N one
    path at a time, so its temporaries are one path large.  A
    `BlowUpError` names the first node in time whose energy exceeds
    BLOWUP_THRESHOLD**2 or is not finite, and the lowest path failing
    there (`path_index` plus its column); on one path, the step and norm a
    check after every step would report.  The loop runs with overflow and
    invalid-value warnings off; an overflow fails the finiteness check of
    `helmholtz_solve` and ends the loop, and as a finite state crosses the
    threshold before it can overflow, the guard reads the first failure
    among the nodes stepped so far.  If none fails (a non-finite input),
    that `FloatingPointError` is raised."""
    check_control_path(grid, timegrid, control.values, "control path")
    if x0.v.shape != grid.shape:
        raise ContractViolation("initial state does not live on the grid")
    N = timegrid.N
    dt = timegrid.dt
    paths = () if increments is None else increments.v.shape[1 : -grid.d][:1]  # () or (M,)
    if increments is not None and increments.v.shape != (N,) + paths + grid.shape:
        raise ContractViolation("increment arrays do not match the time grid")
    shape = (N + 1,) + paths + grid.shape
    if out is None:
        out = StateX(np.empty(shape), np.empty(shape))
    elif out.v.shape != shape:
        raise ContractViolation(f"output arrays have shape {out.v.shape}, expected {shape}")
    # noise-free steps all add this one zero pair, which turns -0.0 into +0.0;
    # it is 0-d and broadcasts, so it holds no field through the loop
    dW = StateX(np.zeros(()), np.zeros(()))
    v, w = out.v, out.w
    v[0], w[0] = x0.v, x0.w
    X = x0
    stepped, overflow = N, None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            if increments is not None:
                dW = increments[n]
            try:
                X = step(params, grid, spec, X, control.values[n], dW, dt)
            except FloatingPointError as exc:
                stepped, overflow = n, exc
                break
            v[n + 1], w[n + 1] = X.v, X.w
        # energies node by node, path by path; one path has a unit path axis
        V, W = (v, w) if paths else (v[:, None], w[:, None])
        energy = np.empty((stepped, V.shape[1]))
        for p in range(V.shape[1]):
            node_paths = StateX(V[1 : stepped + 1, p], W[1 : stepped + 1, p])
            energy[:, p] = norm_h_sq(grid, params.gamma, node_paths)
    failed = np.flatnonzero(~(energy <= BLOWUP_THRESHOLD**2))
    if failed.size:
        node, col = divmod(int(failed[0]), energy.shape[1])
        raise BlowUpError(node + 1, float(np.sqrt(max(energy[node, col], 0.0))), path_index + col)
    if overflow is not None:
        raise overflow
    return out


def check_seed(seed) -> int:
    """A run's noise is drawn from (seed, path): the seed as an int, and a
    `ConfigurationError` for a non-integer or negative seed, whether or not
    a run draws any noise."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return seed


def _path_range(problem: Problem, paths: range | None) -> range:
    """`paths`, a nonempty range of step 1 inside range(n_paths), or all of
    them when None; anything else is a `ContractViolation`."""
    n_paths = problem.n_paths
    paths = range(n_paths) if paths is None else paths
    ok = isinstance(paths, range) and paths.step == 1 and 0 <= paths.start < paths.stop <= n_paths
    if not ok:
        raise ContractViolation(
            f"paths must be a nonempty range of step 1 inside range({n_paths}), got {paths!r}"
        )
    return paths


def ensemble_normals(problem: Problem, seed: int, paths: range | None = None) -> np.ndarray | None:
    """The standard normals of paths `paths` (as in `integrate_ensemble`):
    one read-only (len(paths), N, 2, K) array whose row j is
    `noise.path_normals` of path paths[j], drawn one path at a time, or
    None when the noise is off.  Handed to `integrate_ensemble`, they
    integrate the paths without opening a stream.  The seed is checked
    first (a `ConfigurationError`)."""
    check_seed(seed)
    paths = _path_range(problem, paths)
    cov, timegrid = problem.cov, problem.timegrid
    if cov.is_zero():
        return None
    normals = np.empty((len(paths), timegrid.N, 2, cov.K))
    for j, p in enumerate(paths):
        normals[j] = path_normals(cov, timegrid, seed, p)
    normals.flags.writeable = False
    return normals


def integrate_ensemble(
    problem: Problem,
    control: ControlPath,
    seed: int,
    paths: range | None = None,
    normals: np.ndarray | None = None,
) -> StateX:
    """Paths `paths` of the problem, a nonempty range of step 1 inside
    range(n_paths) and all of them by default, under a common control: one
    read-only ensemble of shape (N+1, len(paths)) + grid.shape, stepped in
    one `integrate` call.  Column j is path paths[j] bit for bit, whatever
    the block, and a `BlowUpError` names it as path paths[j].

    Path p steps the synthesis of its `path_normals(cov, timegrid, seed,
    p)`, `sample_path` of (seed, p) bit for bit, or none when the noise is
    off.  Given `normals`, the block's `ensemble_normals`, path paths[j]
    steps the synthesis of row j instead, and no stream is opened.  Every
    block size runs one loop: each path's increments are synthesized into
    nodes 1..N of its column, and `integrate` writes each state over the
    increment it has just used; a one-path block steps its column without
    the path axis.

    The seed (a `ConfigurationError`), the control's shape, `paths` and the
    shape of `normals` (a `ContractViolation`) are checked before any draw."""
    check_seed(seed)
    grid, timegrid, cov = problem.grid, problem.timegrid, problem.cov
    check_control_path(grid, timegrid, control.values, "control path")
    paths = _path_range(problem, paths)
    noisy = not cov.is_zero()
    if normals is not None:
        expected = (len(paths), timegrid.N, 2, cov.K)
        if not noisy or normals.shape != expected:
            raise ContractViolation(
                f"normals have shape {normals.shape}, expected {expected} with the noise on"
            )

    shape = (timegrid.N + 1, len(paths)) + grid.shape
    # the ensemble is allocated after the first draw, and each draw dropped
    # once synthesized: allocated first, a 50-path simulate (n = 64, N = 500)
    # read 18,000 minor page faults, and keeping each draw 12,100, not 11,300
    ens = None if noisy else StateX(np.empty(shape), np.empty(shape))
    for j in range(len(paths) if noisy else 0):
        xi = path_normals(cov, timegrid, seed, paths[j]) if normals is None else normals[j]
        if ens is None:
            ens = StateX(np.empty(shape), np.empty(shape))
        synthesize(cov, grid, timegrid.dt, xi, ens[1:, j])
        del xi
    out = ens[:, 0] if len(paths) == 1 else ens
    run = problem.params, grid, problem.spec, timegrid, problem.x0, control
    integrate(*run, out[1:] if noisy else None, paths.start, out=out)
    # the cost, the backward sweep, energy_report and the optimizer's
    # report all share these arrays, and views of read-only arrays are
    # read-only too
    ens.v.flags.writeable = ens.w.flags.writeable = False
    return ens


def sup_h_sq(problem: Problem, ens: StateX) -> list:
    """Per path of an ensemble of `problem`, the sup over time nodes of
    |X|_H^2 under the problem's gamma, reduced one path at a time."""
    grid, gamma = problem.grid, problem.params.gamma
    M = ensemble_size(problem.timegrid, grid.shape, ens)
    return [float(np.max(norm_h_sq(grid, gamma, ens[:, p]))) for p in range(M)]


def energy_report(problem: Problem, ens: StateX) -> dict:
    """Discrete analogues of the a-priori energy functionals of an
    ensemble of `problem`, under its grid, time grid and gamma.

    Per path: sup over time nodes of |X|_H^2 (`sup_h_sq`), and the
    trapezoid time-quadrature of |X|_V^2; plus their ensemble averages.
    Paths are reduced one at a time, which keeps the temporaries one path
    large.
    """
    grid, gamma = problem.grid, problem.params.gamma
    tw = problem.timegrid.u_weights()
    sup_h = sup_h_sq(problem, ens)
    int_v = [float(np.dot(tw, norm_v_sq(grid, gamma, ens[:, p]))) for p in range(len(sup_h))]
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


@contextmanager
def open_npz(path: str, what: str):
    """An .npz archive, open for reading.  A missing or unreadable file, one
    that is not an .npz archive, or a member that cannot be read is a
    `ConfigurationError` naming `what` and the path."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigurationError(f"{what}: {path} is not an .npz archive")
        with data:
            yield data
    except ConfigurationError:  # a ValueError, already naming the file
        raise
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{what}: cannot read {path}: {exc}") from None


def load_snapshot(path: str) -> tuple:
    """Read a snapshot back as (state path, seed, path_index); a file that
    is not an .npz archive, or one without one of the snapshot's arrays, is
    a `ConfigurationError`."""
    with open_npz(path, "snapshot") as data:

        def read(name: str) -> np.ndarray:
            if name not in data.files:
                raise ConfigurationError(f"{path} is not a snapshot: it has no {name!r} array")
            return data[name]

        fmt = str(read("format"))
        if fmt != SNAPSHOT_FORMAT:
            raise ConfigurationError(f"unknown snapshot format {fmt!r}")
        return StateX(read("v"), read("w")), int(read("seed")), int(read("path_index"))
