"""Time grids, control paths, the semi-implicit step, and integration."""

import dataclasses
import zipfile

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import fhn_control.forward as forward_module
import fhn_control.noise as noise_module
from fhn_control.adjoint import duality_gap, solve_adjoint_regression, solve_variational
from fhn_control.control import CostSpec, Problem, psi_from_trajectories
from fhn_control.dynamics import FhnParams, a_apply, df_apply, f_apply, i_ion
from fhn_control.errors import BlowUpError, ConfigurationError, ContractViolation
from fhn_control.forward import (
    BLOWUP_THRESHOLD,
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    actuator_adjoint,
    actuator_apply,
    energy_report,
    ensemble_normals,
    implicit_solve,
    implicit_solve_star,
    integrate,
    integrate_ensemble,
    load_snapshot,
    save_snapshot,
    step,
    tangent_step,
    transpose_step,
    u_inner,
    u_norm,
)
from fhn_control.grid import Grid, StateX, grad_norm_sq, inner_h, norm_h_sq, norm_l2_sq
from fhn_control.noise import SpectralCovariance, sample_path


def test_timegrid_properties():
    tg = TimeGrid(1.0, 4)
    assert tg.dt == pytest.approx(0.25)
    np.testing.assert_allclose(tg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.sum(tg.u_weights()) == pytest.approx(1.0)
    assert np.sum(tg.g_weights()) == pytest.approx(1.0)
    assert tg.g_weights()[-1] == 0.0
    with pytest.raises(ConfigurationError):
        TimeGrid(1.0, 0)
    with pytest.raises(ConfigurationError):
        TimeGrid(-1.0, 10)


def test_timegrid_rejects_a_float_step_count_when_built():
    # it would build and fail at the first weights it sizes
    with pytest.raises(ConfigurationError, match="time steps N must be an integer, got 2.5"):
        TimeGrid(1.0, 2.5)
    assert TimeGrid(1.0, np.int64(4)).u_weights().shape == (5,)


def test_control_inner_product_constant():
    g = Grid(1, 9, 1.0)
    tg = TimeGrid(2.0, 8)
    u = ControlPath(np.ones((9,) + g.shape))
    # |1|^2 over [0, T] x [0, 1] = T
    assert u_inner(g, tg, u, u) == pytest.approx(2.0)
    assert u_norm(g, tg, u) == pytest.approx(np.sqrt(2.0))


def test_control_path_mismatch_raises():
    g = Grid(1, 9)
    tg = TimeGrid(1.0, 8)
    u = ControlPath(np.zeros((9,) + g.shape))
    v = ControlPath(np.zeros((10,) + g.shape))
    with pytest.raises(ContractViolation):
        u_inner(g, tg, u, v)
    with pytest.raises(ContractViolation):
        u_inner(g, TimeGrid(1.0, 10), u, u)


def test_actuator_mask_validation_and_adjoint():
    g = Grid(1, 16)
    for bad in (2.0, np.nan):
        with pytest.raises(ConfigurationError, match="mask"):
            ActuatorSpec(np.full(g.shape, bad))
    spec = ActuatorSpec(np.linspace(0, 1, 16))
    gamma = 0.5
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        u = rng.standard_normal(g.shape)
        lhs = float(np.sum(g.weights() * actuator_adjoint(spec, gamma, X.v) * u))
        rhs = inner_h(g, gamma, X, StateX(actuator_apply(spec, u), g.zeros()))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("g", [Grid(1, 24), Grid(2, 12)], ids=["d1", "d2"])
def test_implicit_solve_inverts_operator(g):
    # (I - dt*A) applied to the solve output must reproduce the input
    rng = np.random.default_rng(1)
    p = FhnParams()
    dt = 1e-2
    r = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    X = implicit_solve(p, g, dt, r)
    back = X - dt * a_apply(p, g, X)
    np.testing.assert_allclose(back.v, r.v, atol=1e-11)
    np.testing.assert_allclose(back.w, r.w, atol=1e-11)


def test_implicit_solve_star_is_weighted_adjoint():
    rng = np.random.default_rng(2)
    g = Grid(1, 20)
    p = FhnParams(gamma=0.7, delta=0.9)
    dt = 5e-3
    for _ in range(10):
        X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        Y = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        lhs = inner_h(g, p.gamma, implicit_solve(p, g, dt, X), Y)
        rhs = inner_h(g, p.gamma, X, implicit_solve_star(p, g, dt, Y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
def test_step_kernels_compose_the_checked_operators(d):
    # the kernels run the very S, F, DF and B that the invariant checks
    # test, bit for bit: a left-half mask, field forcing and noise
    g = Grid(d, 9)
    rng = np.random.default_rng([d, 41])

    def field():
        return rng.standard_normal(g.shape)

    def pair():
        return StateX(field(), field())

    half = (g.axis_coords() < g.ell / 2).astype(float)
    spec = ActuatorSpec(half if d == 1 else np.multiply.outer(half, np.ones(g.n)))
    p = FhnParams(f=0.1 * field())
    dt = 1e-2
    X, dW, Z, y, source = pair(), pair(), pair(), pair(), pair()
    u, d_t = field(), field()

    got = step(p, g, spec, X, u, dW, dt)
    rv = X.v + dt * (f_apply(p, g, X.v) + actuator_apply(spec, u)) + dW.v
    want = implicit_solve(p, g, dt, StateX(rv, X.w + dW.w))
    np.testing.assert_array_equal(got.v, want.v)
    np.testing.assert_array_equal(got.w, want.w)

    got = tangent_step(p, g, spec, X, Z, d_t, dt)
    rv = Z.v + dt * (df_apply(p, g, X.v, Z.v) + actuator_apply(spec, d_t))
    want = implicit_solve(p, g, dt, StateX(rv, Z.w))
    np.testing.assert_array_equal(got.v, want.v)
    np.testing.assert_array_equal(got.w, want.w)

    got = transpose_step(p, g, X, y, source, dt)
    np.testing.assert_array_equal(got.v, source.v + y.v + dt * df_apply(p, g, X.v, y.v))
    np.testing.assert_array_equal(got.w, source.w + y.w)


def test_paths_reject_controls_off_the_grid():
    # a control with one value per node, or one on a coarser grid, would
    # broadcast or fail deep inside a step; the path boundary refuses it
    g = Grid(1, 16)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.zero(1)
    x0 = StateX(g.constant(0.1), g.zeros())
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), x0)
    ens = integrate_ensemble(problem, ControlPath.zero(tg, g), 0)
    for shape in ((tg.N + 1, 1), (tg.N + 1, g.n // 2), (tg.N, g.n), (tg.N + 2, g.n)):
        bad = ControlPath(np.zeros(shape))
        with pytest.raises(ContractViolation, match="control path"):
            integrate(p, g, spec, tg, x0, bad, None)
        with pytest.raises(ContractViolation, match="control path"):
            integrate_ensemble(problem, bad, 0)
        with pytest.raises(ContractViolation, match="control path"):
            psi_from_trajectories(problem, bad, ens)
        with pytest.raises(ContractViolation, match="direction"):
            solve_variational(problem, ens, bad)
        with pytest.raises(ContractViolation, match="direction"):
            duality_gap(problem, ens, bad)


def test_step_preserves_equilibrium():
    g = Grid(1, 16)
    p = FhnParams(f=0.0)
    spec = ActuatorSpec.identity(g)
    X = step(p, g, spec, StateX.zero(g), g.zeros(), StateX.zero(g), 1e-3)
    np.testing.assert_array_equal(X.v, g.zeros())
    np.testing.assert_array_equal(X.w, g.zeros())


def test_integrate_matches_ode_oracle_on_homogeneous_reduction():
    # spatially constant data reduce the dynamics to a 2-variable ODE
    g = Grid(1, 5)
    p = FhnParams(a=0.25, b=1.0, gamma=0.5, delta=0.8)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(1.0, 20000)
    x0 = StateX(g.constant(0.3), g.constant(0.1))
    traj = integrate(p, g, spec, tg, x0, ControlPath.zero(tg, g), None)

    def rhs(_, y):
        v, w = y
        return [-i_ion(p, v) - w, p.gamma * v - p.delta * w]

    sol = solve_ivp(rhs, (0, 1.0), [0.3, 0.1], rtol=1e-11, atol=1e-12)
    v_ref, w_ref = sol.y[0, -1], sol.y[1, -1]
    assert traj.v[-1][0] == pytest.approx(v_ref, rel=2e-4)
    assert traj.w[-1][0] == pytest.approx(w_ref, rel=2e-4)
    # the numerical solution stays spatially constant
    assert np.ptp(traj.v[-1]) == 0.0


def test_integrate_deterministic_replay():
    g = Grid(1, 16)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.1, 50)
    cov = SpectralCovariance.power_spectrum(8)
    x0 = StateX(g.constant(0.3), g.zeros())
    u = ControlPath.zero(tg, g)
    # (seed 7, path 0) re-derives the same noise, and the same noise the same path
    dW1 = sample_path(cov, g, tg, 7, 0)
    dW2 = sample_path(cov, g, tg, 7, 0)
    np.testing.assert_array_equal(dW1.v, dW2.v)
    np.testing.assert_array_equal(dW1.w, dW2.w)
    t1 = integrate(p, g, spec, tg, x0, u, dW1)
    t2 = integrate(p, g, spec, tg, x0, u, dW2)
    np.testing.assert_array_equal(t1.v, t2.v)
    np.testing.assert_array_equal(t1.w, t2.w)
    t3 = integrate(p, g, spec, tg, x0, u, sample_path(cov, g, tg, 8, 0))
    assert not np.array_equal(t1.v, t3.v)


def test_integrate_replays_supplied_increments():
    g = Grid(1, 16)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.1, 50)
    cov = SpectralCovariance.power_spectrum(8)
    x0 = StateX(g.constant(0.3), g.zeros())
    u = ControlPath.zero(tg, g)
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), x0)
    traj = integrate_ensemble(problem, u, 3)[:, 0]
    derived = sample_path(cov, g, tg, seed=3, path=0)
    # path 0 of seed 3 is the path that steps the (seed 3, path 0) increments
    replay = integrate(p, g, spec, tg, x0, u, derived)
    np.testing.assert_array_equal(replay.v, traj.v)
    np.testing.assert_array_equal(replay.w, traj.w)
    short = derived[1:]
    deep = StateX(*np.zeros((2, tg.N, 2, 3) + g.shape))  # two path axes
    off_grid = StateX(*np.zeros((2, tg.N, 2, 9)))  # a path axis of fields off the grid
    for bad in (short, deep, off_grid):
        with pytest.raises(ContractViolation, match="increment"):
            integrate(p, g, spec, tg, x0, u, bad)
    # the states go into arrays of the result's shape, or nowhere
    for bad in (derived, StateX(*np.zeros((2, tg.N + 1, 1) + g.shape))):
        with pytest.raises(ContractViolation, match="output"):
            integrate(p, g, spec, tg, x0, u, derived, out=bad)


def test_integrate_ensemble_paths_differ_and_order_is_stable():
    g = Grid(1, 8)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.power_spectrum(4)
    x0 = StateX.zero(g)
    u = ControlPath.zero(tg, g)
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), x0, ensemble=4)
    ens = integrate_ensemble(problem, u, 0)
    assert ens.v.shape[1] == 4
    assert not np.array_equal(ens.v[:, 0], ens.v[:, 1])
    again = integrate_ensemble(problem, u, 0)
    for path in range(4):
        np.testing.assert_array_equal(ens.v[:, path], again.v[:, path])


def test_integrate_ensemble_is_read_only():
    # the cost, the sweep, energy_report and the optimizer's report share it
    g = Grid(1, 8)
    tg = TimeGrid(0.05, 10)
    problem = Problem(
        FhnParams(), g, SpectralCovariance.power_spectrum(4), ActuatorSpec.identity(g),
        tg, CostSpec(alpha=1.0), StateX.zero(g), ensemble=3,
    )
    ens = integrate_ensemble(problem, ControlPath.zero(tg, g), 0)
    for field in (ens.v, ens.w, ens[5].v, ens[:, 0].w):
        with pytest.raises(ValueError):
            field[0, 0] = 1.0


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-off", "noise-on"])
@pytest.mark.parametrize("grid", [Grid(1, 12), Grid(2, 6)], ids=["d1", "d2"])
def test_one_path_ensemble_is_the_read_only_buffers_integrate_wrote(monkeypatch, grid, noisy):
    # one path is not copied into an ensemble: integrate steps the
    # ensemble's only column, a view of its own (N+1, 1) + grid.shape
    # buffers, without the path axis, on the increments staged in the
    # column's nodes 1..N, or on none when the noise is off; the column is
    # the one-path run bit for bit, and no array under the ensemble can be
    # written.  With the noise off, any ensemble size runs one path
    p = FhnParams()
    tg = TimeGrid(0.04, 20)
    cov = SpectralCovariance.power_spectrum(8, 0.3, 0.3) if noisy else SpectralCovariance.zero(8)
    x0 = StateX(grid.constant(0.3), grid.zeros())
    u = ControlPath(0.1 * np.ones((tg.N + 1,) + grid.shape))
    spec = ActuatorSpec.identity(grid)
    problem = Problem(p, grid, cov, spec, tg, CostSpec(alpha=1.0), x0, ensemble=1 if noisy else 5)
    written = []

    def recording(*args, **kwargs):
        written.append((args[6], kwargs["out"]))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(forward_module, "integrate", recording)
    ens = integrate_ensemble(problem, u, 5)
    [(increments, out)] = written
    assert (increments is None) == (not noisy)
    path = integrate(p, grid, spec, tg, x0, u, sample_path(cov, grid, tg, 5, 0) if noisy else None)
    for name, want in (("v", path.v), ("w", path.w)):
        got, column = getattr(ens, name), getattr(out, name)
        # the column view of the ensemble's own buffer, not a copy
        assert got.base is None and column.base is got
        assert column.shape == (tg.N + 1,) + grid.shape
        assert column.ctypes.data == got.ctypes.data
        if noisy:
            staged, below = getattr(increments, name), column[1:]
            assert staged.base is got
            assert staged.shape == below.shape and staged.strides == below.strides
            assert staged.ctypes.data == below.ctypes.data
        assert got.shape == (tg.N + 1, 1) + grid.shape
        assert got[:, 0].tobytes() == want.tobytes()
        arr = got[:, 0]
        while arr is not None:
            assert not arr.flags.writeable
            arr = arr.base


def _block_problem(d, M, noisy):
    # a half mask, a forcing field, a nonzero control and a random w0
    g = Grid(d, 8)
    rng = np.random.default_rng([d, M, 43])
    p = FhnParams(f=0.1 * rng.standard_normal(g.shape))
    mask = np.zeros(g.shape)
    mask[: g.n // 2] = 1.0
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.power_spectrum(4, 0.5, 0.5) if noisy else SpectralCovariance.zero(4)
    u = ControlPath(0.5 * rng.standard_normal((tg.N + 1,) + g.shape))
    x0 = StateX(g.constant(0.2), 0.1 * rng.standard_normal(g.shape))
    return Problem(p, g, cov, ActuatorSpec(mask), tg, CostSpec(alpha=1.0), x0, ensemble=M), u


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-off", "noise-on"])
@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
@pytest.mark.parametrize("M", [1, 7])
def test_integrate_ensemble_blocks_are_its_columns(d, M, noisy):
    # blocks of paths stepped apart, concatenated on the path axis, are the
    # whole ensemble bit for bit, and a one-path block is the one-path run
    # on its path's draw
    problem, u = _block_problem(d, M, noisy)
    g, tg, cov = problem.grid, problem.timegrid, problem.cov
    ens = integrate_ensemble(problem, u, 3)
    assert problem.n_paths == (M if noisy else 1)
    blocks = [b for b in (range(0, 1), range(1, 4), range(4, 7)) if b.stop <= problem.n_paths]
    parts = [integrate_ensemble(problem, u, 3, b) for b in blocks]
    for field in ("v", "w"):
        whole = getattr(ens, field)
        stacked = np.concatenate([getattr(x, field) for x in parts], axis=1)
        assert stacked.shape == whole.shape
        assert stacked.tobytes() == whole.tobytes()
    for path in range(problem.n_paths):
        block = integrate_ensemble(problem, u, 3, range(path, path + 1))
        dW = sample_path(cov, g, tg, 3, path) if noisy else None
        alone = integrate(problem.params, g, problem.spec, tg, problem.x0, u, dW, path)
        assert block.v.shape == (tg.N + 1, 1) + g.shape
        assert block.v[:, 0].tobytes() == alone.v.tobytes()
        assert block.w[:, 0].tobytes() == alone.w.tobytes()


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
@pytest.mark.parametrize("M", [1, 7])
def test_held_normals_give_the_drawn_ensemble(monkeypatch, d, M):
    # a block integrated on its held normals is the block integrated on its
    # drawn paths, bit for bit, and opens no stream; the normals are read-only
    problem, u = _block_problem(d, M, noisy=True)
    N, K = problem.timegrid.N, problem.cov.K
    blocks = [b for b in (range(0, 1), range(1, 4), range(4, 7)) if b.stop <= M]
    for paths in blocks + [range(M)]:
        drawn = integrate_ensemble(problem, u, 3, paths)
        normals = ensemble_normals(problem, 3, paths)
        assert normals.shape == (len(paths), N, 2, K)
        assert not normals.flags.writeable
        with monkeypatch.context() as m:
            m.setattr(forward_module, "path_normals", None)
            m.setattr(noise_module, "increment_stream", None)
            held = integrate_ensemble(problem, u, 3, paths, normals=normals)
        assert held.v.tobytes() == drawn.v.tobytes()
        assert held.w.tobytes() == drawn.w.tobytes()
        assert not (held.v.flags.writeable or held.w.flags.writeable)
    assert ensemble_normals(dataclasses.replace(problem, cov=SpectralCovariance.zero(4)), 3) is None


def test_normals_of_the_wrong_shape_are_refused_before_integrating(monkeypatch):
    # normals for another block, too few steps or modes, or any normals with
    # the noise off, are refused before a path is stepped
    problem, u = _block_problem(1, 4, noisy=True)
    normals = ensemble_normals(problem, 0)
    noise_free = dataclasses.replace(problem, cov=SpectralCovariance.zero(4))
    called = []
    monkeypatch.setattr(forward_module, "integrate", lambda *a, **k: called.append(a))
    for prob, paths, held in [
        (problem, range(1, 3), normals),
        (problem, None, normals[:3]),
        (problem, None, normals[:, :-1]),
        (problem, None, normals[..., :-1]),
        (noise_free, None, normals[:1]),
    ]:
        with pytest.raises(ContractViolation, match="normals have shape"):
            integrate_ensemble(prob, u, 0, paths, normals=held)
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        ensemble_normals(problem, -1)
    assert called == []


@pytest.mark.parametrize(
    "noisy, paths",
    [
        (True, range(2, 2)),
        (True, range(0, 4, 2)),
        (True, range(3, 1, -1)),
        (True, range(-1, 2)),
        (True, range(3, 5)),
        (True, range(4, 5)),
        (True, [0, 1]),
        (True, slice(0, 2)),
        (False, range(1, 2)),
        (False, range(0, 2)),
    ],
)
def test_integrate_ensemble_refuses_a_bad_path_range_before_drawing(monkeypatch, noisy, paths):
    # a range that is empty, strided, or reaches outside range(n_paths) (one
    # path with the noise off) is refused before a path is drawn or stepped
    problem, u = _block_problem(1, 4, noisy)
    called = []
    monkeypatch.setattr(forward_module, "path_normals", lambda *a: called.append(a))
    monkeypatch.setattr(forward_module, "integrate", lambda *a, **k: called.append(a))
    with pytest.raises(ContractViolation, match="paths must be"):
        integrate_ensemble(problem, u, 0, paths)
    assert called == []


@pytest.mark.parametrize("grid", [Grid(1, 12), Grid(2, 6)], ids=["d1", "d2"])
def test_integrate_ensemble_paths_invariant_to_ensemble_size(grid):
    # path p of an ensemble of M paths is path p of any other ensemble,
    # bit for bit, whatever M is
    p = FhnParams()
    tg = TimeGrid(0.04, 20)
    cov = SpectralCovariance.power_spectrum(8, 0.3, 0.3)
    x0 = StateX(grid.constant(0.3), grid.zeros())
    u = ControlPath(0.1 * np.ones((tg.N + 1,) + grid.shape))
    spec = ActuatorSpec.identity(grid)
    problem = Problem(p, grid, cov, spec, tg, CostSpec(alpha=1.0), x0)
    runs = {
        M: integrate_ensemble(dataclasses.replace(problem, ensemble=M), u, 5) for M in (1, 7, 50)
    }
    largest = runs[50]
    assert not np.array_equal(largest.v[:, 0], largest.v[:, 1])
    for M, ens in runs.items():
        # time first, then paths: ens[n] holds every path at node n
        assert ens.v.shape == ens.w.shape == (tg.N + 1, M) + grid.shape
        for path in range(M):
            np.testing.assert_array_equal(ens.v[:, path], largest.v[:, path])
            np.testing.assert_array_equal(ens.w[:, path], largest.w[:, path])
    # path p is the one path that integrate steps on the increments of (seed, p)
    for path in range(50):
        X = integrate(p, grid, spec, tg, x0, u, sample_path(cov, grid, tg, 5, path), path)
        np.testing.assert_array_equal(largest.v[:, path], X.v)
        np.testing.assert_array_equal(largest.w[:, path], X.w)


def test_ensemble_consumers_check_the_layout():
    # a single path has no path axis, and ens[:1] is a slice of nodes, not
    # path 0; neither is an ensemble
    g = Grid(1, 8)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.power_spectrum(4)
    x0 = StateX(g.constant(0.1), g.zeros())
    u = ControlPath.zero(tg, g)
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0, c0=0.1), x0, ensemble=3)
    ens = integrate_ensemble(problem, u, 0)
    for bad in (integrate(p, g, spec, tg, x0, u, sample_path(cov, g, tg, 0, 0)), ens[:1]):
        with pytest.raises(ContractViolation, match="ensemble"):
            energy_report(problem, bad)
        with pytest.raises(ContractViolation, match="ensemble"):
            psi_from_trajectories(problem, u, bad)
        with pytest.raises(ContractViolation, match="ensemble"):
            solve_adjoint_regression(problem, bad)
        with pytest.raises(ContractViolation, match="ensemble"):
            solve_variational(problem, bad, u)
        with pytest.raises(ContractViolation, match="ensemble"):
            duality_gap(problem, bad, u)


def test_blow_up_detection():
    g = Grid(1, 8)
    # gigantic forcing with a long step drives the state over the guard
    p = FhnParams(f=1e9, linear=True)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(10.0, 10)
    with pytest.raises(BlowUpError) as info:
        integrate(p, g, spec, tg, StateX.zero(g), ControlPath.zero(tg, g), None, path_index=3)
    assert info.value.step >= 1
    assert info.value.norm > 1e6
    assert info.value.path == 3
    assert f"path 3, step {info.value.step}:" in str(info.value)


def _per_step_blow_up(p, g, spec, tg, x0, u, dW):
    """(step, norm) of the first node past the threshold, checked after
    every step on one path's increments dW (None: noise-free); None if
    every node passes."""
    X = x0
    for n in range(tg.N):
        X = step(p, g, spec, X, u.values[n], StateX.zero(g) if dW is None else dW[n], tg.dt)
        energy = norm_h_sq(g, p.gamma, X)
        if not energy <= BLOWUP_THRESHOLD**2:
            return n + 1, float(np.sqrt(max(energy, 0.0)))
    return None


@pytest.mark.parametrize(
    "d, n, T, N, v0, linear, f, kicks",
    [
        # crosses the threshold without overflowing, runs to its last step
        (1, 8, 10.0, 10, 0.0, True, 1e9, {}),
        # the explicit cubic overshoots until it overflows
        (1, 16, 1.0, 50, 30.0, False, 0.0, {}),
        (2, 8, 1.0, 20, 50.0, False, 0.0, {}),
        # fails at step 1
        (1, 8, 1.0, 10, 2e6, False, 0.0, {}),
        # a batch of three paths: a 1e7 kick at step index 2 on path 2 and
        # at step index 6 on path 0, so path 2 fails first in time
        (1, 8, 0.1, 10, 0.0, True, 0.0, {2: 2, 0: 6}),
        # two paths fail at one node: the lower one is reported
        (1, 8, 0.1, 10, 0.0, True, 0.0, {2: 2, 1: 2, 0: 6}),
    ],
    ids=["linear-forcing", "cubic-d1", "cubic-d2", "step-1", "batch-time-order", "batch-one-node"],
)
def test_blow_up_guard_matches_per_step_check(d, n, T, N, v0, linear, f, kicks):
    g = Grid(d, n)
    p = FhnParams(f=f, linear=linear)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(T, N)
    x0 = StateX(g.constant(v0), g.zeros())
    u = ControlPath.zero(tg, g)
    increments, columns = None, [None]
    if kicks:
        shape = (N, max(kicks) + 1) + g.shape
        increments = StateX(np.zeros(shape), np.zeros(shape))
        for path, kick_step in kicks.items():
            increments.v[kick_step, path] = 1.0e7
        columns = range(shape[1])
    # each path alone reports its own first failure: (step, path, norm)
    failures = []
    for col in columns:
        dW = None if col is None else increments[:, col]
        expected = _per_step_blow_up(p, g, spec, tg, x0, u, dW)
        if expected is None:
            continue
        failures.append((expected[0], col or 0, expected[1]))
        with pytest.raises(BlowUpError) as info:
            integrate(p, g, spec, tg, x0, u, dW, col or 0)
        assert (info.value.step, info.value.path, info.value.norm) == failures[-1]
    assert failures
    # the batch reports the first failure in time, and the lowest path
    # failing there, offset by path_index
    first_step, path, norm = min(failures)
    with pytest.raises(BlowUpError) as info:
        integrate(p, g, spec, tg, x0, u, increments, path_index=10)
    assert (info.value.step, info.value.path, info.value.norm) == (first_step, 10 + path, norm)


def test_integrate_ensemble_reports_the_first_blow_up_in_time(monkeypatch):
    # a kick of the normals at step index 2 on path 2 and at step index 6 on
    # path 0: the ensemble steps every path at once, so it reports the first
    # node in time that fails and the lowest path failing there, step 3 on
    # path 2
    g = Grid(1, 8)
    tg = TimeGrid(0.1, 10)
    p = FhnParams(linear=True)
    spec = ActuatorSpec.identity(g)
    cov = SpectralCovariance.power_spectrum(4)
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), StateX.zero(g), ensemble=3)
    u = ControlPath.zero(tg, g)
    kicks = {2: 2, 0: 6}

    def kicked(cov, timegrid, seed, path):
        xi = np.zeros((timegrid.N, 2, cov.K))
        if path in kicks:
            xi[kicks[path], 0] = 1.0e10
        return xi

    # both modules: the ensemble stages its paths' normals, and sample_path
    # synthesizes the same kicked normals for the one-path reference
    monkeypatch.setattr(forward_module, "path_normals", kicked)
    monkeypatch.setattr(noise_module, "path_normals", kicked)
    with pytest.raises(BlowUpError) as ensemble:
        integrate_ensemble(problem, u, 0)
    with pytest.raises(BlowUpError) as alone:
        integrate(p, g, spec, tg, StateX.zero(g), u, sample_path(cov, g, tg, 0, 2), 2)
    assert (ensemble.value.step, ensemble.value.path) == (3, 2)
    assert ensemble.value.norm == alone.value.norm


def test_a_block_names_the_blow_up_path_by_its_index_in_the_problem(monkeypatch):
    # path 4, its normals kicked at step index 2, fails at step 3 in the
    # block of paths 3 and 4 and in its own one-path block alike; the paths
    # before it pass
    g = Grid(1, 8)
    tg = TimeGrid(0.1, 10)
    p = FhnParams(linear=True)
    cov = SpectralCovariance.power_spectrum(4)
    spec = ActuatorSpec.identity(g)
    problem = Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), StateX.zero(g), ensemble=6)

    def kicked(cov, timegrid, seed, path):
        xi = np.zeros((timegrid.N, 2, cov.K))
        if path == 4:
            xi[2, 0] = 1.0e10
        return xi

    monkeypatch.setattr(forward_module, "path_normals", kicked)
    u = ControlPath.zero(tg, g)
    for paths in (range(3, 5), range(4, 5)):
        with pytest.raises(BlowUpError, match="path 4, step 3:") as info:
            integrate_ensemble(problem, u, 0, paths)
        assert (info.value.step, info.value.path) == (3, 4)
    integrate_ensemble(problem, u, 0, range(0, 4))


def test_non_finite_control_fails_the_solve():
    # no stepped node crosses the threshold, so the solve's own error stands
    g = Grid(1, 8)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.1, 10)
    u = ControlPath.zero(tg, g)
    u.values[4, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        integrate(p, g, spec, tg, StateX(g.constant(0.1), g.zeros()), u, None)


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
def test_integrate_is_the_step_kernel_composed(d):
    g = Grid(d, 8)
    p = FhnParams()
    mask = np.zeros(g.shape)
    mask[: g.n // 2] = 1.0
    spec = ActuatorSpec(mask)
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.power_spectrum(4)
    rng = np.random.default_rng([d, 15])
    u = ControlPath(0.5 * rng.standard_normal((tg.N + 1,) + g.shape))
    x0 = StateX(g.constant(0.2), 0.1 * rng.standard_normal(g.shape))
    ens = integrate_ensemble(Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), x0, 3), u, 11)
    for path in range(3):
        dW = sample_path(cov, g, tg, 11, path)
        X = x0
        v, w = [x0.v], [x0.w]
        for n in range(tg.N):
            X = step(p, g, spec, X, u.values[n], dW[n], tg.dt)
            v.append(X.v)
            w.append(X.w)
        traj = integrate(p, g, spec, tg, x0, u, dW, path)
        for got in (traj, ens[:, path]):
            np.testing.assert_array_equal(got.v, np.stack(v))
            np.testing.assert_array_equal(got.w, np.stack(w))


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
@pytest.mark.parametrize("M", [1, 7])
def test_batched_integrate_matches_each_path(d, M):
    # each column of a batch is its one-path run, bit for bit: noise on, a
    # half mask, a nonzero control and a forcing field
    g = Grid(d, 8)
    rng = np.random.default_rng([d, M, 41])
    p = FhnParams(f=0.1 * rng.standard_normal(g.shape))
    mask = np.zeros(g.shape)
    mask[: g.n // 2] = 1.0
    spec = ActuatorSpec(mask)
    tg = TimeGrid(0.05, 10)
    cov = SpectralCovariance.power_spectrum(4, 0.5, 0.5)
    u = ControlPath(0.5 * rng.standard_normal((tg.N + 1,) + g.shape))
    x0 = StateX(g.constant(0.2), 0.1 * rng.standard_normal(g.shape))
    paths = [sample_path(cov, g, tg, 3, path) for path in range(M)]
    batch = StateX(np.stack([x.v for x in paths], axis=1), np.stack([x.w for x in paths], axis=1))
    got = integrate(p, g, spec, tg, x0, u, batch)
    assert got.v.shape == (tg.N + 1, M) + g.shape
    for path in range(M):
        alone = integrate(p, g, spec, tg, x0, u, paths[path], path)
        np.testing.assert_array_equal(got.v[:, path], alone.v)
        np.testing.assert_array_equal(got.w[:, path], alone.w)


def test_control_enters_voltage_linearly():
    g = Grid(1, 12)
    p = FhnParams(linear=True)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.1, 20)
    x0 = StateX.zero(g)
    u1 = ControlPath(np.ones((tg.N + 1,) + g.shape))
    t0 = integrate(p, g, spec, tg, x0, ControlPath.zero(tg, g), None)
    t1 = integrate(p, g, spec, tg, x0, u1, None)
    t2 = integrate(p, g, spec, tg, x0, 2.0 * u1, None)
    np.testing.assert_allclose(t2.v - t0.v, 2.0 * (t1.v - t0.v), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
def test_path_functionals_match_per_node_reference(d):
    g = Grid(d, 8)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.05, 10)
    rng = np.random.default_rng([d, 31])
    u = ControlPath(0.2 * rng.standard_normal((tg.N + 1,) + g.shape))
    cov, x0 = SpectralCovariance.power_spectrum(4), StateX(g.constant(0.2), g.zeros())
    ens = integrate_ensemble(Problem(p, g, cov, spec, tg, CostSpec(alpha=1.0), x0, 3), u, 0)
    profile = rng.standard_normal(g.shape)
    cost = CostSpec(
        alpha=0.7, c_g=1.3, c0=0.4,
        x_ref=lambda n: StateX((0.1 * n) * profile, g.constant(-0.05 * n)),
        x_T=StateX(g.constant(0.3), g.zeros()),
    )

    # reference: every norm taken one field at a time, sums in node order
    sup_h, int_v, per_path = [], [], []
    tw = uw = tg.u_weights()
    gw = tg.g_weights()
    control_cost = 0
    for n in range(tg.N + 1):
        control_cost += uw[n] * (0.5 * cost.alpha * norm_l2_sq(g, u.values[n]))
    for traj in (ens[:, path] for path in range(3)):
        h_sq, v_sq = [], []
        for n in range(tg.N + 1):
            X = traj[n]
            h_sq.append(norm_h_sq(g, p.gamma, X))
            v_sq.append(
                p.gamma * (norm_l2_sq(g, X.v) + grad_norm_sq(g, X.v)) + norm_l2_sq(g, X.w)
            )
        sup_h.append(max(h_sq))
        int_v.append(float(np.dot(tw, v_sq)))
        running = 0
        for n in range(tg.N):
            diff = traj[n] - cost.x_ref(n)
            running += gw[n] * (0.5 * cost.c_g * norm_h_sq(g, p.gamma, diff))
        terminal = 0.5 * cost.c0 * norm_h_sq(g, p.gamma, traj[tg.N] - cost.x_T)
        per_path.append(terminal + running + control_cost)

    problem = Problem(p, g, cov, spec, tg, cost, x0, 3)
    rep = energy_report(problem, ens)
    assert rep["sup_h_sq"] == sup_h
    assert rep["int_v_sq"] == int_v
    assert rep["mean_sup_h_sq"] == float(np.mean(sup_h)) > 0
    assert rep["mean_int_v_sq"] == float(np.mean(int_v)) > 0
    value, stderr = psi_from_trajectories(problem, u, ens)
    assert value == float(np.mean(per_path))
    assert stderr == float(np.std(per_path, ddof=1) / np.sqrt(ens.v.shape[1]))


def test_snapshot_roundtrip(tmp_path):
    g = Grid(1, 8)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.05, 10)
    traj = integrate(
        p, g, spec, tg, StateX(g.constant(0.1), g.zeros()), ControlPath.zero(tg, g),
        sample_path(SpectralCovariance.power_spectrum(4), g, tg, 5, 0),
    )
    path = tmp_path / "snap.npz"
    save_snapshot(path, traj, 5, 0)
    with np.load(path) as data:
        assert sorted(data.files) == ["format", "path_index", "seed", "v", "w"]
        assert str(data["format"]) == "fhn-snapshot-v2"
    with zipfile.ZipFile(path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
    back, seed, path_index = load_snapshot(path)
    np.testing.assert_array_equal(back.v, traj.v)
    np.testing.assert_array_equal(back.w, traj.w)
    assert (seed, path_index) == (5, 0)


def test_load_snapshot_reads_compressed_v2(tmp_path):
    # earlier versions wrote the same v2 fields with np.savez_compressed
    rng = np.random.default_rng(3)
    v, w = rng.standard_normal((2, 11, 8))
    path = tmp_path / "v2.npz"
    np.savez_compressed(path, format="fhn-snapshot-v2", v=v, w=w, path_index=2, seed=9)
    back, seed, path_index = load_snapshot(path)
    np.testing.assert_array_equal(back.v, v)
    np.testing.assert_array_equal(back.w, w)
    assert (seed, path_index) == (9, 2)


@pytest.mark.parametrize("missing", ["format", "w"])
def test_load_snapshot_names_a_missing_array(tmp_path, missing):
    zeros = np.zeros((11, 8))
    arrays = dict(format="fhn-snapshot-v2", v=zeros, w=zeros, path_index=0, seed=0)
    del arrays[missing]
    path = tmp_path / "foreign.npz"
    np.savez(path, **arrays)
    with pytest.raises(ConfigurationError, match=f"no '{missing}' array"):
        load_snapshot(path)


def test_load_snapshot_names_a_foreign_file(tmp_path):
    # an .npy array, a text file named .npz and a missing file are each a
    # configuration error naming the path, not numpy's or the OS's error
    npy = tmp_path / "path.npy"
    np.save(npy, np.zeros((11, 8)))
    text = tmp_path / "notes.npz"
    text.write_text("not an archive\n")
    for path in (npy, text, tmp_path / "missing.npz"):
        with pytest.raises(ConfigurationError, match=str(path)):
            load_snapshot(path)


def test_load_snapshot_rejects_v1(tmp_path):
    g = Grid(1, 8)
    tg = TimeGrid(0.05, 10)
    path = tmp_path / "old.npz"
    zeros = np.zeros((tg.N + 1,) + g.shape)
    np.savez_compressed(
        path, format="fhn-snapshot-v1", v=zeros, w=zeros,
        dbeta1=zeros[1:], dbeta2=zeros[1:], control=zeros, path_index=0, seed=0,
    )
    with pytest.raises(ConfigurationError, match="fhn-snapshot-v1"):
        load_snapshot(path)
