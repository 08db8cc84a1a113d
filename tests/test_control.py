"""Cost functional, exact gradients, contraction margin, and the optimizer."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fhn_control.control as control_module
import fhn_control.forward as forward_module
import fhn_control.grid as grid_module
import fhn_control.noise as noise_module
from fhn_control.adjoint import control_signal
from fhn_control.control import (
    CostSpec,
    Problem,
    contraction_margin,
    gradient,
    optimize,
    psi_estimate,
    psi_from_trajectories,
    subdiff_inverse,
)
from fhn_control.dynamics import FhnParams
from fhn_control.errors import ConfigurationError, ContractViolation
from fhn_control.forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    integrate_ensemble,
    u_inner,
    u_norm,
)
from fhn_control.grid import Grid, StateX, neumann_eigenmode, norm_h_sq, norm_l2_sq
from fhn_control.noise import SpectralCovariance
from fhn_control.scenario import Scenario


def _setup(n=16, N=50, T=0.1, alpha=2.0, c_g=1.0, c0=0.1, v0=0.3, linear=False):
    """A noise-free 1-D problem on the whole domain."""
    g = Grid(1, n)
    p = FhnParams(linear=linear)
    return Problem(
        params=p,
        grid=g,
        cov=SpectralCovariance.zero(1),
        spec=ActuatorSpec.identity(g),
        timegrid=TimeGrid(T, N),
        cost=CostSpec(alpha=alpha, c_g=c_g, c0=c0),
        x0=StateX(g.constant(v0), g.zeros()),
    )


def _noisy(problem, ensemble):
    return dataclasses.replace(
        problem, cov=SpectralCovariance.power_spectrum(4, 0.05, 0.05), ensemble=ensemble
    )


def test_problem_path_count_follows_noise():
    problem = _noisy(_setup(n=8), 20)
    assert problem.n_paths == 20
    assert dataclasses.replace(problem, cov=SpectralCovariance.zero(4)).n_paths == 1
    with pytest.raises(ConfigurationError, match="ensemble"):
        dataclasses.replace(problem, ensemble=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.ensemble = 5


def _parts(g, **change):
    """The parts of a noise-free problem on grid g, some of them replaced."""
    parts = dict(
        params=FhnParams(), grid=g, cov=SpectralCovariance.zero(1),
        spec=ActuatorSpec.identity(g), timegrid=TimeGrid(0.1, 10), cost=CostSpec(alpha=2.0),
        x0=StateX(g.constant(0.3), g.zeros()),
    )
    return {**parts, **change}


_ROW = np.ones(8)  # one axis of Grid(2, 8): it would broadcast along the last


@pytest.mark.parametrize(
    "grid, change, error, match",
    [
        (Grid(2, 8), lambda g: {"spec": ActuatorSpec(_ROW)}, ContractViolation, "actuator mask"),
        (Grid(2, 8), lambda g: {"x0": StateX(_ROW, _ROW)}, ContractViolation, "initial state"),
        (
            Grid(2, 8), lambda g: {"cost": CostSpec(alpha=2.0, x_ref=StateX(_ROW, _ROW))},
            ContractViolation, "x_ref",
        ),
        (
            Grid(2, 8), lambda g: {"cost": CostSpec(alpha=2.0, c0=0.1, x_T=StateX(_ROW, _ROW))},
            ContractViolation, "x_T",
        ),
        (Grid(2, 8), lambda g: {"params": FhnParams(f=_ROW)}, ContractViolation, "forcing"),
        # n = 12 holds 11 exactly orthogonal modes
        (
            Grid(1, 12), lambda g: {"cov": SpectralCovariance.power_spectrum(40)},
            ConfigurationError, "modes=40",
        ),
        # dt = 0.1 and I_ion'(30) = 2625.25: the explicit cubic step is unstable
        (
            Grid(1, 16),
            lambda g: {"timegrid": TimeGrid(1.0, 10), "x0": StateX(g.constant(30.0), g.zeros())},
            ConfigurationError, r"dt=0\.1 .* >= 2",
        ),
        # a callable reference is checked at every node 0..N-1 the cost reads
        (
            Grid(2, 8), lambda g: {"cost": CostSpec(alpha=2.0, x_ref=lambda n: StateX(_ROW, _ROW))},
            ContractViolation, "x_ref at node 0 has shape",
        ),
        (
            Grid(2, 8), lambda g: {"cost": CostSpec(alpha=2.0, x_ref=lambda n: None)},
            ContractViolation, "x_ref at node 0 is a NoneType",
        ),
        (
            Grid(2, 8),
            lambda g: {"cost": CostSpec(alpha=2.0, x_ref=lambda n: StateX(g.constant(np.nan), g.zeros()))},
            ConfigurationError, "x_ref at node 0 holds non-finite",
        ),
        (
            # TimeGrid(0.1, 10): node 9 is the last the running cost reads
            Grid(2, 8),
            lambda g: {"cost": CostSpec(
                alpha=2.0, x_ref=lambda n: StateX(g.constant(np.nan if n == 9 else 0.0), g.zeros())
            )},
            ConfigurationError, "x_ref at node 9 holds non-finite",
        ),
    ],
    ids=[
        "mask", "x0", "x_ref", "x_T", "forcing", "truncation", "step-size",
        "x_ref-callable-shape", "x_ref-callable-type", "x_ref-callable-nan", "x_ref-callable-nan-late",
    ],
)
def test_problem_built_in_code_is_checked(grid, change, error, match):
    with pytest.raises(error, match=match):
        Problem(**_parts(grid, **change(grid)))


_G = Grid(1, 8)
_NAN_STATE = StateX(np.where(np.arange(8) == 3, np.nan, 0.0), _G.zeros())


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: TimeGrid(np.nan, 10), "horizon"),
        (lambda: TimeGrid(np.inf, 10), "horizon"),
        (lambda: Grid(1, 8, np.nan), "edge length"),
        (lambda: Grid(1, 8, np.inf), "edge length"),
        (lambda: FhnParams(gamma=np.nan), "gamma"),
        (lambda: FhnParams(delta=np.inf), "delta"),
        (lambda: FhnParams(a=np.nan), "finite"),
        (lambda: FhnParams(b=np.inf), "finite"),
        (lambda: FhnParams(f=np.nan), "forcing"),
        (lambda: FhnParams(f=_NAN_STATE.v), "forcing"),
        (lambda: CostSpec(alpha=np.nan), "alpha"),
        (lambda: CostSpec(alpha=np.inf), "alpha"),
        (lambda: CostSpec(alpha=1.0, c0=np.nan), "cost weights"),
        (lambda: CostSpec(alpha=1.0, c_g=np.inf), "cost weights"),
        (lambda: SpectralCovariance((np.nan,), (0.0,)), "eigenvalues"),
        (lambda: SpectralCovariance((np.inf,), (0.0,)), "eigenvalues"),
        (lambda: SpectralCovariance((0.0,), (np.nan,)), "eigenvalues"),
        (lambda: Problem(**_parts(_G, x0=_NAN_STATE)), "initial state"),
        (lambda: Problem(**_parts(_G, cost=CostSpec(alpha=2.0, x_ref=_NAN_STATE))), "x_ref"),
        (
            lambda: Problem(**_parts(_G, cost=CostSpec(alpha=2.0, c0=0.1, x_T=_NAN_STATE))),
            "x_T",
        ),
    ],
    ids=[
        "T-nan", "T-inf", "ell-nan", "ell-inf", "gamma-nan", "delta-inf", "a-nan", "b-inf",
        "f-nan", "f-field", "alpha-nan", "alpha-inf", "c0-nan", "c_g-inf", "lam1-nan",
        "lam1-inf", "lam2-nan", "x0", "x_ref", "x_T",
    ],
)
def test_parts_built_in_code_reject_nan_and_infinity(build, match):
    # each part's range check fails on NaN, and the problem checks its states
    with pytest.raises(ConfigurationError, match=match):
        build()


def test_derived_problem_is_checked():
    # dataclasses.replace runs the same checks, so a study's refined or
    # coarsened problem is checked like the one it came from
    problem = _setup(N=200, T=0.1, v0=30.0)  # dt = 5e-4: dt*I_ion'(30) = 1.3
    with pytest.raises(ConfigurationError, match=r"dt=0\.1 .* >= 2"):
        dataclasses.replace(problem, timegrid=TimeGrid(1.0, 10))


def test_cost_spec_validation():
    with pytest.raises(ConfigurationError):
        CostSpec(alpha=0.0)
    with pytest.raises(ConfigurationError):
        CostSpec(alpha=1.0, c0=-1.0)


def test_quadratic_cost_values():
    g = Grid(1, 9, 1.0)
    cost = CostSpec(alpha=2.0, c_g=1.0, c0=0.4)
    X = StateX(g.constant(1.0), g.constant(2.0))
    # g = 0.5 * (gamma*|v|^2 + |w|^2) = 0.5 * (0.5 + 4) over unit volume
    assert cost.g(g, 0.5, X, 0) == pytest.approx(0.5 * (0.5 + 4.0))
    assert cost.g0(g, 0.5, X) == pytest.approx(0.4 * 0.5 * (0.5 + 4.0))
    assert cost.h(g, g.constant(3.0)) == pytest.approx(0.5 * 2.0 * 9.0)


def test_reference_profiles_constant_and_time_varying():
    g = Grid(1, 9)
    ref = StateX(g.constant(1.0), g.zeros())
    cost = CostSpec(alpha=1.0, x_ref=ref)
    X = StateX(g.constant(1.0), g.zeros())
    assert cost.g(g, 0.5, X, 0) == pytest.approx(0.0)
    moving = CostSpec(alpha=1.0, x_ref=lambda n: StateX(g.constant(float(n)), g.zeros()))
    assert moving.g(g, 0.5, X, 1) == pytest.approx(0.0)
    assert moving.g(g, 0.5, X, 3) > 0.0


def test_psi_reads_gamma_and_quadrature_from_the_problem():
    # the cost keeps no grid and no gamma, so a cost at another gamma or on
    # another grid than its dynamics cannot be built; Psi takes both from
    # the problem that holds the cost
    assert not {"grid", "gamma"} & {f.name for f in dataclasses.fields(CostSpec)}
    with pytest.raises(TypeError):
        CostSpec(grid=Grid(1, 16, 2.0), gamma=1.0, alpha=2.0)
    problem = Scenario(
        n=12, modes=4, steps=10, horizon=0.05, mode="stochastic", ensemble=3,
        x_ref="modes:2:0.3,3:-0.2", x_target="constant:0.1|constant:-0.05",
    ).problem
    g, tg, cost = problem.grid, problem.timegrid, problem.cost
    rng = np.random.default_rng(17)
    u = ControlPath(0.2 * rng.standard_normal((tg.N + 1,) + g.shape))
    ens = integrate_ensemble(problem, u, 0)
    moved = dataclasses.replace(problem, params=dataclasses.replace(problem.params, gamma=1.3))
    value, stderr = psi_from_trajectories(moved, u, ens)

    # reference at gamma = 1.3, one field at a time, sums in node order
    uw, gw = tg.u_weights(), tg.g_weights()
    control_cost = 0
    for n in range(tg.N + 1):
        control_cost += uw[n] * (0.5 * cost.alpha * norm_l2_sq(g, u.values[n]))
    per_path = []
    for path in range(3):
        running = 0
        for n in range(tg.N):
            running += gw[n] * (0.5 * cost.c_g * norm_h_sq(g, 1.3, ens[n, path] - cost.x_ref))
        terminal = 0.5 * cost.c0 * norm_h_sq(g, 1.3, ens[tg.N, path] - cost.x_T)
        per_path.append(terminal + running + control_cost)
    assert value == float(np.mean(per_path))
    assert stderr == float(np.std(per_path, ddof=1) / np.sqrt(3))
    assert value != psi_from_trajectories(problem, u, ens)[0]


def test_subdiff_inverse_is_inverse_of_dh():
    g = Grid(1, 8)
    tg = TimeGrid(0.1, 4)
    cost = CostSpec(alpha=2.5)
    rng = np.random.default_rng(0)
    q = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    u = subdiff_inverse(cost, q)
    # dh(u) = alpha*u must reproduce q
    np.testing.assert_allclose(cost.alpha * u.values, q.values, atol=1e-14)


def test_contraction_margin_formula():
    # a number, in the operation order of history.csv's margin column
    for alpha, c0, T in [(2.0, 0.1, 0.5), (3.0, 0.7, 0.3), (0.7, 0.0, 4.0), (2.0, 0.1, 10.0)]:
        margin = contraction_margin(CostSpec(alpha=alpha, c0=c0), T)
        assert type(margin) is float
        assert margin == (1.0 / alpha) * T + c0


def test_psi_estimate_zero_cost_for_zero_everything():
    problem = _setup(c0=0.0, c_g=1.0)
    problem = dataclasses.replace(problem, x0=StateX.zero(problem.grid))
    val, err = psi_estimate(problem, ControlPath.zero(problem.timegrid, problem.grid))
    assert val == pytest.approx(0.0, abs=1e-15)
    assert err == 0.0


def test_psi_estimate_control_cost_only():
    problem = _setup(c0=0.0, c_g=0.0, alpha=2.0, linear=True)
    g, tg = problem.grid, problem.timegrid
    problem = dataclasses.replace(problem, x0=StateX.zero(g))
    u = ControlPath(np.ones((tg.N + 1,) + g.shape))
    val, _ = psi_estimate(problem, u)
    # the state cost is off, so only (alpha/2)|u|^2 = 1 * T * |Lambda| remains
    assert val == pytest.approx(1.0 * tg.T, rel=1e-10)


def test_psi_estimate_stochastic_reports_stderr():
    problem = dataclasses.replace(
        _setup(N=10), cov=SpectralCovariance.power_spectrum(4), ensemble=16
    )
    u = ControlPath.zero(problem.timegrid, problem.grid)
    val, err = psi_estimate(problem, u, 0)
    assert val > 0
    assert err > 0


def test_gradient_matches_finite_differences():
    problem = _setup()
    g, tg = problem.grid, problem.timegrid
    rng = np.random.default_rng(3)
    u = ControlPath(0.3 * rng.standard_normal((tg.N + 1,) + g.shape))
    grad = gradient(problem.cost, u, control_signal(problem, integrate_ensemble(problem, u, 0)))
    h = 1e-5
    for k in range(3):
        d = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
        d = (1.0 / u_norm(g, tg, d)) * d
        plus, _ = psi_estimate(problem, u + h * d)
        minus, _ = psi_estimate(problem, u - h * d)
        fd = (plus - minus) / (2 * h)
        ip = u_inner(g, tg, grad, d)
        assert abs(fd - ip) <= 1e-8 * max(1.0, abs(ip))


def test_gradient_rejects_mismatched_paths():
    problem = _setup()
    g, tg, cost = problem.grid, problem.timegrid, problem.cost
    q = control_signal(problem, integrate_ensemble(problem, ControlPath.zero(tg, g), 0))
    for bad in (
        ControlPath(np.zeros((tg.N + 2,) + g.shape)),
        ControlPath(np.zeros((tg.N + 1,) + (g.n // 2,) * g.d)),
    ):
        with pytest.raises(ContractViolation):
            gradient(cost, bad, q)


def test_optimize_converges_and_certificate_small():
    rep = optimize(_setup(N=100, T=0.2), tol=1e-7, max_iters=30)
    assert rep.converged
    assert rep.certificate_residual <= 1e-6
    psi = rep.psi_history
    assert all(b <= a + 1e-12 for a, b in zip(psi, psi[1:]))


def test_optimize_improves_on_zero_control():
    problem = _setup(N=100, T=0.2)
    g, tg = problem.grid, problem.timegrid
    base, _ = psi_estimate(problem, ControlPath.zero(tg, g))
    rep = optimize(problem, tol=1e-7, max_iters=30)
    assert rep.psi_final < base
    assert u_norm(g, tg, rep.u_star) > 0


def test_optimize_respects_iteration_cap():
    rep = optimize(_setup(N=20), tol=1e-16, max_iters=3)
    assert not rep.converged
    assert len(rep.iterations) == 3


def test_optimize_warm_start_converges_immediately():
    problem = _setup(N=50)
    first = optimize(problem, tol=1e-8, max_iters=30)
    second = optimize(problem, tol=1e-6, max_iters=5, u0=first.u_star)
    assert second.converged
    assert len(second.iterations) <= 2


def test_optimize_stochastic_smoke():
    problem = _noisy(_setup(n=8, N=20), 20)
    rep = optimize(problem, tol=1e-4, max_iters=10)
    assert rep.converged
    assert rep.certificate_residual <= 1e-3
    assert rep.path0.v.shape == rep.path0.w.shape == (problem.timegrid.N + 1,) + problem.grid.shape


@pytest.mark.parametrize(
    "stochastic, tol, max_iters",
    [(False, 1e-7, 30), (True, 1e-4, 10), (False, 1e-16, 2)],
    ids=["deterministic", "stochastic", "iteration-cap"],
)
def test_optimize_integrates_each_control_once(monkeypatch, stochastic, tol, max_iters):
    problem = _noisy(_setup(n=8, N=20), 20) if stochastic else _setup(n=8, N=20)
    integrated = []
    # per control_signal call: [Helmholtz solves, time loops] made inside it
    in_signal = []
    signal_depth = []
    real_integrate = control_module.integrate_ensemble
    real_loop = forward_module.integrate
    real_signal = control_module.control_signal
    real_solve = grid_module.helmholtz_solve

    def recording_integrate(problem, control, seed, normals=None):
        integrated.append(control.values.tobytes())
        return real_integrate(problem, control, seed, normals=normals)

    def counting_loop(*args, **kwargs):
        if signal_depth:
            in_signal[-1][1] += 1
        return real_loop(*args, **kwargs)

    def tracking_signal(*args):
        in_signal.append([0, 0])
        signal_depth.append(1)
        try:
            return real_signal(*args)
        finally:
            signal_depth.pop()

    def counting_solve(*args):
        if signal_depth:
            in_signal[-1][0] += 1
        return real_solve(*args)

    monkeypatch.setattr(control_module, "integrate_ensemble", recording_integrate)
    monkeypatch.setattr(forward_module, "integrate", counting_loop)
    monkeypatch.setattr(control_module, "control_signal", tracking_signal)
    monkeypatch.setattr(forward_module, "helmholtz_solve", counting_solve)
    monkeypatch.setattr(grid_module, "helmholtz_solve", counting_solve)
    rep = optimize(problem, tol=tol, max_iters=max_iters)

    assert len(integrated) >= 2
    assert len(set(integrated)) == len(integrated)
    # the signal is the backward sweep: one S* solve per step along the
    # paths it is handed, and no integration.  The start and each step
    # taken are swept once
    steps_taken = sum(it["tau"] > 0.0 for it in rep.iterations)
    assert in_signal == [[problem.timegrid.N, 0]] * (1 + steps_taken)
    if rep.converged:
        assert rep.certificate_residual == rep.iterations[-1]["residual"]
    else:
        # the cap hit right after an accepted step: the certificate needs a
        # fresh adjoint, but the accepted trial's paths are reused
        assert rep.iterations[-1]["accepted"]
        assert 0.0 < rep.certificate_residual < rep.iterations[-1]["residual"]
    assert rep.converged == (max_iters > 2)


def test_optimize_opens_each_stream_once(monkeypatch):
    # common random numbers: every control is integrated on the same noise,
    # so the optimizer draws each path's normals once, before its first
    # integration, and opens each (path, step) stream exactly once however
    # many controls it integrates
    problem = _noisy(_setup(n=8, N=20), 6)
    streams, integrations = [], []
    real_stream = noise_module.increment_stream
    real_integrate = control_module.integrate_ensemble

    def counting_stream(*key):
        streams.append(key)
        return real_stream(*key)

    def counting_integrate(*args, **kwargs):
        integrations.append(1)
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(noise_module, "increment_stream", counting_stream)
    monkeypatch.setattr(control_module, "integrate_ensemble", counting_integrate)
    rep = optimize(problem, tol=1e-8, max_iters=10)

    M, N = problem.n_paths, problem.timegrid.N
    assert len(integrations) >= 3
    assert len(streams) == M * N
    assert sorted(streams) == [(0, p, n) for p in range(M) for n in range(N)]
    # and on those normals the run is the one that draws every path anew
    monkeypatch.setattr(control_module, "ensemble_normals", lambda *a: None)
    again = optimize(problem, tol=1e-8, max_iters=10)
    assert len(streams) == M * N * (1 + len(integrations) // 2)
    assert again.u_star.values.tobytes() == rep.u_star.values.tobytes()
    assert again.path0.v.tobytes() == rep.path0.v.tobytes()
    assert [it["psi"] for it in again.iterations] == [it["psi"] for it in rep.iterations]


def test_optimize_sweeps_once_per_distinct_control(monkeypatch):
    # with no backtracks every step is rejected, so u and its paths never
    # move: one signal, the one backward sweep, serves every iteration and
    # the certificate
    problem = _setup(n=16, N=40)
    sweeps = []
    real_signal = control_module.control_signal

    def counting_signal(*args):
        sweeps.append(1)
        return real_signal(*args)

    monkeypatch.setattr(control_module, "MAX_BACKTRACKS", 0)
    monkeypatch.setattr(control_module, "control_signal", counting_signal)
    rep = optimize(problem, tol=1e-12, max_iters=5)

    assert len(sweeps) == 1
    assert len(rep.iterations) == 5
    assert not any(it["accepted"] for it in rep.iterations)
    assert {it["residual"] for it in rep.iterations} == {rep.certificate_residual}
    assert rep.certificate_residual > 0.0
    np.testing.assert_array_equal(rep.u_star.values, 0.0)


def test_optimize_rejects_a_trial_that_blows_up():
    # the first trial, the fixed-point candidate q/alpha, reaches max |u| ~
    # 700 and blows up at step 4; the line search halves the step instead
    # of ending the run, while the current iterate is fine
    problem = Scenario(
        n=12, steps=40, horizon=1.0, modes=8, alpha=0.01, running_weight=10.0,
        x_ref="constant:1.0",
    ).problem
    rep = optimize(problem, max_iters=3)
    assert np.isfinite(rep.psi_final)
    assert all(it["accepted"] and it["tau"] < 1.0 for it in rep.iterations)


def test_optimize_refuses_a_perturbed_step_that_points_uphill(monkeypatch):
    # at alpha = 0.03 the sqrt(eps)*theta perturbation can overtake the
    # fixed-point step; the descent test then keeps the plain step, and the
    # run still converges.  `u_inner` is called directly only by that test.
    problem = Scenario(
        n=12, steps=40, horizon=0.5, modes=8, alpha=0.03, x_ref="constant:1.0", eps0=0.1,
    ).problem
    pairings = []
    real_inner = control_module.u_inner

    def recording_inner(*args):
        pairings.append(real_inner(*args))
        return pairings[-1]

    monkeypatch.setattr(control_module, "u_inner", recording_inner)
    rep = optimize(problem, max_iters=30, eps0=0.1)
    refused = [ip for ip in pairings if ip < 0.0]
    assert refused and len(refused) < len(pairings)
    assert rep.converged
    assert rep.certificate_residual < 1e-6
    psi = rep.psi_history
    assert all(b <= a + 1e-12 for a, b in zip(psi, psi[1:]))


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-off", "noise-on"])
def test_negative_seed_is_rejected_before_integrating(monkeypatch, noisy):
    # integrate_ensemble draws a run's paths, so it checks the seed for
    # optimize and psi_estimate alike, whether or not a stream is opened
    problem = _noisy(_setup(n=8, N=10), 4) if noisy else _setup(n=8, N=10)
    u = ControlPath.zero(problem.timegrid, problem.grid)
    stepped, drawn = [], []
    monkeypatch.setattr(forward_module, "integrate", lambda *a: stepped.append(a))
    monkeypatch.setattr(noise_module, "increment_stream", lambda *a: drawn.append(a))
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        optimize(problem, seed=-1)
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        psi_estimate(problem, u, -1)
    assert stepped == drawn == []


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_iters", 0),
        ("tol", 0.0),
        ("tol", np.nan),
        ("tol", np.inf),
        ("eps0", 0.0),
        ("eps0", -1.0),
        ("eps0", np.nan),
        ("eps0", np.inf),
        ("u0", np.nan),
        ("u0", np.inf),
    ],
)
def test_optimize_checks_its_settings_before_integrating(monkeypatch, name, value):
    # called in code, optimize rejects what the scenario rejects, and a
    # non-finite start, before it integrates anything
    problem = _setup(n=16, N=10)
    if name == "u0":
        values = np.zeros((problem.timegrid.N + 1,) + problem.grid.shape)
        values[3, 5] = value
        value = ControlPath(values)
    integrated = []
    monkeypatch.setattr(control_module, "integrate_ensemble", lambda *a: integrated.append(a))
    with pytest.raises(ConfigurationError, match=name):
        optimize(problem, **{name: value})
    assert integrated == []


@pytest.mark.parametrize("short", ["grid-node", "time-node"])
def test_a_control_off_the_grid_fails_before_any_draw(monkeypatch, short):
    # a control one grid node or one time node short is refused before any
    # of the six paths' noise is drawn, whether it is integrated, costed or
    # the optimizer's start, which draws every path's normals up front
    problem = Scenario(n=16, modes=8, steps=50, ensemble=6, mode="stochastic").problem
    N, n = problem.timegrid.N, problem.grid.n
    bad = ControlPath(np.zeros((N + 1, n - 1) if short == "grid-node" else (N, n)))
    drawn = []
    monkeypatch.setattr(forward_module, "path_normals", lambda *a: drawn.append(a))
    monkeypatch.setattr(noise_module, "increment_stream", lambda *a: drawn.append(a))
    with pytest.raises(ContractViolation, match="control path has shape"):
        integrate_ensemble(problem, bad, 0)
    with pytest.raises(ContractViolation, match="control path has shape"):
        psi_estimate(problem, bad, 0)
    with pytest.raises(ContractViolation, match="u0 has shape"):
        optimize(problem, u0=bad)
    assert drawn == []


@pytest.mark.parametrize(
    "name, values", [("tol", (0.0, -1.0)), ("max_iters", (0, -1)), ("eps0", (0.0, -1.0))]
)
def test_run_settings_fail_alike_from_a_scenario_and_in_code(name, values):
    # a scenario and a call of optimize check tol, max_iters and eps0 with
    # one check, so a bad value reads the same by either route
    problem = _setup(n=8, N=10)
    for value in values:
        with pytest.raises(ConfigurationError) as from_scenario:
            Scenario(**{name: value}).validate()
        with pytest.raises(ConfigurationError) as in_code:
            optimize(problem, **{name: value})
        assert str(from_scenario.value) == str(in_code.value)
        assert str(in_code.value).startswith(f"{name} must be")


def test_optimize_holds_about_nine_field_paths():
    # the optimizer's working set on a deterministic 2-D problem, in field
    # paths of (N+1)*n^d doubles, peaks while a trial integrates: the
    # iterate, its signal, path 0 (the whole one-path ensemble, two), the
    # direction, the trial and its two, and the blow-up guard's
    # temporaries.  Keeping theta and a refused perturbed step through the
    # line search, and a sweep that stores the dual path and its transport
    # before the signal is read off, read 10.2; a second integration's copy
    # of the one path, or the gradient and the candidates kept through the
    # line search, read ~15.
    n, N = 24, 100
    g = Grid(2, n)
    mask = np.multiply.outer((g.axis_coords() < g.ell / 2).astype(float), np.ones(n))
    ref = StateX(0.3 * neumann_eigenmode(g, 2) - 0.2 * neumann_eigenmode(g, 3), g.zeros())
    problem = Problem(
        params=FhnParams(), grid=g, cov=SpectralCovariance.zero(1), spec=ActuatorSpec(mask),
        timegrid=TimeGrid(1.0, N), cost=CostSpec(alpha=1.0, x_ref=ref),
        x0=StateX(g.zeros(), g.zeros()),
    )
    optimize(problem)  # warm-up: the caches of the grid and the time grid
    tracemalloc.start()
    try:
        rep = optimize(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak / ((N + 1) * n**g.d * 8) <= 9.5


@pytest.mark.parametrize("M, bound", [(8, 34.5), (1, 11.6)])
def test_optimize_holds_the_ensembles_and_little_else(M, bound):
    # the stochastic optimizer's working set, in field paths of (N+1)*n
    # doubles: the held standard normals, M*2K/n (one per path at K = n/2),
    # one trial ensemble, 2M, path 0 (a copy, two; at M = 1 the whole
    # accepted ensemble) and the signal of the current control, the
    # iterate, the direction, the trial, and the integration's temporaries.
    # The ensemble's increments are staged in its own arrays and the
    # blow-up guard reduces one path at a time.  At M = 8, keeping the
    # current ensemble beside the trial's read 41.2, holding the
    # synthesized increments instead of the normals 44.1, keeping the old
    # signal and path 0 while a trial's are taken 38.2, and keeping theta
    # through the line search beside a sweep that stores the dual path 35.2.
    # One path holds its normals too, and stages its increments in its
    # ensemble's column: drawing them into a separate pair read 13.2 at
    # M = 1, and keeping theta and the stored dual path 12.2
    n, N = 64, 100
    problem = Scenario(
        d=1, n=n, steps=N, horizon=0.1, modes=32, ensemble=M, mode="stochastic"
    ).problem
    optimize(problem, max_iters=5)  # warm-up: the caches of the grid and the time grid
    tracemalloc.start()
    try:
        optimize(problem, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ((N + 1) * n * 8) <= bound
