"""Acceptance battery: ten criteria, one pass/fail line each.

Each test prints `[criterion N] PASS/FAIL: detail` before asserting, so a
failed run still reports every criterion it reached.  Run with `-s` (or
read captured output) to see the lines.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fhn_control.adjoint import duality_gap, solve_adjoint_deterministic, solve_adjoint_regression
from fhn_control.control import CostSpec, Problem, optimize
from fhn_control.dynamics import FhnParams, a_apply, i_ion, one_sided_defect
from fhn_control.forward import (
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    energy_report,
    integrate,
    integrate_ensemble,
)
from fhn_control.grid import (
    Grid,
    StateX,
    inner_h,
    inner_l2,
    neumann_eigenmode,
    neumann_laplacian,
    norm_h_sq,
    norm_l2_sq,
)
from fhn_control.harness import (
    duality_slope,
    gradient_check,
    margin_sweep,
    run,
    self_convergence_rate,
)
from fhn_control.noise import SpectralCovariance
from fhn_control.scenario import Scenario


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _noise_free(grid, params, timegrid, cost, x0):
    """A noise-free problem actuated on the whole domain, and its one path
    under the zero control."""
    problem = Problem(
        params, grid, SpectralCovariance.zero(1), ActuatorSpec.identity(grid), timegrid, cost, x0
    )
    return problem, integrate_ensemble(problem, ControlPath.zero(timegrid, grid), 0)[:, 0]


def _callable_ref_problem(d, n):
    """A problem built in code, with no scenario behind it: sigma = 1 on
    eight modes, M = 7 paths, the left-half mask and a reference that moves
    in time, which no scenario field can express."""
    g = Grid(d, n)
    tg = TimeGrid(0.2, 100)
    half = (g.axis_coords() < g.ell / 2.0).astype(float)
    mask = half if d == 1 else np.multiply.outer(half, np.ones(n))
    profile = neumann_eigenmode(g, 2)

    def x_ref(k):
        return StateX(0.3 * np.cos(2.0 * np.pi * k / tg.N) * profile, g.zeros())

    return Problem(
        FhnParams(), g, SpectralCovariance.power_spectrum(8, 1.0, 1.0), ActuatorSpec(mask), tg,
        CostSpec(alpha=2.0, c_g=1.0, c0=0.1, x_ref=x_ref), StateX(g.constant(0.3), g.zeros()),
        ensemble=7,
    )


@pytest.mark.parametrize(
    "problem",
    [
        scenario.problem
        for scenario in [
            Scenario(),
            Scenario(d=2, n=12, mask="left_half", x_ref="modes:2:0.3,3:-0.2"),
        ]
        + [
            Scenario(
                d=d, n=n, modes=8, horizon=0.2, steps=100, mode="stochastic",
                sigma1=1.0, sigma2=1.0, ensemble=M,
            )
            for d, n in ((1, 16), (2, 8))
            for M in (2, 30)
        ]
        + [
            Scenario(gamma=1.3, delta=0.6),
            Scenario(
                d=2, n=12, mask="left_half", x_ref="modes:2:0.3,3:-0.2", gamma=1.3, delta=0.6
            ),
            Scenario(
                n=16, modes=8, horizon=0.2, steps=100, mode="stochastic", sigma1=1.0,
                sigma2=1.0, ensemble=2, gamma=1.3, delta=0.6,
            ),
        ]
    ]
    + [_callable_ref_problem(1, 16), _callable_ref_problem(2, 8)],
    ids=[
        "d1", "d2",
        "d1-stochastic-M2", "d1-stochastic-M30", "d2-stochastic-M2", "d2-stochastic-M30",
        "d1-gamma1.3", "d2-gamma1.3", "d1-stochastic-M2-gamma1.3",
        "d1-callable-ref", "d2-callable-ref",
    ],
)
def test_criterion_1_gradient_vs_finite_differences(problem):
    # deterministic mode, T=0.5, dt=1e-3, five random directions: the default
    # 1-D scenario (n=64) and a masked 2-D one with a modal reference, which
    # guards the 2-D transpose of the step.  With noise on (sigma=1, T=0.2,
    # dt=2e-3) the gradient is that of the sampled cost over M paths at
    # common random numbers, whatever M is.  The gamma=1.3 cases differ from
    # FhnParams' default gamma, so a gamma read from anywhere but the
    # scenario's one problem would show.  The callable-ref cases are built in
    # code (sigma=1, M=7, left-half mask) and track a reference that moves
    # in time
    errors = gradient_check(problem, seed=0)
    worst = max(errors)
    ok = _report(
        1, worst <= 1e-4, f"d={problem.grid.d}: max relative gradient error {worst:.3e} (tol 1e-4)"
    )
    assert ok


def test_criterion_2_duality_identity():
    slope = duality_slope(Scenario().problem)
    slope_ok = abs(slope["slope"] - 1.0) <= 0.3

    # reaction disabled, pure terminal cost: the identity is exact
    g = Grid(1, 64)
    tg = TimeGrid(0.5, 5000)  # dt = 1e-4
    problem, traj = _noise_free(
        g, FhnParams(linear=True), tg, CostSpec(alpha=2.0, c_g=0.0, c0=0.1),
        StateX(g.constant(0.3), g.zeros()),
    )
    rng = np.random.default_rng(2)
    direction = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    # the gap reads an ensemble: here the one path with its path axis
    gap = abs(duality_gap(problem, traj[:, None], direction))
    gap_ok = gap <= 1e-8
    ok = _report(
        2,
        slope_ok and gap_ok,
        f"gap slope {slope['slope']:.3f} (1 +/- 0.3), linear gap {gap:.2e} at dt=1e-4 (tol 1e-8)",
    )
    assert ok


def test_criterion_3_weighted_skew_cancellation():
    g = Grid(1, 64)
    p = FhnParams()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        X = StateX(rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        got = inner_h(g, p.gamma, a_apply(p, g, X), X)
        expected = p.gamma * inner_l2(g, neumann_laplacian(g, X.v), X.v) - p.delta * norm_l2_sq(g, X.w)
        worst = max(worst, abs(got - expected) / (1.0 + norm_h_sq(g, p.gamma, X)))
    ok = _report(3, worst <= 1e-12, f"max normalized defect {worst:.2e} over 1000 states (tol 1e-12)")
    assert ok


def test_criterion_4_one_sided_lipschitz():
    # exact, not sampled: the ratio where eta is attained, and f_apply's
    # divided difference against the quadratic whose maximum is eta
    g = Grid(1, 16)
    details = []
    all_ok = True
    for a, b in [(0.25, 1.0), (0.0, 0.0), (0.8, 0.3)]:
        out = one_sided_defect(FhnParams(a=a, b=b), g)
        all_ok = all_ok and out["passed"]
        details.append(
            f"(a={a},b={b}): eta {out['eta']:.4f}, pair defect {out['pair']:.1e}, "
            f"lattice defect {out['lattice']:.1e}"
        )
    ok = _report(4, all_ok, "; ".join(details) + " (each held to its roundoff bound)")
    assert ok


def test_criterion_5_forward_solver_fidelity():
    # spatially homogeneous reduction against a high-accuracy ODE solve
    g = Grid(1, 3)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(1.0, 400000)
    x0 = StateX(g.constant(0.3), g.constant(0.1))
    traj = integrate(p, g, spec, tg, x0, ControlPath.zero(tg, g), None)

    def rhs(_, y):
        v, w = y
        return [-i_ion(p, v) - w, p.gamma * v - p.delta * w]

    sol = solve_ivp(rhs, (0, 1.0), [0.3, 0.1], rtol=1e-12, atol=1e-13)
    ref = np.array([sol.y[0, -1], sol.y[1, -1]])
    got = np.array([traj.v[-1][0], traj.w[-1][0]])
    rel = float(np.max(np.abs(got - ref) / np.abs(ref)))
    oracle_ok = rel <= 1e-6

    scenario = dataclasses.replace(
        Scenario(), n=16, modes=8, sigma1=0.1, sigma2=0.1, horizon=0.5
    )
    conv = self_convergence_rate(
        dataclasses.replace(scenario, mode="stochastic", ensemble=200).problem,
        base_steps=16, seed=0,
    )
    rate_ok = conv["rate"] >= 0.4
    ok = _report(
        5,
        oracle_ok and rate_ok,
        f"ODE oracle rel error {rel:.2e} at T=1 (tol 1e-6); "
        f"strong self-convergence rate {conv['rate']:.2f} over 200 paths (>= 0.4)",
    )
    assert ok


def test_criterion_6_adjoint_oracles():
    # homogeneous linear reduction: backward sweep against expm
    g = Grid(1, 3)
    p = FhnParams(linear=True)
    tg = TimeGrid(0.1, 50000)
    cost = CostSpec(alpha=2.0, c_g=0.0, c0=0.3)
    problem, traj = _noise_free(g, p, tg, cost, StateX(g.constant(0.4), g.constant(0.1)))
    adj = solve_adjoint_deterministic(problem, traj)
    m_star = np.array([[0.0, 1.0], [-p.gamma, -p.delta]])
    terminal = cost.dg0(traj[tg.N])
    lam_T = np.array([terminal.v[0], terminal.w[0]])
    worst = 0.0
    for n in (0, tg.N // 3, tg.N // 2):
        s = tg.T - tg.times()[n]
        oracle = expm(s * m_star) @ lam_T
        got = np.array([-adj.v[n][0], -adj.w[n][0]])
        worst = max(worst, float(np.max(np.abs(got - oracle) / np.abs(oracle))))
    oracle_ok = worst <= 1e-6

    # the ensemble-mean adjoint converges to the deterministic one as sigma -> 0
    g2 = Grid(1, 16)
    problem2, det_traj = _noise_free(
        g2, FhnParams(), TimeGrid(0.2, 100), CostSpec(alpha=2.0, c_g=1.0, c0=0.1),
        StateX(g2.constant(0.3), g2.zeros()),
    )
    det = solve_adjoint_deterministic(problem2, det_traj)
    errs = []
    for sigma in (0.2, 0.1, 0.05):
        noisy = dataclasses.replace(
            problem2, cov=SpectralCovariance.power_spectrum(8, sigma, sigma), ensemble=100
        )
        trajs = integrate_ensemble(noisy, ControlPath.zero(noisy.timegrid, g2), 0)
        avg = solve_adjoint_regression(noisy, trajs)
        errs.append(
            float(
                np.max(np.abs(avg.v - det.v)) + np.max(np.abs(avg.w - det.w))
            )
        )
    mono_ok = errs[0] > errs[1] > errs[2]
    ok = _report(
        6,
        oracle_ok and mono_ok,
        f"matrix-exponential oracle rel error {worst:.2e} (tol 1e-6); "
        f"ensemble-mean adjoint error over sigma {{0.2,0.1,0.05}}: "
        + ", ".join(f"{e:.2e}" for e in errs)
        + (" monotone" if mono_ok else " NOT monotone"),
    )
    assert ok


@pytest.fixture(scope="module")
def short_horizon_report():
    # criterion-7 scenario: alpha=2, c0=0.1, T=0.5, margin 0.35, with noise
    problem = dataclasses.replace(Scenario(), mode="stochastic", ensemble=30).problem
    params, grid, tg, x0 = problem.params, problem.grid, problem.timegrid, problem.x0
    report = optimize(problem, seed=0, tol=1e-6, max_iters=20)
    baseline = integrate_ensemble(problem, ControlPath.zero(tg, grid), 0)
    base_energy = energy_report(problem, baseline)
    x0_sq = norm_h_sq(grid, params.gamma, x0)
    return report, base_energy, x0_sq


def test_criterion_7_optimizer_certificate(short_horizon_report):
    report, _, _ = short_horizon_report
    res = report.residual_history
    ratios = [res[i + 1] / res[i] for i in range(len(res) - 1) if res[i] > 0]
    late = ratios[2:] if len(ratios) > 2 else ratios
    decay_ok = bool(late) and max(late) <= 0.9
    cert_ok = report.certificate_residual <= 10 * 1e-6
    psi = report.psi_history
    psi_ok = all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(psi, psi[1:]))

    scenario = Scenario()
    sweep = margin_sweep(scenario.problem, scenario.eps0)
    ok = _report(
        7,
        decay_ok and cert_ok and psi_ok,
        f"converged={report.converged}, worst residual ratio {max(late):.3f} (<= 0.9), "
        f"certificate {report.certificate_residual:.2e} (<= 1e-5), Psi nonincreasing={psi_ok}; "
        "margin sweep (T: margin, worst late ratio): "
        + ", ".join(
            f"{row['T']:g}: {row['margin']:.3g}, {row['worst_late_ratio']:.2f}" for row in sweep
        ),
    )
    assert ok


def test_criterion_8_energy_bound(short_horizon_report):
    report, base_energy, x0_sq = short_horizon_report
    # C fitted on the uncontrolled baseline of the same scenario and seed
    C = base_energy["mean_sup_h_sq"] / (1.0 + x0_sq)
    bound = 1.5 * C * (1.0 + x0_sq)
    iterate_energies = [it["mean_sup_h_sq"] for it in report.iterations]
    worst = max(iterate_energies)
    ok = _report(
        8,
        worst <= bound,
        f"sup energy over iterates {worst:.4e} <= 1.5*C*(1+|x0|^2) = {bound:.4e}",
    )
    assert ok


def test_criterion_9_cost_scaling_equivariance():
    g = Grid(1, 64)
    problem, traj = _noise_free(
        g, FhnParams(), TimeGrid(0.5, 500), CostSpec(alpha=2.0, c_g=1.0, c0=0.1),
        StateX(g.constant(0.3), g.zeros()),
    )
    c = 3.7
    scaled = CostSpec(alpha=2.0, c_g=c * 1.0, c0=c * 0.1)
    adj1 = solve_adjoint_deterministic(problem, traj)
    adj2 = solve_adjoint_deterministic(dataclasses.replace(problem, cost=scaled), traj)
    num = float(np.max(np.abs(adj2.v - c * adj1.v)) + np.max(np.abs(adj2.w - c * adj1.w)))
    den = float(np.max(np.abs(adj2.v)) + np.max(np.abs(adj2.w)))
    rel = num / den
    ok = _report(9, rel <= 1e-10, f"adjoint scaling (c=3.7) relative deviation {rel:.2e} (tol 1e-10)")
    assert ok


def test_criterion_10_reproducibility(tmp_path):
    scenario = Scenario(
        n=16, modes=8, steps=50, horizon=0.1, mode="stochastic", ensemble=8,
        tol=1e-5, max_iters=10,
    )
    identical, listed = True, True
    names = []
    for command in ("simulate", "optimize"):
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        run(scenario, command, a)
        run(scenario, command, b)
        # every artifact but the manifest, which names its own directory
        files = sorted(f.name for f in a.iterdir() if f.name != "manifest.json")
        for out in (a, b):
            manifest = json.loads((out / "manifest.json").read_text())
            listed = listed and sorted(Path(x).name for x in manifest["artifacts"]) == files
        identical = identical and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in files
        )
        names += [f"{command}/{n}" for n in files]
    ok = _report(
        10,
        identical and listed,
        f"rerun artifacts {names} bit-identical={identical}, manifest lists them={listed}",
    )
    assert ok
