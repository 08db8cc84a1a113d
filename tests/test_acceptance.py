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
from fhn_control.control import CostSpec, optimize
from fhn_control.dynamics import FhnParams, a_apply, i_ion, one_sided_margin
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


@pytest.mark.parametrize(
    "scenario",
    [
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
    ],
    ids=[
        "d1", "d2",
        "d1-stochastic-M2", "d1-stochastic-M30", "d2-stochastic-M2", "d2-stochastic-M30",
    ],
)
def test_criterion_1_gradient_vs_finite_differences(scenario):
    # deterministic mode, T=0.5, dt=1e-3, five random directions: the default
    # 1-D scenario (n=64) and a masked 2-D one with a modal reference, which
    # guards the 2-D transpose of the step.  With noise on (sigma=1, T=0.2,
    # dt=2e-3) the gradient is that of the sampled cost over M paths at
    # common random numbers, whatever M is
    errors = gradient_check(scenario, n_directions=5, h=1e-5, seed=0)
    worst = max(errors)
    ok = _report(
        1, worst <= 1e-4, f"d={scenario.d}: max relative gradient error {worst:.3e} (tol 1e-4)"
    )
    assert ok


def test_criterion_2_duality_identity():
    slope = duality_slope(Scenario(), dts=(4e-3, 2e-3, 1e-3), seed=0)
    slope_ok = abs(slope["slope"] - 1.0) <= 0.3

    # reaction disabled, pure terminal cost: the identity is exact
    g = Grid(1, 64)
    p = FhnParams(linear=True)
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.5, 5000)  # dt = 1e-4
    cost = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=0.0, c0=0.1)
    x0 = StateX(g.constant(0.3), g.zeros())
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    rng = np.random.default_rng(2)
    direction = ControlPath(rng.standard_normal((tg.N + 1,) + g.shape))
    gap = abs(duality_gap(p, g, spec, tg, traj, adj, direction, cost))
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
    g = Grid(1, 16)
    details = []
    all_ok = True
    for i, (a, b) in enumerate([(0.25, 1.0), (0.0, 0.0), (0.8, 0.3)]):
        p = FhnParams(a=a, b=b)
        out = one_sided_margin(p, g, 100000, np.random.default_rng([4, i]))
        setting_ok = out["sampled_margin"] <= out["eta"] + 1e-9
        all_ok = all_ok and setting_ok
        details.append(f"(a={a},b={b}): margin {out['sampled_margin']:.4f} <= eta {out['eta']:.4f}")
    ok = _report(4, all_ok, "; ".join(details) + " over 1e5 pairs each")
    assert ok


def test_criterion_5_forward_solver_fidelity():
    # spatially homogeneous reduction against a high-accuracy ODE solve
    g = Grid(1, 3)
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(1.0, 400000)
    x0 = StateX(g.constant(0.3), g.constant(0.1))
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )

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
        scenario, base_steps=16, levels=3, seed=0, stochastic=True, n_paths=200
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
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.1, 50000)
    cost = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=0.0, c0=0.3)
    x0 = StateX(g.constant(0.4), g.constant(0.1))
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    adj = solve_adjoint_deterministic(p, g, tg, traj, cost)
    m_star = np.array([[0.0, 1.0], [-p.gamma, -p.delta]])
    terminal = cost.dg0(traj[tg.N])
    lam_T = np.array([terminal.v[0], terminal.w[0]])
    worst = 0.0
    for n in (0, tg.N // 3, tg.N // 2):
        s = tg.T - tg.times()[n]
        oracle = expm(s * m_star) @ lam_T
        got = np.array([-adj.p_v[n][0], -adj.p_w[n][0]])
        worst = max(worst, float(np.max(np.abs(got - oracle) / np.abs(oracle))))
    oracle_ok = worst <= 1e-6

    # the ensemble-mean adjoint converges to the deterministic one as sigma -> 0
    g2 = Grid(1, 16)
    p2 = FhnParams()
    spec2 = ActuatorSpec.identity(g2)
    tg2 = TimeGrid(0.2, 100)
    cost2 = CostSpec(grid=g2, gamma=p2.gamma, alpha=2.0, c_g=1.0, c0=0.1)
    x02 = StateX(g2.constant(0.3), g2.zeros())
    u = ControlPath.zero(tg2, g2)
    det_traj = integrate(p2, g2, SpectralCovariance.zero(1), spec2, tg2, x02, u, 0)
    det = solve_adjoint_deterministic(p2, g2, tg2, det_traj, cost2)
    errs = []
    for sigma in (0.2, 0.1, 0.05):
        cov = SpectralCovariance.power_spectrum(8, sigma, sigma)
        trajs = integrate_ensemble(p2, g2, cov, spec2, tg2, x02, u, 0, 100)
        avg = solve_adjoint_regression(p2, g2, tg2, trajs, cost2)
        errs.append(
            float(
                np.max(np.abs(avg.p_v - det.p_v)) + np.max(np.abs(avg.p_w - det.p_w))
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
    baseline = problem.paths(ControlPath.zero(tg, grid), 0)
    base_energy = energy_report(grid, tg, params.gamma, baseline)
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

    sweep = margin_sweep(Scenario(), horizons=(0.25, 0.5, 1.0, 2.0, 4.0), seed=0)
    boundary = next((row["T"] for row in sweep if not row["geometric_decay"]), None)
    t4 = sweep[-1]
    ok = _report(
        7,
        decay_ok and cert_ok and psi_ok,
        f"converged={report.converged}, worst residual ratio {max(late):.3f} (<= 0.9), "
        f"certificate {report.certificate_residual:.2e} (<= 1e-5), Psi nonincreasing={psi_ok}; "
        f"margin sweep: T=4 margin {t4['margin']:.2f} worst ratio {t4['worst_late_ratio']:.2f}, "
        f"geometric decay lost at {'T=%.2g' % boundary if boundary else 'no horizon in sweep'}",
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
    p = FhnParams()
    spec = ActuatorSpec.identity(g)
    tg = TimeGrid(0.5, 500)
    x0 = StateX(g.constant(0.3), g.zeros())
    traj = integrate(
        p, g, SpectralCovariance.zero(1), spec, tg, x0, ControlPath.zero(tg, g), 0
    )
    cost = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=1.0, c0=0.1)
    c = 3.7
    scaled = CostSpec(grid=g, gamma=p.gamma, alpha=2.0, c_g=c * 1.0, c0=c * 0.1)
    adj1 = solve_adjoint_deterministic(p, g, tg, traj, cost)
    adj2 = solve_adjoint_deterministic(p, g, tg, traj, scaled)
    num = float(np.max(np.abs(adj2.p_v - c * adj1.p_v)) + np.max(np.abs(adj2.p_w - c * adj1.p_w)))
    den = float(np.max(np.abs(adj2.p_v)) + np.max(np.abs(adj2.p_w)))
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
