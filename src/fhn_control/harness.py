"""Run orchestration: commands, artifacts, manifests, verification suites.

Every command reads the validated scenario's one built `problem`, writes
its artifacts plus a JSON manifest into its output directory, and returns
a RunRecord.  Tables are CSV; field paths over space and time are binary
`.npz`.  The manifest echoes the full scenario (defaults included), the
scenario digest, the library versions, and the artifact format tags,
which is enough to reproduce the directory bit for bit.
"""

from __future__ import annotations

import dataclasses
import importlib.metadata
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import (
    ADJOINT_SWEEP,
    duality_gap,
    solve_adjoint_deterministic,
    solve_adjoint_regression,
)
from .control import (
    contraction_margin,
    gradient,
    optimize,
    psi_estimate,
)
from .dynamics import FhnParams, a_apply, one_sided_margin
from .errors import ConfigurationError
from .forward import (
    CONTROL_FORMAT,
    ControlPath,
    SNAPSHOT_FORMAT,
    TimeGrid,
    actuator_adjoint,
    actuator_apply,
    energy_report,
    implicit_solve,
    implicit_solve_star,
    integrate,
    save_control,
    save_snapshot,
    u_inner,
    u_norm,
)
from .grid import (
    HELMHOLTZ_SOLVER,
    StateX,
    eigenmode_matrix,
    inner_h,
    inner_l2,
    mode_eigenvalue,
    neumann_eigenmode,
    neumann_laplacian,
    norm_h_sq,
    norm_l2_sq,
)
from .noise import SpectralCovariance, sample_path, trace_q
from .scenario import Scenario, emit_scenario

COMMANDS = (
    "simulate",
    "optimize",
    "verify-gradient",
    "verify-invariants",
    "convergence-study",
)

HISTORY_CSV_FORMAT = "fhn-optimize-history-csv-v1"
ENERGY_CSV_FORMAT = "fhn-energy-csv-v1"
REPORT_CSV_FORMAT = "fhn-report-csv-v1"


@dataclass
class RunRecord:
    digest: str
    command: str
    artifacts: list = field(default_factory=list)
    wall_time: float = 0.0
    summary: dict = field(default_factory=dict)
    passed: bool = True


def _fmt(x) -> str:
    # np.float64 subclasses float, and numpy 2 reprs it as np.float64(...)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list, rows) -> None:
    """Write a header and an iterable of rows; rows may be generated one
    at a time, so a large table is never held in memory whole."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_manifest(
    out: Path, scenario: Scenario, command: str, seed: int, artifacts: list, summary: dict
) -> Path:
    manifest = {
        "command": command,
        "seed": seed,
        "scenario": asdict(scenario),
        "scenario_digest": scenario.digest(),
        "scenario_text": emit_scenario(scenario),
        "versions": {
            "fhn_control": __version__,
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
        },
        "formats": {
            "history": HISTORY_CSV_FORMAT,
            "control": CONTROL_FORMAT,
            "energy": ENERGY_CSV_FORMAT,
            "report": REPORT_CSV_FORMAT,
            "snapshot": SNAPSHOT_FORMAT,
            "helmholtz": HELMHOLTZ_SOLVER,
            "adjoint": ADJOINT_SWEEP,
        },
        "artifacts": [str(a) for a in artifacts],
        "summary": summary,
    }
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


# ---------------------------------------------------------------- commands


def _cmd_simulate(scenario: Scenario, out: Path, seed: int) -> tuple:
    problem = scenario.problem
    grid, timegrid, n_paths = problem.grid, problem.timegrid, problem.n_paths
    ens = problem.paths(ControlPath.zero(timegrid, grid), seed)
    artifacts = []
    snap = out / "trajectory_path0.npz"
    save_snapshot(snap, ens[:, 0], seed, 0)
    artifacts.append(snap)
    report = energy_report(grid, timegrid, problem.params.gamma, ens)
    energy_csv = out / "energy.csv"
    _write_csv(
        energy_csv,
        ["path", "sup_h_sq", "int_v_sq"],
        [
            (p, report["sup_h_sq"][p], report["int_v_sq"][p])
            for p in range(n_paths)
        ],
    )
    artifacts.append(energy_csv)
    summary = {
        "paths": n_paths,
        "mean_sup_h_sq": report["mean_sup_h_sq"],
        "mean_int_v_sq": report["mean_int_v_sq"],
    }
    return artifacts, summary, True


def _cmd_optimize(scenario: Scenario, out: Path, seed: int) -> tuple:
    problem = scenario.problem
    report = optimize(
        problem, seed=seed, tol=scenario.tol, max_iters=scenario.max_iters,
        eps0=scenario.eps0, use_theta=scenario.use_theta,
    )
    artifacts = []
    margin = report.margin["margin"]
    history_csv = out / "history.csv"
    _write_csv(
        history_csv,
        ["iteration", "psi", "residual", "eps", "accepted", "tau", "margin"],
        [
            (
                it["iter"],
                it["psi"],
                it["residual"],
                it["eps"],
                int(it["accepted"]),
                it["tau"],
                margin,
            )
            for it in report.iterations
        ],
    )
    artifacts.append(history_csv)
    control_npz = out / "control.npz"
    save_control(control_npz, problem.timegrid, report.u_star)
    artifacts.append(control_npz)
    snap = out / "state_path0.npz"
    save_snapshot(snap, report.ensemble[:, 0], seed, 0)
    artifacts.append(snap)
    summary = {
        "converged": report.converged,
        "iterations": len(report.iterations),
        "psi_final": report.psi_final,
        "certificate_residual": report.certificate_residual,
        "margin": report.margin,
        "control_norm": u_norm(problem.grid, problem.timegrid, report.u_star),
    }
    return artifacts, summary, True


def gradient_check(
    scenario: Scenario, n_directions: int = 5, h: float = 1.0e-5, seed: int = 0
) -> list:
    """Relative errors between the gradient the optimizer uses and central
    finite differences of the sampled cost, over random unit directions.
    Every evaluation integrates the scenario's whole ensemble on the same
    noise streams, so on a stochastic scenario this checks the gradient of
    the mean cost over those paths."""
    problem = scenario.problem
    params, grid, timegrid, cost = problem.params, problem.grid, problem.timegrid, problem.cost
    rng = np.random.default_rng([seed, 2024])
    u = ControlPath(0.3 * rng.standard_normal((timegrid.N + 1,) + grid.shape))
    adj = solve_adjoint_regression(params, grid, timegrid, problem.paths(u, seed), cost)
    grad = gradient(params, grid, problem.spec, timegrid, cost, u, adj)
    errors = []
    for _ in range(n_directions):
        v = ControlPath(rng.standard_normal((timegrid.N + 1,) + grid.shape))
        v = (1.0 / u_norm(grid, timegrid, v)) * v
        plus, _ = psi_estimate(problem, u + h * v, seed)
        minus, _ = psi_estimate(problem, u - h * v, seed)
        fd = (plus - minus) / (2.0 * h)
        ip = u_inner(grid, timegrid, grad, v)
        errors.append(abs(fd - ip) / max(abs(ip), 1.0e-12))
    return errors


def _cmd_verify_gradient(scenario: Scenario, out: Path, seed: int) -> tuple:
    errors = gradient_check(scenario, seed=seed)
    passed = max(errors) <= 1.0e-4
    report_csv = out / "gradient_check.csv"
    _write_csv(
        report_csv,
        ["direction", "relative_error"],
        [(i, e) for i, e in enumerate(errors)],
    )
    return [report_csv], {"max_relative_error": max(errors), "passed": passed}, passed


# ------------------------------------------------------- invariant battery


def invariant_checks(scenario: Scenario, seed: int = 0) -> list:
    """Fast cross-module invariant battery; returns (name, ok, detail)."""
    problem = scenario.problem
    params, grid, spec, timegrid = problem.params, problem.grid, problem.spec, problem.timegrid
    cost, x0 = problem.cost, problem.x0
    rng = np.random.default_rng([seed, 99])
    checks = []

    def record(name, ok, detail):
        checks.append((name, bool(ok), detail))

    # Laplacian structure
    u1 = rng.standard_normal(grid.shape)
    u2 = rng.standard_normal(grid.shape)
    lhs = inner_l2(grid, neumann_laplacian(grid, u1), u2)
    rhs = inner_l2(grid, u1, neumann_laplacian(grid, u2))
    scale = abs(lhs) + abs(rhs) + 1.0
    record("laplacian_self_adjoint", abs(lhs - rhs) <= 1.0e-12 * scale, f"defect={abs(lhs - rhs):.2e}")
    quad = inner_l2(grid, neumann_laplacian(grid, u1), u1)
    record("laplacian_negative_semidefinite", quad <= 1.0e-10 * (1 + norm_l2_sq(grid, u1)), f"<Lu,u>={quad:.2e}")
    kmax = min(8, grid.max_mode_freq() + 1)
    E = eigenmode_matrix(grid, kmax)
    gram = E.T @ (grid.weights().ravel()[:, None] * E)
    record("eigenmode_orthonormal", np.max(np.abs(gram - np.eye(kmax))) <= 1.0e-10, f"defect={np.max(np.abs(gram - np.eye(kmax))):.2e}")
    ok = True
    worst = 0.0
    for k in range(1, kmax + 1):
        ek = neumann_eigenmode(grid, k)
        resid = neumann_laplacian(grid, ek) - mode_eigenvalue(grid, k) * ek
        defect = float(np.max(np.abs(resid))) / (1.0 + abs(mode_eigenvalue(grid, k)))
        worst = max(worst, defect)
        ok = ok and defect <= 1.0e-11
    record("eigen_identity", ok, f"defect={worst:.2e}")

    # operator structure in the weighted inner product
    worst = 0.0
    for _ in range(100):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        ax = a_apply(params, grid, X)
        expected = params.gamma * inner_l2(grid, neumann_laplacian(grid, X.v), X.v) - params.delta * norm_l2_sq(grid, X.w)
        defect = abs(inner_h(grid, params.gamma, ax, X) - expected) / (1.0 + norm_h_sq(grid, params.gamma, X))
        worst = max(worst, defect)
    record("weighted_skew_cancellation", worst <= 1.0e-12, f"defect={worst:.2e}")
    ok = True
    for _ in range(100):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        bound = -params.delta * norm_l2_sq(grid, X.w)
        ok = ok and inner_h(grid, params.gamma, a_apply(params, grid, X), X) <= bound + 1.0e-10
    record("operator_dissipative", ok, "⟨AX,X⟩ ≤ -delta|w|^2")

    margin = one_sided_margin(params, grid, 10000, np.random.default_rng([seed, 5]))
    record(
        "one_sided_lipschitz",
        margin["sampled_margin"] <= margin["eta"] + 1.0e-9,
        f"margin={margin['sampled_margin']:.6f}, eta={margin['eta']:.6f}",
    )

    # actuator and solver adjointness
    worst = 0.0
    for _ in range(20):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        uf = rng.standard_normal(grid.shape)
        lhs = inner_l2(grid, actuator_adjoint(spec, grid, params.gamma, X.v), uf)
        rhs = inner_h(grid, params.gamma, X, actuator_apply(spec, grid, uf))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    record("actuator_adjointness", worst <= 1.0e-12, f"defect={worst:.2e}")
    dt = timegrid.dt
    worst = 0.0
    for _ in range(20):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        Y = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        lhs = inner_h(grid, params.gamma, implicit_solve(params, grid, dt, X), Y)
        rhs = inner_h(grid, params.gamma, X, implicit_solve_star(params, grid, dt, Y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    record("implicit_solver_adjointness", worst <= 1.0e-11, f"defect={worst:.2e}")

    # forward equilibrium + determinism
    params0 = FhnParams(params.a, params.b, params.gamma, params.delta, 0.0, params.linear)
    cov0 = SpectralCovariance.zero(1)
    short = TimeGrid(10 * dt, 10)
    u0 = ControlPath.zero(short, grid)
    zero_traj = integrate(params0, grid, cov0, spec, short, StateX.zero(grid), u0, seed)
    record(
        "equilibrium_preserved",
        float(np.max(np.abs(zero_traj.v)) + np.max(np.abs(zero_traj.w))) == 0.0,
        "zero state fixed by the step",
    )
    cov_noisy = SpectralCovariance.power_spectrum(min(scenario.modes, 8), 0.1, 0.1)
    t1 = integrate(params, grid, cov_noisy, spec, short, x0, u0, seed)
    t2 = integrate(params, grid, cov_noisy, spec, short, x0, u0, seed)
    record(
        "integration_deterministic",
        np.array_equal(t1.v, t2.v) and np.array_equal(t1.w, t2.w),
        "bit-identical replay",
    )

    # noise structure
    traces = [trace_q(SpectralCovariance.power_spectrum(K, 0.1, 0.1), 1) for K in (4, 8, 16)]
    record("trace_monotone_in_truncation", traces[0] <= traces[1] <= traces[2], f"traces={traces}")

    # adjoint structure: cost scaling and linear-mode duality exactness
    u0_full = ControlPath.zero(timegrid, grid)
    base_traj = integrate(params, grid, cov0, spec, timegrid, x0, u0_full, seed)
    adj1 = solve_adjoint_deterministic(params, grid, timegrid, base_traj, cost)
    cost_scaled = dataclasses.replace(cost, c_g=3.7 * cost.c_g, c0=3.7 * cost.c0)
    adj2 = solve_adjoint_deterministic(params, grid, timegrid, base_traj, cost_scaled)
    num = float(np.max(np.abs(adj2.p_v - 3.7 * adj1.p_v)) + np.max(np.abs(adj2.p_w - 3.7 * adj1.p_w)))
    den = float(np.max(np.abs(adj2.p_v)) + np.max(np.abs(adj2.p_w)) + 1.0e-30)
    record("cost_scaling_equivariance", num / den <= 1.0e-10, f"relative deviation={num / den:.2e}")

    lin_params = FhnParams(params.a, params.b, params.gamma, params.delta, 0.0, True)
    lin_cost = dataclasses.replace(cost, c_g=0.0, c0=max(cost.c0, 0.1))
    lin_traj = integrate(lin_params, grid, cov0, spec, timegrid, x0, u0_full, seed)
    lin_adj = solve_adjoint_deterministic(lin_params, grid, timegrid, lin_traj, lin_cost)
    direction = ControlPath(rng.standard_normal((timegrid.N + 1,) + grid.shape))
    gap = duality_gap(lin_params, grid, spec, timegrid, lin_traj, lin_adj, direction, lin_cost)
    record("duality_exact_linear", abs(gap) <= 1.0e-8, f"gap={gap:.2e}")

    return checks


def _cmd_verify_invariants(scenario: Scenario, out: Path, seed: int) -> tuple:
    checks = invariant_checks(scenario, seed)
    report_csv = out / "invariants.csv"
    _write_csv(
        report_csv,
        ["name", "passed", "detail"],
        [(name, int(ok), detail.replace(",", ";")) for name, ok, detail in checks],
    )
    failed = [name for name, ok, _ in checks if not ok]
    summary = {
        "total": len(checks),
        "failed": failed,
        "first_failure": failed[0] if failed else "",
    }
    return [report_csv], summary, not failed


# --------------------------------------------------------- convergence


def self_convergence_rate(
    scenario: Scenario, base_steps: int, levels: int = 3, seed: int = 0, stochastic: bool = False, n_paths: int = 1
) -> dict:
    """Coupled dt-refinement study; returns per-level errors and the rate.

    Stochastic runs share one Brownian path per sample across levels by
    aggregating fine-level increments.
    """
    problem = scenario.problem
    params, grid, spec, x0 = problem.params, problem.grid, problem.spec, problem.x0
    T = scenario.horizon
    finest = base_steps * 2 ** (levels - 1) * 2
    errors = [0.0] * levels
    cov = SpectralCovariance.zero(1)
    if stochastic:
        cov = SpectralCovariance.power_spectrum(scenario.modes, scenario.sigma1, scenario.sigma2)
    for p in range(n_paths):
        if stochastic:
            fine = sample_path(cov, grid, TimeGrid(T, finest), seed, p)
        finals = []
        for lev in range(levels + 1):
            steps = base_steps * 2**lev
            tg = TimeGrid(T, steps)
            u = ControlPath.zero(tg, grid)
            agg = None
            if stochastic:
                ratio = finest // steps
                agg = StateX(
                    fine.v.reshape(steps, ratio, *grid.shape).sum(axis=1),
                    fine.w.reshape(steps, ratio, *grid.shape).sum(axis=1),
                )
            traj = integrate(params, grid, cov, spec, tg, x0, u, seed, p, increments=agg)
            finals.append(traj[tg.N])
        for lev in range(levels):
            diff = finals[lev] - finals[lev + 1]
            errors[lev] += norm_h_sq(grid, params.gamma, diff) ** 0.5 / n_paths
    rates = [float(np.log2(errors[i] / errors[i + 1])) for i in range(levels - 1)]
    return {"errors": errors, "rates": rates, "rate": float(np.mean(rates))}


def _smooth_direction(grid, tg: TimeGrid) -> ControlPath:
    """Fixed smooth control perturbation, resolution-independent so gap
    values at different dt measure the same continuous direction."""
    profile = neumann_eigenmode(grid, 1) + 0.5 * neumann_eigenmode(grid, min(2, grid.num_nodes))
    t = tg.times() / tg.T
    envelope = 1.0 + np.cos(2.0 * np.pi * t)
    return ControlPath(np.multiply.outer(envelope, profile))


def duality_slope(scenario: Scenario, dts: tuple = (4.0e-3, 2.0e-3, 1.0e-3), seed: int = 0) -> dict:
    """Log-log slope of the deterministic duality gap in dt."""
    problem = scenario.problem
    params, grid, spec, cost = problem.params, problem.grid, problem.spec, problem.cost
    cov = SpectralCovariance.zero(1)
    gaps = []
    for dt in dts:
        steps = int(round(scenario.horizon / dt))
        tg = TimeGrid(scenario.horizon, steps)
        u = ControlPath.zero(tg, grid)
        traj = integrate(params, grid, cov, spec, tg, problem.x0, u, seed)
        adj = solve_adjoint_deterministic(params, grid, tg, traj, cost)
        direction = _smooth_direction(grid, tg)
        gaps.append(abs(duality_gap(params, grid, spec, tg, traj, adj, direction, cost)))
    slope = float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(gaps)), 1)[0])
    return {"dts": list(dts), "gaps": gaps, "slope": slope}


def margin_sweep(
    scenario: Scenario, horizons: tuple = (0.25, 0.5, 1.0, 2.0, 4.0), dt: float = 4.0e-3, seed: int = 0, max_iters: int = 10
) -> list:
    """Residual-decay survey across horizons at fixed cost weights.

    Reports, per horizon, the margin and whether geometric decay (ratio
    <= 0.9 between consecutive accepted residuals after the third
    iteration) is observed.  Diagnostic only.
    """
    noiseless = dataclasses.replace(scenario.problem, cov=SpectralCovariance.zero(1))
    rows = []
    for T in horizons:
        tg = TimeGrid(T, max(int(round(T / dt)), 2))
        report = optimize(
            dataclasses.replace(noiseless, timegrid=tg),
            seed=seed, tol=1.0e-12, max_iters=max_iters, eps0=scenario.eps0,
            use_theta=scenario.use_theta,
        )
        res = [r for r in report.residual_history if r > 0]
        ratios = [res[i + 1] / res[i] for i in range(len(res) - 1)]
        late = ratios[2:] if len(ratios) > 2 else ratios
        geometric = bool(late) and max(late) <= 0.9
        rows.append(
            {
                "T": T,
                "margin": contraction_margin(noiseless.cost, T)["margin"],
                "geometric_decay": geometric,
                "worst_late_ratio": max(late) if late else float("nan"),
                "residuals": res,
            }
        )
    return rows


def _cmd_convergence_study(scenario: Scenario, out: Path, seed: int) -> tuple:
    det = self_convergence_rate(scenario, base_steps=32, seed=seed)
    sto = self_convergence_rate(
        scenario, base_steps=16, seed=seed, stochastic=True, n_paths=24
    )
    slope = duality_slope(scenario, seed=seed)
    sweep = margin_sweep(scenario, seed=seed)
    artifacts = []
    conv_csv = out / "convergence.csv"
    _write_csv(
        conv_csv,
        ["study", "level", "error", "rate"],
        [("deterministic", i, e, det["rate"]) for i, e in enumerate(det["errors"])]
        + [("stochastic", i, e, sto["rate"]) for i, e in enumerate(sto["errors"])],
    )
    artifacts.append(conv_csv)
    gap_csv = out / "duality_gap.csv"
    _write_csv(
        gap_csv,
        ["dt", "gap", "slope"],
        [(dt, g, slope["slope"]) for dt, g in zip(slope["dts"], slope["gaps"])],
    )
    artifacts.append(gap_csv)
    sweep_csv = out / "margin_sweep.csv"
    _write_csv(
        sweep_csv,
        ["T", "margin", "geometric_decay", "worst_late_ratio"],
        [
            (row["T"], row["margin"], int(row["geometric_decay"]), row["worst_late_ratio"])
            for row in sweep
        ],
    )
    artifacts.append(sweep_csv)
    summary = {
        "deterministic_rate": det["rate"],
        "stochastic_rate": sto["rate"],
        "duality_slope": slope["slope"],
        "margin_boundary": next(
            (row["margin"] for row in sweep if not row["geometric_decay"]), None
        ),
    }
    passed = det["rate"] >= 0.9 and sto["rate"] >= 0.4 and abs(slope["slope"] - 1.0) <= 0.3
    return artifacts, summary, passed


_DISPATCH = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "verify-gradient": _cmd_verify_gradient,
    "verify-invariants": _cmd_verify_invariants,
    "convergence-study": _cmd_convergence_study,
}


def run(scenario: Scenario, command: str, out_dir: str, seed: int | None = None) -> RunRecord:
    """Execute one command; artifacts land in out_dir, manifest included."""
    if command not in _DISPATCH:
        raise ConfigurationError(f"unknown command {command!r}; valid: {COMMANDS}")
    scenario.validate()
    if seed is not None and seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    effective_seed = scenario.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    artifacts, summary, passed = _DISPATCH[command](scenario, out, effective_seed)
    wall = time.perf_counter() - start
    manifest = _write_manifest(out, scenario, command, effective_seed, artifacts, summary)
    return RunRecord(
        digest=scenario.digest(),
        command=command,
        artifacts=[str(a) for a in artifacts] + [str(manifest)],
        wall_time=wall,
        summary=summary,
        passed=passed,
    )
