"""Run orchestration: commands, artifacts, manifests, verification suites.

`COMMANDS` is the one command table: `run` dispatches on it and the CLI
builds its subcommands from it, with each command's docstring as its help.
Every command reads the validated scenario's one built `problem`, writes
its artifacts plus a JSON manifest into its output directory, and returns
a RunRecord.  Tables are CSV; field paths over space and time are binary
`.npz`.  The manifest echoes the full scenario (defaults included), the
scenario digest, the library versions, and the artifact format tags,
which is enough to reproduce the directory bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import ADJOINT_SWEEP, control_signal, duality_gap, solve_adjoint_regression
from .control import (
    Problem,
    contraction_margin,
    gradient,
    optimize,
    psi_estimate,
)
from .dynamics import a_apply, one_sided_defect
from .errors import ConfigurationError
from .forward import (
    CONTROL_FORMAT,
    ControlPath,
    SNAPSHOT_FORMAT,
    TimeGrid,
    actuator_adjoint,
    actuator_apply,
    check_seed,
    energy_report,
    implicit_solve,
    implicit_solve_star,
    integrate,
    integrate_ensemble,
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
from .noise import SpectralCovariance, sample_path
from .scenario import Scenario, emit_scenario

HISTORY_CSV_FORMAT = "fhn-optimize-history-csv-v1"
ENERGY_CSV_FORMAT = "fhn-energy-csv-v1"
REPORT_CSV_FORMAT = "fhn-report-csv-v2"


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


def json_summary(summary: dict) -> dict:
    """A run summary for strict JSON, which has no NaN or infinity: each
    non-finite float becomes None (null)."""
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in summary.items()}


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
        "summary": json_summary(summary),
    }
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
        fh.write("\n")
    return path


# ---------------------------------------------------------------- commands


def _cmd_simulate(scenario: Scenario, out: Path, seed: int) -> tuple:
    """integrate the state equation and write trajectories"""
    # one path at a time: each is reduced as it arrives and dropped, path 0
    # is kept, and nothing is written before the last path has integrated
    problem = scenario.problem
    u = ControlPath.zero(problem.timegrid, problem.grid)
    sup_h, int_v, first = [], [], None
    for p in range(problem.n_paths):
        ens = integrate_ensemble(problem, u, seed, range(p, p + 1))
        report = energy_report(problem, ens)
        sup_h += report["sup_h_sq"]
        int_v += report["int_v_sq"]
        if first is None:
            first = ens[:, 0]
        del ens  # not alive while the next path integrates
    snap = out / "trajectory_path0.npz"
    save_snapshot(snap, first, seed, 0)
    energy_csv = out / "energy.csv"
    rows = zip(range(problem.n_paths), sup_h, int_v)
    _write_csv(energy_csv, ["path", "sup_h_sq", "int_v_sq"], rows)
    summary = {
        "paths": problem.n_paths,
        "mean_sup_h_sq": float(np.mean(sup_h)),
        "mean_int_v_sq": float(np.mean(int_v)),
    }
    return [snap, energy_csv], summary, True


def _cmd_optimize(scenario: Scenario, out: Path, seed: int) -> tuple:
    """run the regularized fixed-point control solver"""
    problem = scenario.problem
    report = optimize(
        problem, seed=seed, tol=scenario.tol, max_iters=scenario.max_iters, eps0=scenario.eps0
    )
    artifacts = []
    margin = contraction_margin(problem.cost, problem.timegrid.T)
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
    save_snapshot(snap, report.path0, seed, 0)
    artifacts.append(snap)
    summary = {
        "converged": report.converged,
        "iterations": len(report.iterations),
        "psi_final": report.psi_final,
        "certificate_residual": report.certificate_residual,
        "margin": margin,
        "control_norm": u_norm(problem.grid, problem.timegrid, report.u_star),
    }
    return artifacts, summary, True


def gradient_check(problem: Problem, seed: int = 0) -> list:
    """Relative errors between the gradient the optimizer uses and central
    finite differences of step h = 1e-5 of the sampled cost, over five
    random unit directions.  Every evaluation integrates the problem's
    `n_paths` paths on the same noise streams, so with the noise on this
    checks the gradient of the mean cost over those paths."""
    check_seed(seed)
    grid, timegrid, h = problem.grid, problem.timegrid, 1.0e-5
    rng = np.random.default_rng([seed, 2024])
    u = ControlPath(0.3 * rng.standard_normal((timegrid.N + 1,) + grid.shape))
    grad = gradient(problem.cost, u, control_signal(problem, integrate_ensemble(problem, u, seed)))
    errors = []
    for _ in range(5):
        v = ControlPath(rng.standard_normal((timegrid.N + 1,) + grid.shape))
        v = (1.0 / u_norm(grid, timegrid, v)) * v
        plus, _ = psi_estimate(problem, u + h * v, seed)
        minus, _ = psi_estimate(problem, u - h * v, seed)
        fd = (plus - minus) / (2.0 * h)
        ip = u_inner(grid, timegrid, grad, v)
        errors.append(abs(fd - ip) / max(abs(ip), 1.0e-12))
    return errors


def _cmd_verify_gradient(scenario: Scenario, out: Path, seed: int) -> tuple:
    """check the adjoint gradient against finite differences"""
    errors = gradient_check(scenario.problem, seed)
    passed = max(errors) <= 1.0e-4
    report_csv = out / "gradient_check.csv"
    _write_csv(
        report_csv,
        ["direction", "relative_error"],
        [(i, e) for i, e in enumerate(errors)],
    )
    return [report_csv], {"max_relative_error": max(errors), "passed": passed}, passed


# ------------------------------------------------------- invariant battery


def invariant_checks(problem: Problem, seed: int = 0) -> list:
    """Fast cross-module invariant battery on `problem`; returns (name, ok, detail)."""
    check_seed(seed)
    params, grid, spec, timegrid, cost = (
        problem.params, problem.grid, problem.spec, problem.timegrid, problem.cost
    )
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
    kmax = min(8, grid.exact_truncation)  # the eigen and replay rows' modes
    E = eigenmode_matrix(grid, kmax)
    gram = E.T @ (grid.weights().ravel()[:, None] * E)
    record("eigenmode_orthonormal", np.max(np.abs(gram - np.eye(kmax))) <= 1.0e-10, f"defect={np.max(np.abs(gram - np.eye(kmax))):.2e}")
    # roundoff in Lap_h grows with its spectral radius 4d/h^2, so the
    # Laplacian defects below are held to a multiple of eps times that.
    # Each sampled check keeps its worst defect with np.maximum, which
    # keeps a NaN where max would drop it, so a NaN defect fails its check
    lap_bound = 64.0 * np.finfo(float).eps * (1.0 + 4.0 * grid.d / grid.h**2)
    worst = 0.0
    for k in range(1, kmax + 1):
        ek = neumann_eigenmode(grid, k)
        resid = neumann_laplacian(grid, ek) - mode_eigenvalue(grid, k) * ek
        defect = float(np.max(np.abs(resid))) / (1.0 + abs(mode_eigenvalue(grid, k)))
        worst = np.maximum(worst, defect)
    record("eigen_identity", worst <= lap_bound, f"defect={worst:.2e}, bound={lap_bound:.2e}")

    # operator structure in the weighted inner product
    worst = 0.0
    for _ in range(100):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        ax = a_apply(params, grid, X)
        expected = params.gamma * inner_l2(grid, neumann_laplacian(grid, X.v), X.v) - params.delta * norm_l2_sq(grid, X.w)
        defect = abs(inner_h(grid, params.gamma, ax, X) - expected) / (1.0 + norm_h_sq(grid, params.gamma, X))
        worst = np.maximum(worst, defect)
    record("weighted_skew_cancellation", worst <= lap_bound, f"defect={worst:.2e}, bound={lap_bound:.2e}")
    ok = True
    for _ in range(100):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        bound = -params.delta * norm_l2_sq(grid, X.w)
        ok = ok and inner_h(grid, params.gamma, a_apply(params, grid, X), X) <= bound + 1.0e-10
    record("operator_dissipative", ok, "⟨AX,X⟩ ≤ -delta|w|^2")

    lip = one_sided_defect(params, grid)
    record(
        "one_sided_lipschitz",
        lip["passed"],
        f"eta={lip['eta']:.6f}, pair defect={lip['pair']:.2e} (bound {lip['pair_bound']:.2e}), "
        f"lattice defect={lip['lattice']:.2e} (bound {lip['lattice_bound']:.2e})",
    )

    # actuator and solver adjointness
    worst = 0.0
    for _ in range(20):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        uf = rng.standard_normal(grid.shape)
        lhs = inner_l2(grid, actuator_adjoint(spec, params.gamma, X.v), uf)
        rhs = inner_h(grid, params.gamma, X, StateX(actuator_apply(spec, uf), grid.zeros()))
        worst = np.maximum(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    record("actuator_adjointness", worst <= 1.0e-12, f"defect={worst:.2e}")
    dt = timegrid.dt
    worst = 0.0
    for _ in range(20):
        X = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        Y = StateX(rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        lhs = inner_h(grid, params.gamma, implicit_solve(params, grid, dt, X), Y)
        rhs = inner_h(grid, params.gamma, X, implicit_solve_star(params, grid, dt, Y))
        worst = np.maximum(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    record("implicit_solver_adjointness", worst <= 1.0e-11, f"defect={worst:.2e}")
    # S must invert the A checked above: the defect of (I - dt*A) S r = r is
    # roundoff times the size of dt*Lap_h, whose spectral radius is dt*4d/h^2
    bound = 64.0 * np.finfo(float).eps * (1.0 + dt * 4.0 * grid.d / grid.h**2)
    solve_rng = np.random.default_rng([seed, 13])  # leaves the draws below as they were
    worst = 0.0
    for _ in range(20):
        r = StateX(*solve_rng.standard_normal((2,) + grid.shape))
        X = implicit_solve(params, grid, dt, r)
        defect = X - dt * a_apply(params, grid, X) - r
        worst = np.maximum(worst, float(np.max(np.abs([defect.v, defect.w])) / np.max(np.abs([r.v, r.w]))))
    record("implicit_solver_inverts_operator", worst <= bound, f"defect={worst:.2e}, bound={bound:.2e}")

    # forward equilibrium + determinism, over ten steps
    noiseless = dataclasses.replace(problem, cov=SpectralCovariance.zero(1))
    short = TimeGrid(10 * dt, 10)
    u0 = ControlPath.zero(short, grid)
    at_rest = dataclasses.replace(
        noiseless, params=dataclasses.replace(params, f=0.0), timegrid=short, x0=StateX.zero(grid)
    )
    zero_traj = integrate_ensemble(at_rest, u0, seed)
    record(
        "equilibrium_preserved",
        float(np.max(np.abs(zero_traj.v)) + np.max(np.abs(zero_traj.w))) == 0.0,
        "zero state fixed by the step",
    )
    spectrum = SpectralCovariance.power_spectrum(min(problem.cov.K, kmax), 0.1, 0.1)
    noisy = dataclasses.replace(problem, cov=spectrum, timegrid=short, ensemble=1)
    t1 = integrate_ensemble(noisy, u0, seed)
    t2 = integrate_ensemble(noisy, u0, seed)
    record(
        "integration_deterministic",
        np.array_equal(t1.v, t2.v) and np.array_equal(t1.w, t2.w),
        "bit-identical replay",
    )

    # adjoint structure: cost scaling and linear-mode duality exactness
    u0_full = ControlPath.zero(timegrid, grid)
    base = integrate_ensemble(noiseless, u0_full, seed)
    adj1 = solve_adjoint_regression(noiseless, base)
    scaled = dataclasses.replace(
        noiseless, cost=dataclasses.replace(cost, c_g=3.7 * cost.c_g, c0=3.7 * cost.c0)
    )
    adj2 = solve_adjoint_regression(scaled, base)
    num = float(np.max(np.abs(adj2.v - 3.7 * adj1.v)) + np.max(np.abs(adj2.w - 3.7 * adj1.w)))
    den = float(np.max(np.abs(adj2.v)) + np.max(np.abs(adj2.w)) + 1.0e-30)
    record("cost_scaling_equivariance", num / den <= 1.0e-10, f"relative deviation={num / den:.2e}")

    linear = dataclasses.replace(
        noiseless,
        params=dataclasses.replace(params, f=0.0, linear=True),
        cost=dataclasses.replace(cost, c_g=0.0, c0=max(cost.c0, 0.1)),
    )
    direction = ControlPath(rng.standard_normal((timegrid.N + 1,) + grid.shape))
    gap = duality_gap(linear, integrate_ensemble(linear, u0_full, seed), direction)
    record("duality_exact_linear", abs(gap) <= 1.0e-8, f"gap={gap:.2e}")

    return checks


def _cmd_verify_invariants(scenario: Scenario, out: Path, seed: int) -> tuple:
    """run the cross-module invariant battery"""
    checks = invariant_checks(scenario.problem, seed)
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


def self_convergence_rate(problem: Problem, base_steps: int, seed: int = 0) -> dict:
    """Coupled dt-refinement study over `problem`'s horizon from `base_steps`
    steps, halved three times; returns per-level errors and the rate.

    With the noise on, each of the problem's `n_paths` paths shares one
    Brownian path across levels by aggregating fine-level increments.
    """
    params, grid, T = problem.params, problem.grid, problem.timegrid.T
    # the coarsest level takes the largest step: its derived problem checks it
    dataclasses.replace(problem, timegrid=TimeGrid(T, base_steps))
    check_seed(seed)
    noisy, n_paths, levels = not problem.cov.is_zero(), problem.n_paths, 3
    finest = base_steps * 2**levels
    if noisy:  # each path's fine increments, on a path axis: (finest, M) + grid.shape
        fine = [sample_path(problem.cov, grid, TimeGrid(T, finest), seed, p) for p in range(n_paths)]
        fine = StateX(np.stack([x.v for x in fine], axis=1), np.stack([x.w for x in fine], axis=1))
    finals = []
    for lev in range(levels + 1):
        steps = base_steps * 2**lev
        tg = TimeGrid(T, steps)
        agg = None
        if noisy:
            runs = (steps, finest // steps) + fine.v.shape[1:]
            agg = StateX(fine.v.reshape(runs).sum(axis=1), fine.w.reshape(runs).sum(axis=1))
        traj = integrate(params, grid, problem.spec, tg, problem.x0, ControlPath.zero(tg, grid), agg)
        finals.append(traj[steps])
    # Python's sum adds the per-path errors in path order
    errors = [
        sum(np.atleast_1d(norm_h_sq(grid, params.gamma, a - b)) ** 0.5 / n_paths)
        for a, b in zip(finals, finals[1:])
    ]
    # an exact zero error (the scheme exact on the problem) has no logarithm: no rate
    rates = [
        float(np.log2(a / b)) if a > 0 and b > 0 else float("nan") for a, b in zip(errors, errors[1:])
    ]
    return {"errors": errors, "rates": rates, "rate": float(np.mean(rates))}


def _smooth_direction(grid, tg: TimeGrid) -> ControlPath:
    """Fixed smooth control perturbation, resolution-independent so gap
    values at different dt measure the same continuous direction."""
    profile = neumann_eigenmode(grid, 1) + 0.5 * neumann_eigenmode(grid, 2)
    t = tg.times() / tg.T
    envelope = 1.0 + np.cos(2.0 * np.pi * t)
    return ControlPath(np.multiply.outer(envelope, profile))


def duality_slope(problem: Problem) -> dict:
    """Log-log slope in dt of the duality gap of `problem` along a fixed
    smooth direction, over its horizon T at nominal steps 4e-3, 2e-3 and
    1e-3; each runs as T/N with N = round(T/dt), the step fitted and
    reported.  Pass a noise-free problem for the deterministic gap."""
    grid, T = problem.grid, problem.timegrid.T
    if round(T / 4.0e-3) < 1:
        raise ConfigurationError(f"horizon {T} is below half the duality study's coarsest step 0.004")
    dts, gaps = [], []
    for dt in (4.0e-3, 2.0e-3, 1.0e-3):
        tg = TimeGrid(T, round(T / dt))
        refined = dataclasses.replace(problem, timegrid=tg)
        ens = integrate_ensemble(refined, ControlPath.zero(tg, grid), 0)
        dts.append(tg.dt)
        gaps.append(abs(duality_gap(refined, ens, _smooth_direction(grid, tg))))
    # an exact zero gap (a zero-cost problem's) has no logarithm: no slope
    slope = float("nan")
    if all(g > 0 for g in gaps):
        slope = float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(gaps)), 1)[0])
    return {"dts": dts, "gaps": gaps, "slope": slope}


def margin_sweep(problem: Problem, eps0: float) -> list:
    """Residual-decay survey of `problem` across horizons 0.25 to 4 at
    fixed cost weights and dt = 4e-3, each `optimize` run taking the given
    `eps0` and at most ten iterations.

    Reports, per horizon, the contraction margin and the worst ratio of
    consecutive nonzero residuals, the first two ratios left out when
    there are more: a measurement, not a verdict.  The ratio is NaN where
    no two residuals are nonzero, as on a run that converges at once.
    """
    rows = []
    for T in (0.25, 0.5, 1.0, 2.0, 4.0):
        tg = TimeGrid(T, max(int(round(T / 4.0e-3)), 2))
        report = optimize(
            dataclasses.replace(problem, timegrid=tg), tol=1.0e-12, max_iters=10, eps0=eps0
        )
        res = [r for r in report.residual_history if r > 0]
        ratios = [res[i + 1] / res[i] for i in range(len(res) - 1)]
        late = ratios[2:] if len(ratios) > 2 else ratios
        rows.append(
            {
                "T": T,
                "margin": contraction_margin(problem.cost, T),
                "worst_late_ratio": max(late) if late else float("nan"),
            }
        )
    return rows


def _cmd_convergence_study(scenario: Scenario, out: Path, seed: int) -> tuple:
    """time-step refinement, duality slope, margin sweep"""
    noiseless = dataclasses.replace(scenario.problem, cov=SpectralCovariance.zero(1))
    # a noise-free scenario's modes may exceed what its grid holds exactly
    grid = scenario.problem.grid
    modes = min(scenario.modes, grid.exact_truncation)
    spectrum = SpectralCovariance.power_spectrum(modes, scenario.sigma1, scenario.sigma2)
    noisy = dataclasses.replace(scenario.problem, cov=spectrum, ensemble=24)
    slope = duality_slope(noiseless)  # first: a horizon it cannot step fails at once
    det = self_convergence_rate(noiseless, base_steps=32, seed=seed)
    sto = self_convergence_rate(noisy, base_steps=16, seed=seed)
    sweep = margin_sweep(noiseless, scenario.eps0)
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
        ["T", "margin", "worst_late_ratio"],
        [(row["T"], row["margin"], row["worst_late_ratio"]) for row in sweep],
    )
    artifacts.append(sweep_csv)
    summary = {
        "deterministic_rate": det["rate"],
        "stochastic_rate": sto["rate"],
        "duality_slope": slope["slope"],
    }
    # where the duality is exact (gaps of roundoff) the slope means nothing
    duality_ok = max(slope["gaps"]) <= 1.0e-12 or abs(slope["slope"] - 1.0) <= 0.3
    # likewise where the scheme is exact (every error zero) there is no rate
    def rate_ok(study, floor):
        return study["rate"] >= floor or all(e == 0.0 for e in study["errors"])

    passed = rate_ok(det, 0.9) and rate_ok(sto, 0.4) and duality_ok
    return artifacts, summary, passed


COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "verify-gradient": _cmd_verify_gradient,
    "verify-invariants": _cmd_verify_invariants,
    "convergence-study": _cmd_convergence_study,
}


def run(scenario: Scenario, command: str, out_dir: str, seed: int | None = None) -> RunRecord:
    """Execute one command; artifacts land in out_dir, manifest included."""
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}; valid: {tuple(COMMANDS)}")
    scenario.validate()
    effective_seed = check_seed(scenario.seed if seed is None else seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    artifacts, summary, passed = COMMANDS[command](scenario, out, effective_seed)
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
