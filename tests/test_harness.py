"""Harness commands, manifests, artifact reproducibility, and the CLI."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fhn_control
import fhn_control.dynamics as dynamics_module
import fhn_control.forward as forward_module
from fhn_control import harness
from fhn_control.adjoint import ADJOINT_SWEEP
from fhn_control.cli import build_parser, main
from fhn_control.control import CostSpec, Problem
from fhn_control.dynamics import FhnParams
from fhn_control.errors import BlowUpError, ConfigurationError
from fhn_control.forward import (
    CONTROL_FORMAT,
    SNAPSHOT_FORMAT,
    ActuatorSpec,
    ControlPath,
    TimeGrid,
    energy_report,
    integrate_ensemble,
    load_snapshot,
)
from fhn_control.grid import DENSE_MAX_N, HELMHOLTZ_SOLVER, Grid, StateX, neumann_eigenmode
from fhn_control.harness import COMMANDS, gradient_check, invariant_checks, run
from fhn_control.noise import SpectralCovariance
from fhn_control.scenario import Scenario, load_scenario, save_scenario

SMALL = dict(n=12, steps=30, horizon=0.1, modes=6, ensemble=4)

#: Linear reaction and no running cost: the duality gap is roundoff.
EXACT_DUALITY = dict(n=16, modes=8, linear=True, running_weight=0.0)

#: At rest: with v0 = 0 the noise-free state stays exactly 0.
AT_REST = dict(v0="constant:0.0", n=16, steps=40, horizon=0.2, modes=8)


def _callable_ref_problem():
    """A problem built in code, with no scenario behind it: noise on, the
    left-half mask and a reference that moves in time."""
    g = Grid(1, SMALL["n"])
    tg = TimeGrid(SMALL["horizon"], SMALL["steps"])
    profile = neumann_eigenmode(g, 2)
    return Problem(
        FhnParams(), g, SpectralCovariance.power_spectrum(6, 1.0, 1.0),
        ActuatorSpec((g.axis_coords() < g.ell / 2.0).astype(float)), tg,
        CostSpec(alpha=2.0, c0=0.1, x_ref=lambda k: StateX((0.3 * k / tg.N) * profile, g.zeros())),
        StateX(g.constant(0.3), g.zeros()), ensemble=4,
    )


def assert_runs_identical(a: Path, b: Path) -> None:
    """Every artifact of two runs is byte-identical, and each manifest
    lists exactly the files beside it; manifest.json itself names its
    directory, so it is left out of the byte comparison."""
    listed = []
    for out in (a, b):
        manifest = json.loads((out / "manifest.json").read_text())
        listed.append({Path(x).name for x in manifest["artifacts"]})
        assert listed[-1] == {f.name for f in out.iterdir()} - {"manifest.json"}
    assert listed[0] == listed[1]
    for name in sorted(listed[0]):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_deterministic_optimize_does_not_import_numpy_random(tmp_path):
    # only a noise stream loads numpy.random, on first use: a fresh
    # interpreter that imports the package and runs a noise-free optimize
    # leaves it unloaded where numpy itself loads it lazily
    scenario = dict(SMALL, mode="deterministic", max_iters=2)
    code = (
        "import sys\n"
        "import numpy\n"
        "random_at_import = 'numpy.random' in sys.modules\n"
        "import fhn_control\n"
        "from fhn_control.harness import run\n"
        "from fhn_control.scenario import Scenario\n"
        f"scenario = Scenario(**{scenario!r})\n"
        f"assert run(scenario, 'optimize', {str(tmp_path / 'out')!r}).passed\n"
        "print(random_at_import, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fhn_control.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    random_at_import, random_after = proc.stdout.split()
    assert random_after == random_at_import


def test_run_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown command"):
        run(Scenario(), "frobnicate", tmp_path)


def test_simulate_writes_artifacts_and_manifest(tmp_path):
    record = run(Scenario(**SMALL), "simulate", tmp_path)
    assert record.passed
    assert (tmp_path / "trajectory_path0.npz").exists()
    assert (tmp_path / "energy.csv").exists()
    with np.load(tmp_path / "trajectory_path0.npz") as data:
        assert str(data["format"]) == SNAPSHOT_FORMAT
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["scenario"]["n"] == 12
    assert manifest["scenario_digest"] == Scenario(**SMALL).digest()
    assert "numpy" in manifest["versions"]
    # the program no longer uses scipy, so the manifest does not name it
    assert "scipy" not in manifest["versions"]
    assert manifest["formats"]["snapshot"] == SNAPSHOT_FORMAT
    assert manifest["formats"]["helmholtz"] == HELMHOLTZ_SOLVER == "dense-rfft-dct1-v2"
    assert manifest["formats"]["adjoint"] == ADJOINT_SWEEP


@pytest.mark.parametrize("n", [SMALL["n"], 200], ids=["d1-n12", "d1-n200"])
def test_simulate_does_not_import_scipy(tmp_path, n):
    # numpy is the only runtime dependency on both sides of the dense-solve
    # crossover (12 <= DENSE_MAX_N < 200): a fresh interpreter with scipy
    # made unimportable runs the simulation
    scenario = dict(SMALL, n=n, mode="stochastic")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy\n"
        "fft_at_import = 'numpy.fft' in sys.modules\n"
        "import fhn_control\n"
        "from fhn_control.harness import run\n"
        "from fhn_control.scenario import Scenario\n"
        f"scenario = Scenario(**{scenario!r})\n"
        f"assert run(scenario, 'simulate', {str(tmp_path / 'out')!r}).passed\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
        "print(fft_at_import, 'numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fhn_control.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # only the solve above the crossover uses numpy.fft; where numpy loads
    # it lazily, a run on a small grid does not load it
    scipy_modules, fft_at_import, fft_after = proc.stdout.split()
    assert scipy_modules == "[]"
    assert fft_after == str(fft_at_import == "True" or n > DENSE_MAX_N)


def test_optimize_artifacts_and_history(tmp_path):
    record = run(Scenario(**SMALL, tol=1e-5, max_iters=15), "optimize", tmp_path)
    assert record.passed
    assert record.summary["converged"]
    history = (tmp_path / "history.csv").read_text().strip().split("\n")
    assert history[0] == "iteration,psi,residual,eps,accepted,tau,direction,margin"
    assert len(history) >= 2
    # the first step is the plain one; a later one may be the Anderson step
    directions = [line.split(",")[6] for line in history[1:]]
    assert directions[0] == "plain" and set(directions) <= {"plain", "anderson"}
    assert (tmp_path / "control.npz").exists()
    assert (tmp_path / "state_path0.npz").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["formats"]["control"] == CONTROL_FORMAT
    assert manifest["formats"]["snapshot"] == SNAPSHOT_FORMAT
    assert manifest["formats"]["report"] == "fhn-report-csv-v2"
    assert manifest["formats"]["history"] == "fhn-optimize-history-csv-v2"
    # the margin is a number, the one every history row holds
    scenario = Scenario(**SMALL)
    margin = (1.0 / scenario.alpha) * scenario.horizon + scenario.terminal_weight
    assert manifest["summary"]["margin"] == margin
    assert {line.rsplit(",", 1)[1] for line in history[1:]} == {repr(margin)}
    with np.load(tmp_path / "control.npz") as data:
        assert sorted(data.files) == ["format", "times", "u"]
        assert str(data["format"]) == CONTROL_FORMAT
    with np.load(tmp_path / "state_path0.npz") as data:
        assert str(data["format"]) == SNAPSHOT_FORMAT


@pytest.mark.parametrize("d", [1, 2])
def test_optimize_field_artifacts_round_trip(tmp_path, monkeypatch, d):
    # the artifacts must hold exactly what the optimizer returned
    reports = []
    seeds = []
    optimize = harness.optimize

    def recording_optimize(*args, **kwargs):
        seeds.append(kwargs["seed"])
        reports.append(optimize(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "optimize", recording_optimize)
    scenario = Scenario(**dict(SMALL, d=d), mode="stochastic", tol=1e-5, max_iters=3)
    run(scenario, "optimize", tmp_path)
    (report,) = reports
    back, seed, path_index = load_snapshot(tmp_path / "state_path0.npz")
    np.testing.assert_array_equal(back.v, report.path0.v)
    np.testing.assert_array_equal(back.w, report.path0.w)
    assert (seed, path_index) == (seeds[0], 0)
    with np.load(tmp_path / "control.npz") as data:
        np.testing.assert_array_equal(data["u"], report.u_star.values)
        np.testing.assert_array_equal(data["times"], scenario.build_timegrid().times())


def test_optimize_rerun_bit_identical(tmp_path):
    scenario = Scenario(**SMALL, tol=1e-5, max_iters=15)
    run(scenario, "optimize", tmp_path / "a")
    run(scenario, "optimize", tmp_path / "b")
    assert_runs_identical(tmp_path / "a", tmp_path / "b")


def test_simulate_rerun_bit_identical(tmp_path):
    scenario = Scenario(**SMALL, mode="stochastic")
    run(scenario, "simulate", tmp_path / "a")
    run(scenario, "simulate", tmp_path / "b")
    assert_runs_identical(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("M", [1, 7])
@pytest.mark.parametrize("d", [1, 2])
def test_streamed_simulate_equals_the_stacked_ensemble(tmp_path, d, M):
    # simulate reduces each path as it arrives; its tables and its path 0
    # are those of the whole ensemble, bit for bit
    sizes = dict(SMALL, d=d, n=8 if d == 2 else SMALL["n"], ensemble=M)
    scenario = Scenario(**sizes, mode="stochastic")
    record = run(scenario, "simulate", tmp_path, seed=5)
    problem = scenario.problem
    ens = integrate_ensemble(problem, ControlPath.zero(problem.timegrid, problem.grid), 5)
    report = energy_report(problem, ens)
    table = np.loadtxt(tmp_path / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(table[:, 0], np.arange(M))
    np.testing.assert_array_equal(table[:, 1], report["sup_h_sq"])
    np.testing.assert_array_equal(table[:, 2], report["int_v_sq"])
    assert record.summary == {
        "paths": M,
        "mean_sup_h_sq": report["mean_sup_h_sq"],
        "mean_int_v_sq": report["mean_int_v_sq"],
    }
    path0, seed, index = load_snapshot(tmp_path / "trajectory_path0.npz")
    np.testing.assert_array_equal(path0.v, ens.v[:, 0])
    np.testing.assert_array_equal(path0.w, ens.w[:, 0])
    assert (seed, index) == (5, 0)


def test_simulate_writes_nothing_when_a_later_path_blows_up(tmp_path, monkeypatch):
    # the artifacts are written once the last path has integrated, so a
    # blow-up on path 2 of 4 leaves the output directory empty
    real, indices = forward_module.integrate, []

    def failing(params, grid, spec, timegrid, x0, control, increments, path_index=0, out=None):
        indices.append(path_index)
        if path_index == 2:
            raise BlowUpError(1, 2.0e6, path_index)
        return real(params, grid, spec, timegrid, x0, control, increments, path_index, out)

    monkeypatch.setattr(forward_module, "integrate", failing)
    out = tmp_path / "out"
    with pytest.raises(BlowUpError, match="path 2"):
        run(Scenario(**SMALL, mode="stochastic"), "simulate", out)
    assert indices == [0, 1, 2]
    assert list(out.iterdir()) == []


def test_simulate_holds_as_many_field_paths_whatever_the_ensemble(tmp_path):
    # simulate's working set, in field paths of (N+1)*n doubles: path 0, the
    # path integrating, whose increments are staged in its own arrays, and
    # the temporaries of its blow-up guard and its energy report.  Stacking
    # the ensemble read 17.3 at M = 4 and 89.3 at M = 40, and a separate
    # increments pair beside the path 9.3
    n, N = 64, 100

    def peak(M):
        scenario = Scenario(
            d=1, n=n, steps=N, horizon=0.1, modes=32, ensemble=M, mode="stochastic"
        )
        run(scenario, "simulate", tmp_path / f"warm-up-{M}")  # the grid's and time grid's caches
        tracemalloc.start()
        try:
            run(scenario, "simulate", tmp_path / f"run-{M}")
            return tracemalloc.get_traced_memory()[1] / ((N + 1) * n * 8)
        finally:
            tracemalloc.stop()

    few, many = peak(4), peak(40)
    assert many <= 9
    assert abs(many - few) <= 0.5


def test_csv_artifacts_hold_plain_numbers(tmp_path):
    # numpy 2 reprs a numpy scalar as np.float64(...); no CSV may hold one
    scenario = Scenario(**SMALL, mode="stochastic")
    for command in COMMANDS:
        run(scenario, command, tmp_path / command)
    tables = sorted(tmp_path.glob("*/*.csv"))
    assert {t.parent.name for t in tables} == set(COMMANDS)
    for table in tables:
        assert "np." not in table.read_text(), table


def test_seed_override_changes_stochastic_output(tmp_path):
    scenario = Scenario(**SMALL, mode="stochastic")
    run(scenario, "simulate", tmp_path / "a", seed=1)
    run(scenario, "simulate", tmp_path / "b", seed=2)
    # the snapshot also stores the seed, so compare the paths themselves
    a, _, _ = load_snapshot(tmp_path / "a" / "trajectory_path0.npz")
    b, _, _ = load_snapshot(tmp_path / "b" / "trajectory_path0.npz")
    assert not np.array_equal(a.v, b.v)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 1


def test_gradient_check_small_errors():
    errors = gradient_check(Scenario(**SMALL).problem, seed=0)
    assert max(errors) <= 1e-6


def test_invariant_battery_all_pass():
    # a scenario's problem, and one built in code with a moving reference
    for problem in (Scenario(**SMALL).problem, _callable_ref_problem()):
        checks = invariant_checks(problem, seed=0)
        failed = [name for name, ok, _ in checks if not ok]
        assert failed == []
        assert len(checks) >= 12


@pytest.mark.parametrize(
    "module, name, only, failing",
    [
        (harness, "actuator_adjoint", None, {"actuator_adjointness"}),
        (harness, "implicit_solve_star", 4, {"implicit_solver_adjointness"}),
        (harness, "mode_eigenvalue", 2, {"eigen_identity"}),
        (
            harness, "a_apply", None,
            {"weighted_skew_cancellation", "operator_dissipative", "implicit_solver_inverts_operator"},
        ),
        (dynamics_module, "f_apply", None, {"one_sided_lipschitz"}),
    ],
    ids=["actuator_adjoint", "implicit_solve_star", "mode_eigenvalue", "a_apply", "f_apply"],
)
def test_invariant_battery_fails_a_nan_defect(monkeypatch, module, name, only, failing):
    # NaN in every result of one operator, or in its call number `only`:
    # a sampled check keeps its worst defect with a NaN-propagating
    # reduction, so the NaN fails exactly the checks that read it
    real = getattr(module, name)
    calls = itertools.count()

    def nan_result(*args):
        out = real(*args)
        if only is not None and next(calls) != only:
            return out
        return StateX(out.v + np.nan, out.w + np.nan) if isinstance(out, StateX) else out + np.nan

    monkeypatch.setattr(module, name, nan_result)
    checks = invariant_checks(Scenario(**SMALL).problem, seed=0)
    assert {check for check, ok, _ in checks if not ok} == failing


def test_a_wrong_cubic_fails_the_one_sided_check(monkeypatch):
    # i_ion at half its size keeps every field ratio below eta: only the
    # pair where eta is attained and the divided difference see it
    real = dynamics_module.i_ion
    monkeypatch.setattr(dynamics_module, "i_ion", lambda params, v: 0.5 * real(params, v))
    for a, b in [(0.25, 1.0), (0.0, 0.0), (0.8, 0.3)]:
        out = dynamics_module.one_sided_defect(FhnParams(a=a, b=b), Grid(1, 16))
        assert not out["pair"] <= out["pair_bound"]
        assert not out["lattice"] <= out["lattice_bound"]
        assert not out["passed"]
    checks = invariant_checks(Scenario(**SMALL).problem, seed=0)
    assert "one_sided_lipschitz" in {name for name, ok, _ in checks if not ok}


@pytest.mark.parametrize("check", [gradient_check, invariant_checks], ids=["gradient", "invariants"])
def test_checks_reject_a_negative_seed(check):
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        check(Scenario(**SMALL).problem, seed=-1)


@pytest.mark.parametrize("d, n", [(1, 200), (2, 130)], ids=["d1-n200", "d2-n130"])
def test_invariant_battery_passes_on_fine_grids(d, n):
    # the Laplacian defects grow like roundoff times 4d/h^2, so fixed bounds
    # failed correct code on fine grids; both grids are above the dense-solve
    # crossover, so the solver checks also run the FFT transform
    assert n > DENSE_MAX_N
    checks = invariant_checks(Scenario(d=d, n=n, steps=10, horizon=0.01, modes=8).problem, seed=0)
    assert [(name, detail) for name, ok, detail in checks if not ok] == []


@pytest.mark.parametrize("d, n", [(1, 4), (1, 8), (2, 3)], ids=["d1-n4", "d1-n8", "d2-n3"])
def test_invariant_battery_passes_on_coarse_grids(d, n):
    # a noise-free grid may hold fewer than the battery's 8 modes: its rows
    # take at most the grid's exact truncation (n - 1)**d
    problem = Scenario(d=d, n=n, steps=50).problem
    assert problem.grid.exact_truncation < 8
    checks = invariant_checks(problem, seed=0)
    assert [(name, detail) for name, ok, detail in checks if not ok] == []


def test_self_convergence_rate_runs_the_problems_paths(monkeypatch):
    # one integration per level, over four levels: with the noise off the
    # 24-member ensemble is one noise-free path, with it on every member
    # steps in that one call, on the path axis of its increments
    calls = []
    real = harness.integrate

    def counting(params, grid, spec, timegrid, x0, control, increments, *rest):
        calls.append((timegrid.N, None if increments is None else increments.v.shape[:2]))
        return real(params, grid, spec, timegrid, x0, control, increments, *rest)

    monkeypatch.setattr(harness, "integrate", counting)
    harness.self_convergence_rate(Scenario(**dict(SMALL, ensemble=24)).problem, base_steps=8)
    assert calls == [(8, None), (16, None), (32, None), (64, None)]
    calls.clear()
    noisy = Scenario(**dict(SMALL, ensemble=3), mode="stochastic", sigma1=1.0, sigma2=1.0)
    harness.self_convergence_rate(noisy.problem, base_steps=8)
    assert calls == [(8, (8, 3)), (16, (16, 3)), (32, (32, 3)), (64, (64, 3))]


def test_self_convergence_rate_rejects_a_negative_seed_before_drawing(monkeypatch):
    # it draws its own fine increments, after the seed check integrate_ensemble also runs
    drawn = []
    monkeypatch.setattr(harness, "sample_path", lambda *a: drawn.append(a))
    noisy = Scenario(**dict(SMALL, ensemble=2), mode="stochastic").problem
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        harness.self_convergence_rate(noisy, base_steps=8, seed=-1)
    assert drawn == []


def test_convergence_study_passes_where_the_duality_is_exact(tmp_path):
    # linear reaction, no running cost: every gap is roundoff, so their
    # log-log slope means nothing and their size decides
    record = run(Scenario(**EXACT_DUALITY), "convergence-study", tmp_path)
    lines = (tmp_path / "duality_gap.csv").read_text().strip().split("\n")[1:]
    assert max(float(line.split(",")[1]) for line in lines) <= 1e-12
    assert record.passed, record.summary


def test_convergence_study_tables_and_summary(tmp_path, monkeypatch):
    # the sweep is a measurement, with no verdict: per horizon the margin
    # and the worst late residual ratio, and the summary draws none from it
    scenario = Scenario(**EXACT_DUALITY)
    record = run(scenario, "convergence-study", tmp_path)
    assert set(record.summary) == {"deterministic_rate", "stochastic_rate", "duality_slope"}
    # it measures the plain fixed-point map, whose contraction the margin bounds
    accelerated = []
    real_optimize = harness.optimize

    def recording_optimize(*args, **kwargs):
        accelerated.append(kwargs.get("accelerate", True))
        return real_optimize(*args, **kwargs)

    monkeypatch.setattr(harness, "optimize", recording_optimize)
    sweep = harness.margin_sweep(scenario.problem, scenario.eps0)
    assert accelerated == [False] * 5
    assert [row["T"] for row in sweep] == [0.25, 0.5, 1.0, 2.0, 4.0]
    for row in sweep:
        assert set(row) == {"T", "margin", "worst_late_ratio"}
        assert row["margin"] == (1.0 / scenario.alpha) * row["T"] + scenario.terminal_weight
        assert 0.0 < row["worst_late_ratio"] < 1.0
    lines = (tmp_path / "margin_sweep.csv").read_text().splitlines()
    assert lines == ["T,margin,worst_late_ratio"] + [
        f"{row['T']!r},{row['margin']!r},{row['worst_late_ratio']!r}" for row in sweep
    ]


def test_duality_slope_is_nan_where_every_gap_is_zero():
    # a zero-cost problem's gaps are exactly 0: no logarithm of 0 is taken
    # (the suite turns its RuntimeWarning into an error), and no slope exists
    problem = Scenario(n=16, modes=8, running_weight=0.0, terminal_weight=0.0).problem
    out = harness.duality_slope(problem)
    assert out["gaps"] == [0.0, 0.0, 0.0]
    assert np.isnan(out["slope"])


def test_convergence_study_needs_first_order_gaps_above_roundoff(tmp_path, monkeypatch):
    def first_order_failure(problem):
        return {"dts": [4e-3, 2e-3, 1e-3], "gaps": [1e-6] * 3, "slope": 0.0}

    monkeypatch.setattr(harness, "duality_slope", first_order_failure)
    record = run(Scenario(**EXACT_DUALITY), "convergence-study", tmp_path)
    assert record.summary["deterministic_rate"] >= 0.9
    assert record.summary["stochastic_rate"] >= 0.4
    assert not record.passed


def test_duality_slope_reports_the_steps_that_ran(monkeypatch):
    # T = 0.35 is no whole number of 4e-3 steps; the fit and the table take
    # the step each run took, T/N
    T, ran = 0.35, []
    real = harness.integrate_ensemble

    def recording(problem, control, seed):
        ran.append(problem.timegrid.N)
        return real(problem, control, seed)

    monkeypatch.setattr(harness, "integrate_ensemble", recording)
    slope = harness.duality_slope(Scenario(n=16, modes=8, horizon=T).problem)
    assert ran == [round(T / dt) for dt in (4e-3, 2e-3, 1e-3)]
    assert slope["dts"] == [T / N for N in ran]
    assert slope["dts"][0] != 4e-3


def test_cli_convergence_study_horizon_too_short_exits_2(tmp_path, capsys):
    scenario_path = tmp_path / "short.ini"
    scenario_path.write_text("[time]\nhorizon = 0.001\n")
    code = main(["convergence-study", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


def test_cli_convergence_study_unstable_study_step_exits_2(tmp_path, capsys):
    # dt*I_ion'(14) = 0.55 at the scenario's dt = 1e-3 but 2.2 at the duality
    # study's 4e-3: the study's derived problem fails before any integration
    scenario_path = tmp_path / "stiff.ini"
    scenario_path.write_text("[initial]\nv0 = constant:14\n")
    out = tmp_path / "out"
    code = main(["convergence-study", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert "unstable" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_cli_convergence_study_unstable_refinement_step_exits_2(tmp_path, capsys):
    # dt*I_ion'(7) = 0.52 at the duality study's 4e-3 but 2.03 at the
    # deterministic refinement's coarsest step T/32: the refinement study
    # fails before any integration, and no rate is reported
    scenario_path = tmp_path / "stiff.ini"
    scenario_path.write_text("[initial]\nv0 = constant:7\n")
    out = tmp_path / "out"
    code = main(["convergence-study", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert "unstable" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_cli_convergence_study_caps_the_modes_at_the_grid(tmp_path, capsys):
    # a noise-free scenario may keep the default modes = 32 above n = 32's
    # exact truncation 31: the study's 24-path problem takes the 31 modes
    scenario_path = tmp_path / "n32.ini"
    scenario_path.write_text("[grid]\nn = 32\n[time]\nsteps = 50\nhorizon = 0.5\n")
    out = tmp_path / "out"
    assert main(["convergence-study", "--scenario", str(scenario_path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("sigma", [0.1, 0.0])
def test_convergence_study_passes_at_rest(tmp_path, sigma):
    # every deterministic level ends at exactly 0, and every stochastic one
    # too when the noise is off, so those errors are 0: no rate, as no
    # duality slope where every gap is 0, and no failed check
    record = run(Scenario(**AT_REST, sigma1=sigma, sigma2=sigma), "convergence-study", tmp_path)
    assert record.passed
    assert np.isnan(record.summary["deterministic_rate"])
    assert np.isnan(record.summary["duality_slope"])
    rows = [line.split(",") for line in (tmp_path / "convergence.csv").read_text().split("\n")[1:-1]]
    assert [float(row[2]) for row in rows if row[0] == "deterministic"] == [0.0, 0.0, 0.0]
    if sigma == 0.0:
        assert [float(row[2]) for row in rows if row[0] == "stochastic"] == [0.0, 0.0, 0.0]
        assert np.isnan(record.summary["stochastic_rate"])
    else:
        assert record.summary["stochastic_rate"] >= 0.4


def test_manifest_and_printed_record_are_strict_json(tmp_path, capsys):
    # RFC 8259 has no NaN: a zero-cost study has no duality slope, and its
    # summary value is null in the manifest and in the printed record
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    scenario_path = tmp_path / "zero_cost.ini"
    zero_cost = Scenario(n=16, steps=40, horizon=0.2, modes=8, running_weight=0.0, terminal_weight=0.0)
    save_scenario(zero_cost, scenario_path)
    out = tmp_path / "out"
    assert main(["convergence-study", "--scenario", str(scenario_path), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    for summary in (printed["summary"], manifest["summary"]):
        assert summary["duality_slope"] is None
        assert summary["deterministic_rate"] >= 0.9 and summary["stochastic_rate"] >= 0.4


def test_cli_undecodable_scenario_exits_2(tmp_path, capsys):
    # a scenario file is UTF-8 text: one that does not decode is a
    # configuration error that names the file, not a traceback
    scenario_path = tmp_path / "bad.ini"
    scenario_path.write_bytes(b"\xff[grid]\nn = 16\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(scenario_path) in err and "utf-8" in err
    assert not out.exists()


def test_cli_scenario_with_a_byte_order_mark_runs(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark: the file reads
    # as without it, and bytes that are not UTF-8 after the mark still exit 2
    text = "[grid]\nn = 16\n[time]\nsteps = 40\nhorizon = 0.2\n[noise]\nmodes = 8\n"
    scenario_path = tmp_path / "bom.ini"
    scenario_path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["n"] == 16
    plain = tmp_path / "plain.ini"
    plain.write_text(text, encoding="utf-8")
    assert manifest["scenario_digest"] == load_scenario(str(plain)).digest()
    capsys.readouterr()
    scenario_path.write_bytes(b"\xef\xbb\xbf\xff" + text.encode())
    out = tmp_path / "out2"
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(scenario_path) in err and "utf-8" in err
    assert not out.exists()


def test_verify_invariants_command(tmp_path):
    record = run(Scenario(**SMALL), "verify-invariants", tmp_path)
    assert record.passed
    lines = (tmp_path / "invariants.csv").read_text().strip().split("\n")
    assert lines[0] == "name,passed,detail"
    assert all(line.split(",")[1] == "1" for line in lines[1:])
    # every row reads the problem: no row compares fixed spectra
    assert [line.split(",")[0] for line in lines[1:]] == [
        "laplacian_self_adjoint", "laplacian_negative_semidefinite", "eigenmode_orthonormal",
        "eigen_identity", "weighted_skew_cancellation", "operator_dissipative",
        "one_sided_lipschitz", "actuator_adjointness", "implicit_solver_adjointness",
        "implicit_solver_inverts_operator", "equilibrium_preserved", "integration_deterministic",
        "cost_scaling_equivariance", "duality_exact_linear",
    ]
    assert record.summary["total"] == 14


def test_cli_verify_gradient_exit_code(tmp_path):
    scenario_path = tmp_path / "scn.ini"
    save_scenario(Scenario(**SMALL), scenario_path)
    code = main(
        [
            "verify-gradient",
            "--scenario", str(scenario_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "gradient_check.csv").exists()


def test_cli_bad_scenario_exits_2(tmp_path, capsys):
    # a value that fails validation, and files the INI parser rejects (no
    # section header, a repeated key, a repeated section), are configuration
    # errors; exit 1 is a failed check.  The parser's errors name the file.
    # [DEFAULT] is an unknown section, not keys merged into every other one
    texts = [
        "[cost]\nalpha = -1.0\n",
        "n = 64\n",
        "[grid]\nn = 16\nn = 32\n",
        "[grid]\nn = 16\n[grid]\nd = 1\n",
        "[DEFAULT]\nn = 5\n",
        "[DEFAULT]\nn = 5\n[grid]\nd = 1\n",
        "[DEFAULT]\nn = 5\n[time]\nsteps = 10\n",
        "[DEFAULT]\n",
    ]
    out = tmp_path / "out"
    for i, text in enumerate(texts):
        scenario_path = tmp_path / f"bad{i}.ini"
        scenario_path.write_text(text)
        code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == 2, text
        assert not out.exists()
        err = capsys.readouterr().err
        if text.startswith("[DEFAULT]"):
            assert "[DEFAULT]" in err, err
        else:
            assert i == 0 or str(scenario_path) in err, err


def test_cli_removed_theta_switch_exits_2(tmp_path, capsys):
    # no optimize run perturbs its step any longer: the retired switch is an
    # unknown key.  Its name is spelled in parts, so that it appears nowhere else
    key = "_".join(("use", "theta"))
    scenario_path = tmp_path / "theta.ini"
    scenario_path.write_text(f"[run]\n{key} = true\n")
    out = tmp_path / "out"
    assert main(["optimize", "--scenario", str(scenario_path), "--out", str(out)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("seed", np.int64(3)), ("n", np.int64(12)), ("linear", np.bool_(False))]
)
def test_numpy_scalar_field_rejected_before_output(tmp_path, key, value):
    # the command used to run and write its artifacts, and then the digest
    # failed to serialize the scalar, leaving a directory with no manifest
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match=f"^{key} must be"):
        run(Scenario(**{**SMALL, key: value}), "simulate", out)
    assert not out.exists()


def test_negative_seed_rejected_before_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="seed"):
        run(Scenario(**SMALL, mode="stochastic", seed=-1), "simulate", out)
    with pytest.raises(ConfigurationError, match="seed"):
        run(Scenario(**SMALL, mode="stochastic"), "simulate", out, seed=-1)
    assert not out.exists()
    assert main(["simulate", "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode, command", [("deterministic", "optimize"), ("stochastic", "simulate")])
def test_non_integer_seed_rejected_before_output(tmp_path, mode, command):
    # a float seed is a configuration error before any output, whether or
    # not the run draws noise
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        run(Scenario(**SMALL, mode=mode), command, out, seed=1.5)
    assert not out.exists()


def test_an_integer_seed_of_any_type_is_recorded_as_an_int(tmp_path):
    run(Scenario(**SMALL, mode="stochastic"), "simulate", tmp_path, seed=np.int64(7))
    seed = json.loads((tmp_path / "manifest.json").read_text())["seed"]
    assert type(seed) is int and seed == 7
    assert load_snapshot(tmp_path / "trajectory_path0.npz")[1] == 7


def test_cli_unstable_step_size_exits_2_before_output(tmp_path, capsys):
    scenario_path = tmp_path / "stiff.ini"
    save_scenario(Scenario(steps=5, v0="constant:10"), scenario_path)
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert "dt=0.1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_noise_free_run_skips_the_noise_truncation_check(tmp_path, capsys):
    # a noise-free run draws no modes: the default modes=32 above n=32's
    # exact truncation 31 is an error only once the noise is on
    for mode, code in (("deterministic", 0), ("stochastic", 2)):
        scenario_path = tmp_path / f"{mode}.ini"
        save_scenario(Scenario(n=32, steps=50, horizon=0.1, max_iters=3, mode=mode), scenario_path)
        out = tmp_path / mode
        assert main(["optimize", "--scenario", str(scenario_path), "--out", str(out)]) == code
    assert "modes=32 above the grid's exact truncation 31" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_prints_summary(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "simulate"
    assert payload["passed"] is True


def test_cli_reads_each_file_spec_once(tmp_path, monkeypatch):
    # specs are built once per scenario, and every command shares the build
    v0 = tmp_path / "v0.npz"
    np.savez(v0, v=np.full(SMALL["n"], 0.3))
    mask = tmp_path / "mask.npz"
    np.savez(mask, m=np.ones(SMALL["n"]))
    scenario_path = tmp_path / "scn.ini"
    save_scenario(Scenario(**SMALL, v0=f"file:{v0}:v", mask=f"file:{mask}"), scenario_path)
    loads = []
    real_load = np.load

    def counting_load(path, *args, **kwargs):
        loads.append(str(path))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting_load)
    for command in ("simulate", "optimize", "verify-gradient", "verify-invariants"):
        loads.clear()
        out = tmp_path / command
        assert main([command, "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert sorted(loads) == sorted([str(v0), str(mask)]), command


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("time", "horizon", "nan"),
        ("dynamics", "forcing", "inf"),
        ("dynamics", "a", "nan"),
        ("grid", "ell", "inf"),
        ("cost", "alpha", "inf"),
        ("run", "tol", "nan"),
        ("noise", "sigma1", "nan"),
        ("initial", "v0", "file:{nan}"),
        ("actuator", "mask", "file:{nan}"),
        ("cost", "x_ref", "constant:-inf"),
    ],
)
def test_cli_non_finite_input_exits_2_before_output(tmp_path, capsys, section, key, value):
    # a NaN or infinity would otherwise fail mid-run or pass unnoticed
    nan = tmp_path / "nan.npz"
    np.savez(nan, a=np.full(64, np.nan))
    scenario_path = tmp_path / "bad.ini"
    scenario_path.write_text(f"[{section}]\n{key} = {value.format(nan=nan)}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, spec",
    [
        ("initial", "w0", "constant:abc"),
        ("initial", "v0", "file:{npz}:b"),
        ("initial", "w0", "file:{npy}"),
        ("initial", "v0", "file:{ini}"),
        ("initial", "v0", "file:{empty}"),
        ("initial", "w0", "file:{missing}"),
        ("actuator", "mask", "file:{notzip}"),
        ("cost", "x_ref", "file:{corrupt}"),
        ("cost", "x_target", "file:{noarrays}"),
        ("actuator", "mask", "halfway"),
        ("actuator", "mask", "file:{npz}:b"),
        ("cost", "x_ref", "modes:2:x"),
        ("cost", "x_target", "constant:0.1|sideways:1"),
    ],
)
def test_cli_bad_field_spec_exits_2_before_output(tmp_path, capsys, section, key, spec):
    # every field and mask spec is built during validation, so a bad one
    # fails with a configuration error before the output directory exists
    npz = tmp_path / "m.npz"
    np.savez(npz, a=np.zeros(64))
    npy = tmp_path / "m.npy"
    np.save(npy, np.zeros(64))
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    notzip = tmp_path / "notzip.npz"
    notzip.write_bytes(b"PK\x03\x04 not a zip archive")
    corrupt = tmp_path / "corrupt.npz"  # a valid archive whose member fails its CRC
    np.savez(corrupt, a=np.ones(64))
    data = bytearray(corrupt.read_bytes())
    data[data.index(np.ones(64).tobytes())] ^= 0xFF
    corrupt.write_bytes(bytes(data))
    noarrays = tmp_path / "noarrays.npz"
    np.savez(noarrays)
    scenario_path = tmp_path / "bad.ini"
    spec = spec.format(
        npz=npz, npy=npy, ini=scenario_path, empty=empty, notzip=notzip, corrupt=corrupt,
        noarrays=noarrays, missing=tmp_path / "missing.npz",
    )
    scenario_path.write_text(f"[{section}]\n{key} = {spec}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err
    if spec.startswith("file:"):
        assert spec.split(":")[1] in err  # the path
    assert not out.exists()


def test_cli_subcommands_are_the_command_table():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(helps) == list(COMMANDS)
    assert all(helps[name] for name in COMMANDS)


def test_percent_in_a_file_spec_is_read_literally(tmp_path):
    # an INI value holding % is a path, not an interpolation
    path = tmp_path / "v0_100%.npz"
    np.savez(path, v=np.linspace(0.0, 0.3, SMALL["n"]))
    s = Scenario(**SMALL, v0=f"file:{path}")
    scenario_path = tmp_path / "scn.ini"
    save_scenario(s, scenario_path)
    assert load_scenario(scenario_path) == s
    run(s, "simulate", tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert f"v0 = file:{path}" in manifest["scenario_text"]
