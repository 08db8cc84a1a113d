"""Harness commands, manifests, artifact reproducibility, and the CLI."""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fhn_control
from fhn_control import harness
from fhn_control.adjoint import ADJOINT_SWEEP
from fhn_control.cli import main
from fhn_control.errors import ConfigurationError
from fhn_control.forward import CONTROL_FORMAT, SNAPSHOT_FORMAT, load_snapshot
from fhn_control.grid import HELMHOLTZ_SOLVER
from fhn_control.harness import COMMANDS, gradient_check, invariant_checks, run
from fhn_control.scenario import Scenario, save_scenario

SMALL = dict(n=12, steps=30, horizon=0.1, modes=6, ensemble=4)


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
    assert manifest["versions"]["scipy"] == importlib.metadata.version("scipy")
    assert manifest["formats"]["snapshot"] == SNAPSHOT_FORMAT
    assert manifest["formats"]["helmholtz"] == HELMHOLTZ_SOLVER
    assert manifest["formats"]["adjoint"] == ADJOINT_SWEEP


def test_simulate_does_not_import_scipy(tmp_path):
    # below the dense-solve crossover nothing on the run path needs scipy;
    # a fresh interpreter shows whether any module still imports it
    code = (
        "import sys\n"
        "import fhn_control\n"
        "from fhn_control.harness import run\n"
        "from fhn_control.scenario import Scenario\n"
        f"scenario = Scenario(**{SMALL!r}, mode='stochastic')\n"
        f"assert run(scenario, 'simulate', {str(tmp_path / 'out')!r}).passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fhn_control.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_optimize_artifacts_and_history(tmp_path):
    record = run(Scenario(**SMALL, tol=1e-5, max_iters=15), "optimize", tmp_path)
    assert record.passed
    assert record.summary["converged"]
    history = (tmp_path / "history.csv").read_text().strip().split("\n")
    assert history[0].startswith("iteration,psi,residual")
    assert len(history) >= 2
    assert (tmp_path / "control.npz").exists()
    assert (tmp_path / "state_path0.npz").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["formats"]["control"] == CONTROL_FORMAT
    assert manifest["formats"]["snapshot"] == SNAPSHOT_FORMAT
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
    np.testing.assert_array_equal(back.v, report.ensemble.v[:, 0])
    np.testing.assert_array_equal(back.w, report.ensemble.w[:, 0])
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
    errors = gradient_check(Scenario(**SMALL), n_directions=2, seed=0)
    assert max(errors) <= 1e-6


def test_invariant_battery_all_pass():
    checks = invariant_checks(Scenario(**SMALL), seed=0)
    failed = [name for name, ok, _ in checks if not ok]
    assert failed == []
    assert len(checks) >= 12


def test_verify_invariants_command(tmp_path):
    record = run(Scenario(**SMALL), "verify-invariants", tmp_path)
    assert record.passed
    lines = (tmp_path / "invariants.csv").read_text().strip().split("\n")
    assert lines[0] == "name,passed,detail"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


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


def test_cli_bad_scenario_exits_2(tmp_path):
    scenario_path = tmp_path / "bad.ini"
    scenario_path.write_text("[cost]\nalpha = -1.0\n")
    code = main(
        ["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_negative_seed_rejected_before_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="seed"):
        run(Scenario(**SMALL, mode="stochastic", seed=-1), "simulate", out)
    with pytest.raises(ConfigurationError, match="seed"):
        run(Scenario(**SMALL, mode="stochastic"), "simulate", out, seed=-1)
    assert not out.exists()
    assert main(["simulate", "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


def test_cli_unstable_step_size_exits_2_before_output(tmp_path, capsys):
    scenario_path = tmp_path / "stiff.ini"
    save_scenario(Scenario(steps=5, v0="constant:10"), scenario_path)
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert "dt=0.1" in capsys.readouterr().err
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
