"""The benchmark worker builds and times each workload's scenario through
the package's names (`Scenario.validate` and the seven `build_*` methods);
a renamed one would otherwise surface only when the benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_names() -> list:
    # plain Python, no numpy: loading it runs no benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.WORKLOADS)


@pytest.mark.parametrize("workload", _workload_names())
def test_worker_setup_runs(tmp_path, workload):
    # the worker puts the checkout's own src/ first on its path
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "worker.py"),
            "--workload", workload, "--seed", "0", "--out", str(tmp_path / "out"),
            "--setup-only",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout)
