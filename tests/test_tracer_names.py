"""The benchmark tracer looks package functions up by name; keep them there."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fhn_control

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> dict:
    # the tracer module is stdlib-only and importing it installs nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_in_the_package():
    names = _traced_names()
    assert names
    missing = []
    for qualname in names:
        module_name, fn_name = qualname.rsplit(".", 1)
        module = importlib.import_module(f"fhn_control.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(qualname)
    assert not missing, f"traced names missing from fhn_control: {missing}"


def test_traced_simulate_counts_one_integration_per_path(tmp_path):
    # the benchmark's self-check pins these relations on its simulate
    # workload: one integrate call per path, and one Helmholtz solve and
    # one noise stream per path step; a fresh interpreter, as the
    # benchmark worker uses, lets the tracer wrap the package's own functions
    M, N = 3, 10
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "import fhn_control\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "scenario = fhn_control.Scenario(\n"
        f"    mode='stochastic', d=1, n=12, modes=6, steps={N}, horizon=0.1, ensemble={M}\n"
        ")\n"
        f"assert fhn_control.harness.run(scenario, 'simulate', {str(tmp_path / 'out')!r}).passed\n"
        "m = tracer.metrics()\n"
        "print(m['forward.integrate.calls'], m['grid.helmholtz_solve.calls'],"
        " m['noise.increment_stream.calls'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fhn_control.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    integrate_calls, helmholtz_calls, stream_calls = map(int, proc.stdout.split())
    assert integrate_calls == M
    assert helmholtz_calls == M * N
    assert stream_calls == M * N
