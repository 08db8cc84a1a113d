"""The benchmark tracer looks package functions up by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

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
