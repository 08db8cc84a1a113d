"""Span tracer that wraps the package's public functions from outside.

Nothing under `src/` is edited: each traced function is replaced, in every
`fhn_control` module that binds it (its home module and every
`from .x import y` site), by a wrapper that records a span.  Spans live in
memory as `[name, parent index, start, end, note]` and are written out once
the run is over.  The process is single-threaded (FHN_CONTROL_WORKERS is
refused), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

#: Traced functions, as "<module>.<function>" in `fhn_control`, mapped to an
#: optional (argument name, note function) recorded with each span.
#: `dynamics` runs inside `forward.step` and the sweeps and is counted in
#: their self time; `scenario` and `cli` are covered by `setup_s`.
TRACED = {
    "grid.helmholtz_solve": None,
    "noise.increment_stream": None,
    "noise.sample_increment": None,
    "forward.integrate": ("timegrid", lambda tg: tg.N),
    "forward.integrate_ensemble": (
        "control", lambda u: hashlib.sha1(u.values.tobytes()).hexdigest()
    ),
    "forward.energy_report": None,
    "adjoint.solve_adjoint_deterministic": None,
    "adjoint.solve_adjoint_regression": None,
    "adjoint.control_signal": None,
    "control.psi_estimate": None,
    "control.optimize": None,
    "harness.run": None,
}

#: Per-layer metrics a traced run reports, with units.
PER_LAYER = [
    (f"{name}.{kind}", unit)
    for name in TRACED
    for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
] + [
    ("grid.helmholtz_solve.us_per_call", "us"),
    ("forward.path_steps", "count"),
    ("adjoint.control_signal.helmholtz_calls", "count"),
    ("control.optimize.iterations", "count"),
    ("control.integrations_per_control", "ratio"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if note is not None:
                arg, describe = note
                info = describe(signature.bind(*args, **kwargs).arguments[arg])
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, info]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "fhn_control") -> None:
        """Rebind every traced function in every loaded module of `package`."""
        modules = [
            m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")
        ]
        for qualname, note in TRACED.items():
            module, fn_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module}"], fn_name)
            traced = self._wrap(qualname, original, note)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end,note\n")
            for i, (name, parent, t0, t1, info) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{t0!r},{t1!r},{'' if info is None else info}\n")

    def metrics(self) -> dict:
        """Per-layer counts, busy and self seconds, plus derived values."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        notes = defaultdict(list)
        for i, (name, _, t0, t1, info) in enumerate(spans):
            calls[name] += 1
            busy[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            notes[name].append(info)
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        helm = "grid.helmholtz_solve"
        out[f"{helm}.us_per_call"] = 1.0e6 * busy[helm] / max(calls[helm], 1)
        out["forward.path_steps"] = sum(notes["forward.integrate"])
        out["adjoint.control_signal.helmholtz_calls"] = sum(
            1
            for name, parent, *_ in spans
            if name == helm and self._has_ancestor(parent, "adjoint.control_signal")
        )
        controls = notes["forward.integrate_ensemble"]
        out["control.integrations_per_control"] = len(controls) / max(len(set(controls)), 1)
        out["trace.spans"] = len(spans)
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False
