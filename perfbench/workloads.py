"""Workload definitions, reference values and output checks.

Plain Python only (no numpy), so the parent process stays light and the
worker can time `import fhn_control` itself.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

#: name -> (CLI command, Scenario overrides).  Every other value is a
#: Scenario default.  The seed is a benchmark argument, never fixed here.
WORKLOADS = {
    # forward step + noise only: ensemble batching, noise streams, 1-D
    # Helmholtz solve and energy_report; no adjoint, no optimizer
    "sim_ensemble_1d": (
        "simulate",
        dict(mode="stochastic", d=1, n=64, modes=32, steps=500, horizon=0.5, ensemble=50),
    ),
    # the stochastic optimizer of acceptance criterion 7, shortened: adds the
    # regression adjoint and repeated integrations per control
    "opt_stoch_1d": (
        "optimize",
        dict(mode="stochastic", d=1, n=64, steps=200, horizon=0.2, ensemble=30, max_iters=20),
    ),
    # deterministic 2-D optimizer: the DCT Helmholtz path, the exact-transpose
    # sweep and CSV writing; noise, regression and ensemble code stay idle
    "opt_det_2d": (
        "optimize",
        dict(
            mode="deterministic", d=2, n=48, steps=250, horizon=1.0,
            mask="left_half", x_ref="modes:2:0.3,3:-0.2",
        ),
    ),
}

#: Reference values, from `python3 perfbench/reference.py` over seeds
#: 1001-1016 (stochastic) or any seed (deterministic).  For stochastic
#: workloads `sd` is the spread of one run's value across seeds, i.e. the
#: Monte Carlo standard error of a single run.
REFERENCE = {
    "sim_ensemble_1d": {"key": "mean_sup_h_sq", "mean": 0.06944921488979074, "sd": 0.002816087651655682},
    "opt_stoch_1d": {"key": "psi_final", "mean": 0.00725814817955768, "sd": 0.00022733291154459307},
    "opt_det_2d": {"key": "psi_final", "mean": 0.05525348489001742, "rel_tol": 1.0e-9},
}

#: A stochastic value passes within this many standard errors.
MC_SIGMAS = 5.0

#: Tracer self-check: counts that must come out exactly on a traced run.
EXACT_COUNTS = {
    "sim_ensemble_1d": {
        "grid.helmholtz_solve.calls": 50 * 500,
        "noise.increment_stream.calls": 50 * 500,
        "forward.integrate.calls": 50,
    },
}


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _all_finite(rows: list, columns: tuple) -> bool:
    return bool(rows) and all(math.isfinite(float(r[c])) for r in rows for c in columns)


def check_outputs(workload: str, tol: float, passed: bool, summary: dict, out: Path) -> list:
    """Return a list of failure messages for one harness run (empty if good)."""
    command, overrides = WORKLOADS[workload]
    ref = REFERENCE[workload]
    failures = []
    if not passed:
        failures.append("run record reports passed=False")
    value = float(summary[ref["key"]])
    if command == "simulate":
        rows = _read_csv(out / "energy.csv")
        if len(rows) != overrides["ensemble"]:
            failures.append(f"energy.csv has {len(rows)} paths, expected {overrides['ensemble']}")
        if not _all_finite(rows, ("sup_h_sq", "int_v_sq")):
            failures.append("energy.csv holds non-finite energies")
        mean = sum(float(r["sup_h_sq"]) for r in rows) / max(len(rows), 1)
        if not math.isclose(mean, value, rel_tol=1.0e-12):
            failures.append(f"energy.csv mean {mean!r} disagrees with summary {value!r}")
    else:
        if not summary["converged"]:
            failures.append("optimizer did not converge")
        if not summary["certificate_residual"] <= 10.0 * tol:
            failures.append(f"certificate residual {summary['certificate_residual']!r} > 10*tol")
        rows = _read_csv(out / "history.csv")
        if not _all_finite(rows, ("psi", "residual")):
            failures.append("history.csv holds non-finite values")
    if "rel_tol" in ref:
        if not abs(value - ref["mean"]) <= ref["rel_tol"] * abs(ref["mean"]):
            failures.append(f"{ref['key']}={value!r}, reference {ref['mean']!r}")
    elif not abs(value - ref["mean"]) <= MC_SIGMAS * ref["sd"]:
        failures.append(
            f"{ref['key']}={value!r} is more than {MC_SIGMAS} standard errors "
            f"({ref['sd']:.3g}) from the reference {ref['mean']!r}"
        )
    return failures
