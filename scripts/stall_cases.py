"""The optimizer's stall cases: how far `optimize` gets where the plain
fixed-point loop stalls.

    PYTHONPATH=src python3 scripts/stall_cases.py [--cases NAME,...] [--max-iters 100]

Each case is deterministic and runs at seed 7 and tol 1e-6 (the linear
cases at tol 1e-10).  Prints one JSON line per case: iterations, whether it
converged, the certificate residual, Psi, the integrations and Anderson
steps the run took, and its wall time.  The last line is one JSON object
holding every case and the versions.  Point PYTHONPATH at another tree's
`src/` to measure that tree with the same cases.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time

import numpy as np

import fhn_control
import fhn_control.control as control_module
from fhn_control.grid import StateX
from fhn_control.scenario import Scenario

SEED = 7


def _front(alpha: float, mask: str):
    """The travelling excitation front: v0 = 1 on x < 2, tracking zero."""
    problem = Scenario(
        n=64, ell=20.0, a=0.1, gamma=0.01, delta=0.01, horizon=10.0, steps=500,
        terminal_weight=0.0, alpha=alpha, mask=mask, v0="constant:0.0",
    ).problem
    grid = problem.grid
    x0 = StateX(np.where(grid.axis_coords() < 2.0, 1.0, 0.0), grid.zeros())
    return dataclasses.replace(problem, x0=x0)


def _linear(alpha: float, horizon: float):
    """A linear-quadratic problem whose plain map does not contract."""
    return Scenario(
        n=8, steps=20, horizon=horizon, linear=True, alpha=alpha, terminal_weight=0.1,
        mask="left_half", x_ref="constant:1.0",
    ).problem


CASES = {
    "tier1_sized": (
        lambda: Scenario(
            n=16, steps=100, horizon=1.0, alpha=0.05, mask="left_half", x_ref="constant:1.0"
        ).problem,
        1.0e-6,
    ),
    "n32_N400": (
        lambda: Scenario(
            n=32, steps=400, horizon=2.0, alpha=0.1, mask="left_half", x_ref="constant:1.0"
        ).problem,
        1.0e-6,
    ),
    "stiff_tracking": (
        lambda: Scenario(alpha=0.01, running_weight=10.0, x_ref="constant:1.0").problem,
        1.0e-6,
    ),
    "front_full_mask": (lambda: _front(0.1, "ones"), 1.0e-6),
    "front_half_mask": (lambda: _front(0.01, "left_half"), 1.0e-6),
    "linear_rho_1.235": (lambda: _linear(0.1, 1.0), 1.0e-10),
    "linear_rho_7.58": (lambda: _linear(0.05, 2.0), 1.0e-10),
}


def run_case(name: str, max_iters: int) -> dict:
    build, tol = CASES[name]
    problem = build()
    integrations = []
    real_integrate = control_module.integrate_ensemble

    def counting_integrate(*args, **kwargs):
        integrations.append(1)
        return real_integrate(*args, **kwargs)

    control_module.integrate_ensemble = counting_integrate
    try:
        start = time.perf_counter()
        report = control_module.optimize(problem, seed=SEED, tol=tol, max_iters=max_iters)
        wall = time.perf_counter() - start
    finally:
        control_module.integrate_ensemble = real_integrate
    return {
        "case": name,
        "tol": tol,
        "iterations": len(report.iterations),
        "converged": report.converged,
        "certificate_residual": report.certificate_residual,
        "psi_final": report.psi_final,
        "integrations": len(integrations),
        "anderson_steps": sum(it.get("direction") == "anderson" for it in report.iterations),
        "wall_s": round(wall, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", default=",".join(CASES))
    parser.add_argument("--max-iters", type=int, default=100)
    args = parser.parse_args(argv)
    rows = []
    for name in args.cases.split(","):
        rows.append(run_case(name, args.max_iters))
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({
        "max_iters": args.max_iters,
        "seed": SEED,
        "fhn_control": fhn_control.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
