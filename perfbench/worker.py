"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Times `import fhn_control` plus `Scenario.validate()` and the `build_*`
calls (setup_s), then one `fhn_control.harness.run` (wall_s), then checks
the run's outputs.  Prints one JSON object.  BLAS threads must be pinned by
the caller, before this interpreter imports numpy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import EXACT_COUNTS, WORKLOADS, check_outputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    command, overrides = WORKLOADS[args.workload]

    start = time.perf_counter()
    import fhn_control

    scenario = fhn_control.Scenario(**overrides)
    scenario.validate()
    for build in (
        scenario.build_params, scenario.build_grid, scenario.build_cov,
        scenario.build_actuator, scenario.build_timegrid, scenario.build_cost,
        scenario.build_initial_state,
    ):
        build()
    result = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    record = fhn_control.harness.run(scenario, command, args.out, seed=args.seed)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["failures"] = check_outputs(
        args.workload, scenario.tol, record.passed, record.summary, Path(args.out)
    )
    result["scenario_digest"] = scenario.digest()
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fhn_control": fhn_control.__version__,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["control.optimize.iterations"] = record.summary.get("iterations", 0)
        for key, expected in EXACT_COUNTS.get(args.workload, {}).items():
            if layers[key] != expected:
                result["failures"].append(f"tracer self-check: {key}={layers[key]}, expected {expected}")
        tracer.write(Path(args.out).parent / f"spans-{args.workload}-seed{args.seed}.csv")
        result["layers"] = layers
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
