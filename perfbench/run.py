"""fhn-control benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  `--trace 0` repeats the workload in fresh
worker processes for about S seconds and reports the medians of the
end-to-end metrics;
`--trace 1` runs it untraced, traced and untraced again and reports the
per-layer metrics.  Every run's outputs are checked.  Lines before the last
are for people; the last line is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_out"

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

#: Set-up-only interpreters started before the timed repetitions.
SETUP_SAMPLES = 7

#: BLAS and OpenMP pools pinned to one thread before numpy is imported.
PINNED_ENV = {
    key: "1"
    for key in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

#: Every worker is killed once the whole run has taken this long.
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker(deadline: float, workload: str, seed: int, tag: str, *flags: str) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON record."""
    out = WORK / f"{workload}-seed{seed}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fhn_control" / "__init__.py").is_file():
        return fail(f"no fhn_control sources under {ROOT / 'src'}; run from a checkout")
    if "FHN_CONTROL_WORKERS" in os.environ:
        return fail("FHN_CONTROL_WORKERS is set; unset it so the default path is measured")
    WORK.mkdir(exist_ok=True)

    reps = []
    failures = []
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    try:
        # the set-up samples come first: they also bring the machine out of
        # idle, which otherwise slows the first timed repetition
        setups = [
            worker(deadline, args.workload, args.seed, "setup", "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        if args.trace:
            # untraced runs on both sides of the traced one cancel a linear
            # drift in machine speed out of the overhead estimate
            for tag, flags in (("untraced", ()), ("traced", ("--trace",)), ("untraced", ())):
                reps.append(worker(deadline, args.workload, args.seed, tag, *flags))
        else:
            # stop before a repetition that would run past the budget
            while True:
                reps.append(worker(deadline, args.workload, args.seed, "rep"))
                elapsed = time.perf_counter() - started
                typical = statistics.median(r["wall_s"] + r["setup_s"] for r in reps)
                if elapsed + typical > args.seconds:
                    break
            setups += [r["setup_s"] for r in reps]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    for i, rep in enumerate(reps):
        failures += [f"repetition {i}: {msg}" for msg in rep["failures"]]
    if args.trace:
        traced = reps[1]
        untraced = (reps[0]["wall_s"] + reps[2]["wall_s"]) / 2.0
        values = dict(traced["layers"])
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_s"] = traced["wall_s"] - untraced
        units = PER_LAYER
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in reps],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        units = END_TO_END

    first = reps[0]
    record = {
        "workload": args.workload,
        "command": WORKLOADS[args.workload][0],
        "seed": args.seed,
        "scenario_digest": first["scenario_digest"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        **first["versions"],
        "repetitions": len(reps),
    }
    print("environment " + json.dumps(record, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    for name, unit in units:
        line = f"{name} = {values[name]:.6g} {unit}"
        if not args.trace:
            v = samples[name]
            lo, hi = quartiles(v)
            line += f"  (median of {len(v)}; samples: min {min(v):.6g}, quartiles {lo:.6g} .. "
            line += f"{hi:.6g}, all {' '.join(f'{x:.4g}' for x in v)})"
        print(line)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(reps),
                "failed": sum(1 for r in reps if r["failures"]),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
