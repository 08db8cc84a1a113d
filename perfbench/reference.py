"""Recompute the reference values recorded in `workloads.REFERENCE`.

    python3 perfbench/reference.py WORKLOAD [FIRST_SEED [COUNT]]

Runs the workload once per seed (default seeds 1001-1016) and prints the
mean and the sample standard deviation of its checked summary value.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import PINNED_ENV  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402

os.environ.update(PINNED_ENV)
import fhn_control  # noqa: E402


def main() -> int:
    workload = sys.argv[1]
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1001
    count = int(sys.argv[3]) if len(sys.argv) > 3 else 16
    command, overrides = WORKLOADS[workload]
    key = REFERENCE[workload]["key"]
    values = []
    for seed in range(first, first + count):
        out = HERE / "_out" / f"reference-{workload}-seed{seed}"
        record = fhn_control.harness.run(fhn_control.Scenario(**overrides), command, out, seed=seed)
        shutil.rmtree(out, ignore_errors=True)
        values.append(float(record.summary[key]))
        print(f"seed {seed}: {key} = {values[-1]!r}", flush=True)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    print(f"{workload}: {key} mean {statistics.fmean(values)!r} sd {sd!r} over {len(values)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
