"""Command line entry point.

The subcommands are `harness.COMMANDS`, in order, each with its command's
docstring as help; artifacts and a manifest land in the output directory.
Verification subcommands exit nonzero when a check fails, configuration
problems exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BlowUpError, ConfigurationError, ContractViolation
from .harness import COMMANDS, json_summary, run
from .scenario import Scenario, load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-control",
        description="Simulation, adjoint, and optimal-control runs for the "
        "stochastic FitzHugh-Nagumo system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.__doc__)
        cmd.add_argument(
            "--scenario",
            default=None,
            help="scenario file (INI); defaults apply when omitted",
        )
        cmd.add_argument("--out", required=True, help="output directory for artifacts")
        cmd.add_argument(
            "--seed", type=int, default=None, help="override the scenario seed"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario) if args.scenario else Scenario()
        record = run(scenario, args.command, args.out, seed=args.seed)
    except (ConfigurationError, ContractViolation, BlowUpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "command": record.command,
                "digest": record.digest,
                "passed": record.passed,
                "wall_time": round(record.wall_time, 3),
                "summary": json_summary(record.summary),
                "artifacts": record.artifacts,
            },
            indent=2,
            default=str,
            allow_nan=False,
        )
    )
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
