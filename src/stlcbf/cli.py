"""Command line front end.

    synth run <config> [--trace out.csv] [--report out.txt] [--dt X] [--seed N]
    synth check <config>
    synth monitor <trace.csv> <config>

<config> is a file path or the name of a shipped preset (paper_sec6,
infeasible_red, incompatible_static). Exit codes: 0 success, 2 static
incompatibility, 3 runtime failure, 4 config error; `monitor` exits 1 when a
task is violated. Set STLCBF_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from dataclasses import replace

from .barriers import BarrierError
from .config import ConfigError, load_config
from .contracts import ContractError
from .pipeline import (
    EXIT_CONFIG_ERROR,
    PipelineError,
    check_pipeline,
    format_report,
    monitor_csv,
    run_pipeline,
    write_report,
    write_trace_csv,
)
from .qp import QpError
from .sim import InitialConditionError, SimError
from .stl import StlError
from .vehicle import VehicleError

_USER_ERRORS = (ConfigError, InitialConditionError, PipelineError, StlError,
                BarrierError, VehicleError, ContractError, QpError, SimError,
                OSError)

log = logging.getLogger("stlcbf")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synth", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="synthesize, simulate, and monitor a scenario")
    run.add_argument("config")
    run.add_argument("--trace", help="write the trace CSV here")
    run.add_argument("--report", help="write the run report here")
    run.add_argument("--dt", type=float, help="override the integration step")
    run.add_argument("--seed", type=int, help="override the generator seed")

    check = sub.add_parser("check", help="static compatibility check only")
    check.add_argument("config")

    mon = sub.add_parser("monitor", help="offline-monitor a trace CSV against a scenario")
    mon.add_argument("trace")
    mon.add_argument("config")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if getattr(args, "dt", None) is not None:
        if not (math.isfinite(args.dt) and args.dt > 0):
            raise ConfigError(f"--dt must be positive and finite, got {args.dt}")
        cfg = replace(cfg, dt=args.dt)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("STLCBF_LOG", "warning").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "run":
            outcome = run_pipeline(cfg)
            if args.trace and outcome.trace is not None:
                write_trace_csv(outcome.trace, args.trace)
                log.info("trace written to %s", args.trace)
            if args.report:
                write_report(outcome.report, args.report)
            else:
                sys.stdout.write(format_report(outcome.report))
            return outcome.exit_code
        if args.command == "check":
            outcome = check_pipeline(cfg)
            sys.stdout.write(format_report(outcome.report))
            return outcome.exit_code
        report = monitor_csv(args.trace, cfg)
        sys.stdout.write(str(report) + "\n")
        return 0 if report.satisfied else 1
    except _USER_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
