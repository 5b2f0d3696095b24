"""Command-line driver.

Subcommands: solve, verify, sweep, simulate.  JSON results go to stdout (or
--out); sweep/simulate write their CSV to --out when given, otherwise to
stdout with the summary JSON on stderr.  Reruns with the same config and
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .fragsim import BlockCapError
from .harness import (
    EXIT_ASSUMPTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    SCHEMA,
    ConfigError,
)
from .levy import AssumptionError, DomainError, InvalidModelError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are config errors, reported as one JSON line."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fragstop",
        description="Threshold solver and exact simulator for fragmentation stopping problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--samples", type=int, default=None, help="override shared-sample size")
        p.add_argument("--runs", type=int, default=None, help="override path/run counts")
        p.add_argument("--out", default=None, help="write the primary output to this path")

    p_solve = sub.add_parser("solve", help="compute the optimal threshold and value")
    common(p_solve)

    p_verify = sub.add_parser("verify", help="run every statistical identity check")
    common(p_verify)
    p_verify.add_argument(
        "--corrupt-bstar", type=float, default=1.0,
        help="test hook: scale the solved threshold before checking (negative control)",
    )

    p_sweep = sub.add_parser("sweep", help="solve across a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="one of q, c, gamma, theta, rate")
    p_sweep.add_argument("--grid", required=True, help="comma-separated grid values")

    p_sim = sub.add_parser("simulate", help="run a stopping-line ensemble")
    common(p_sim)
    p_sim.add_argument("--line", required=True, help="fixed:T | mass:A | optimal[:B]")
    p_sim.add_argument(
        "--literal-theorem-statistic", action="store_true",
        help="use the statistic without the e^{gamma theta t} factor (comparison variant)",
    )
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = harness.parse_config(args.config)
        cfg = harness.with_overrides(cfg, seed=args.seed, samples=args.samples, runs=args.runs)
        if args.command == "solve":
            _emit(harness.dumps_json(harness.cmd_solve(cfg)), args.out)
            return EXIT_OK
        if args.command == "verify":
            payload, ok = harness.cmd_verify(cfg, corrupt_bstar=args.corrupt_bstar)
            _emit(harness.dumps_json(payload), args.out)
            return EXIT_OK if ok else EXIT_VERIFY
        if args.command == "sweep":
            try:
                grid = [float(x) for x in args.grid.split(",") if x.strip() != ""]
            except ValueError as exc:
                raise ConfigError(f"bad --grid: {exc}") from exc
            csv_text, summary = harness.cmd_sweep(cfg, args.axis, grid)
        else:
            csv_text, summary = harness.cmd_simulate(
                cfg, args.line, literal=args.literal_theorem_statistic
            )
        _emit(csv_text, args.out)
        (sys.stderr if args.out is None else sys.stdout).write(harness.dumps_json(summary))
        return EXIT_OK
    except (ConfigError, InvalidModelError) as exc:
        _fail("config", exc)
        return EXIT_CONFIG
    except (AssumptionError, DomainError) as exc:
        _fail("assumption", exc)
        return EXIT_ASSUMPTION
    except BlockCapError as exc:
        _fail("resource", exc)
        return EXIT_RESOURCE


def _fail(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        json.dumps(
            {"schema": SCHEMA, "error": kind, "type": type(exc).__name__, "message": str(exc)},
            sort_keys=True,
        )
        + "\n"
    )


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
