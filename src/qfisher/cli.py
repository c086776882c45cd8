"""Command-line scenario runner.

Usage:
    qfisher run <config-path> [--out DIR] [--seed N] [--format csv|json]
    qfisher verify-goldens [--regenerate]

Exit codes: 0 success, 1 golden mismatch, 2 config error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import ConfigError, QFisherError
from .scenarios import run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description=(
            "Quantum Fisher information scenarios: bound sweeps, controlled-"
            "drive saturation, generator expansions, frame invariance, and "
            "adaptive estimation runs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config", help="path to a key=value scenario config")
    run_p.add_argument(
        "--out", default=None, help="output directory (default: the config's out, else .)"
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run_p.add_argument(
        "--format", choices=("csv", "json"), default=None, help="results table format"
    )

    verify_p = sub.add_parser(
        "verify-goldens", help="re-run the golden scenarios and diff the results"
    )
    verify_p.add_argument(
        "--regenerate",
        action="store_true",
        help="rewrite the stored golden tables from the current code",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = parse_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            result = run_scenario(
                cfg, out_dir=args.out, fmt=args.format, seed_override=args.seed
            )
        except (ConfigError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except QFisherError as exc:
            print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {result['table_path']} and {result['sidecar_path']}")
        return 0
    if args.command == "verify-goldens":
        from .goldens import regenerate_goldens, verify_goldens

        if args.regenerate:
            written = regenerate_goldens()
            for path in written:
                print(f"regenerated {path}")
            return 0
        report = verify_goldens()
        print(report.summary())
        return 0 if report.passed else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
