"""Command-line entry point: ldlab run <config-path> [--out DIR] [--format csv|text].

Exit codes: 0 when every check passes, 1 when any check fails or no check
ran, 2 for configuration or usage errors, 3 for an internal error (an exception
other than ValueError or OSError escaped the scenario; its traceback goes to
stderr and no report is written). The environment variable LDLAB_SEED
overrides the config seed; either must be a nonnegative integer (numpy's
seed domain), else the exit code is 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from .config import ConfigError, parse_config
from .report import emit
from .scenarios import run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario config")
    run.add_argument("config_path", help="path to a JSON scenario config")
    run.add_argument("--out", default=".", help="output directory (default: current)")
    run.add_argument("--format", choices=("csv", "text"), default="text",
                     help="emit report.txt only (text) or also CSV tables (csv)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config_path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config {args.config_path}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    env_seed = os.environ.get("LDLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
            if seed < 0:
                raise ValueError(env_seed)
        except ValueError:
            print(f"error: LDLAB_SEED={env_seed!r} is not a nonnegative integer", file=sys.stderr)
            return 2
        config = replace(config, seed=seed)
    try:
        report = run_scenario(config)
    except Exception:  # a programming error, never a failed check
        traceback.print_exc()
        return 3
    try:
        written = emit(report, args.format, args.out)
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(report.to_text(), end="")
    print(f"wrote: {', '.join(written)}", file=sys.stderr)
    return 0 if report.overall == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
