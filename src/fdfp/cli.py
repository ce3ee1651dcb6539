"""Command-line entry point.

    fdfp run <config> [--output-dir PATH] [--seed INT] [--quiet]
    fdfp check <config>
    fdfp snapshot-info <path>

Exit codes: 0 success, 1 experiment assertion failed, 2 usage, config
or I/O error, 3 solver error.  `check` reports every config error that
`run` would; the one scenario solver is `[solver] kind = fv`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .harness import ConfigError, parse_config, run_scenario, snapshot_info

logger = logging.getLogger("fdfp")

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _load_config(path: str):
    p = Path(path)
    if not p.is_file():
        print(f"error: config file not found: {path}", file=sys.stderr)
        return None
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config file {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fdfp",
                                     description="Fermi-Dirac-Fokker-Planck scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and its experiments")
    run_p.add_argument("config")
    run_p.add_argument("--output-dir", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--quiet", action="store_true")

    check_p = sub.add_parser("check", help="parse and validate a config only")
    check_p.add_argument("config")

    info_p = sub.add_parser("snapshot-info", help="print snapshot metadata")
    info_p.add_argument("path")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    logging.basicConfig(level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    if args.command == "check":
        config = _load_config(args.config)
        if config is None:
            return EXIT_USAGE
        print(f"ok: {args.config} is a valid scenario "
              f"(fv solver, {len(config.experiments)} experiments)")
        return EXIT_OK

    if args.command == "snapshot-info":
        try:
            info = snapshot_info(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for key, value in info.items():
            print(f"{key}: {value}")
        return EXIT_OK

    # run
    config = _load_config(args.config)
    if config is None:
        return EXIT_USAGE
    if args.output_dir is not None:
        config.output_dir = Path(args.output_dir)
    if args.seed is not None:
        if args.seed < 0:   # as [run] seed: the random states need a seed >= 0
            print("error: --seed must be >= 0", file=sys.stderr)
            return EXIT_USAGE
        config.seed = args.seed
    try:
        status = run_scenario(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if status == 0:
        if not args.quiet:
            print(f"all experiments passed; outputs in {config.output_dir}")
        return EXIT_OK
    print(f"experiment assertions failed; see reports in {config.output_dir}",
          file=sys.stderr)
    return EXIT_ASSERTION


if __name__ == "__main__":
    raise SystemExit(main())
