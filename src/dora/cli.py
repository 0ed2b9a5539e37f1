"""Command-line entry point.

Subcommands::

    dora-lab bandit run --config cfg.json [--agent ucb --runs 1000 --seed 0]
    dora-lab keymaze run --config cfg.json [--backend mock:script.json]
    dora-lab report --in runs/ --out tables/

Exit codes: 0 success, 1 config or report error or an artifact that cannot be
written, 2 backend error, 3 partial batch.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, ExperimentConfig, ReportError, report, run_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_PARTIAL = 3


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config (flags override it)")
    parser.add_argument("--agent", help="agent name")
    parser.add_argument("--runs", type=int, help="number of seeded runs")
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument("--backend", help="mock:<script.json> or remote")
    parser.add_argument("--out", dest="output_dir", help="artifact directory")
    parser.add_argument(
        "--workers",
        type=int,
        help="runs at a time (default: os.cpu_count()): classical and mock suites run in "
        "that many forked processes, capped at --runs, on Linux and serially elsewhere; "
        "remote suites run in that many threads",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dora-lab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for suite in ("bandit", "keymaze"):
        suite_parser = sub.add_parser(suite, help=f"{suite} experiment suite")
        suite_sub = suite_parser.add_subparsers(dest="action", required=True)
        run_parser = suite_sub.add_parser("run", help=f"run a {suite} batch")
        _add_run_arguments(run_parser)

    report_parser = sub.add_parser("report", help="aggregate run artifacts into tables")
    report_parser.add_argument("--in", dest="input_dir", required=True)
    report_parser.add_argument("--out", dest="output_dir", required=True)
    return parser


def _run_command(args: argparse.Namespace, suite: str) -> int:
    overrides = {
        "suite": suite,
        "agent": args.agent,
        "runs": args.runs,
        "master_seed": args.master_seed,
        "backend": args.backend,
        "output_dir": args.output_dir,
        "workers": args.workers,
    }
    if args.config:
        config = ExperimentConfig.from_file(args.config, overrides)
    else:
        config = ExperimentConfig.from_dict({}, overrides)
    try:
        artifacts = run_suite(config)
    except OSError as exc:  # an artifact that cannot be written
        print(f"cannot write {exc.filename or config.output_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    completed = len(artifacts.metrics)
    print(f"{suite}/{config.agent}: {completed}/{config.runs} runs -> {artifacts.output_dir}")
    if artifacts.failures:
        for failure in artifacts.failures[:5]:
            print(f"  run {failure['run']} failed ({failure['kind']}): {failure['error']}")
        if completed == 0 and all(f["kind"] == "backend" for f in artifacts.failures):
            return EXIT_BACKEND
        return EXIT_PARTIAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            written = report(args.input_dir, args.output_dir)
            for path in written:
                print(path)
            return EXIT_OK
        return _run_command(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
