"""Command-line front end.

One subcommand per pipeline plus ``sweep``; every subcommand takes the
same flags.  The config file is the source of truth — the flags only
override its seed / output directory at invocation time, and pick how
many threads run the children of a sweep.

Exit codes: 0 success, 1 configuration or usage problem, 2 numerical failure
(a last-good snapshot path is printed when one was written), 3 failed
``--check`` assertions.

Before numpy loads, ``OPENBLAS_THREAD_TIMEOUT`` defaults to 4, so OpenBLAS's
idle workers sleep at once instead of spinning; a caller's value wins.
"""

from __future__ import annotations

import argparse
import os
import sys

# kinlat's GEMMs are too small for OpenBLAS to split, so its workers never
# get work: let them sleep after 2^4 cycles, not spin for 2^28
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .config import PIPELINES, parse_config, read_doc
from .errors import CheckFailure, ConfigError, NumericalBlowupError
from .harness import PIPELINE_METRIC, run

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 is a numerical failure
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config's seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 3) unless all built-in run assertions pass",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="INT",
        help="thread count for the children of a sweep (default: 1); "
        "results are identical for any value",
    )

    parser = _Parser(
        prog="kinlat",
        description="Lattice wave / kinetic and chain / mean-field simulation runner.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in PIPELINES:
        sub.add_parser(name, parents=[common], help=f"run the {name} pipeline")
    sub.add_parser(
        "sweep",
        parents=[common],
        help="run the config's pipeline once per value on its sweep axis",
    )
    return parser


def _effective_config(args: argparse.Namespace):
    doc = read_doc(args.config)
    if args.command == "sweep":
        if "sweep" not in doc:
            raise ConfigError("the sweep command needs a sweep block", field="sweep")
    else:
        stated = doc.get("pipeline")
        if stated is None:
            doc["pipeline"] = args.command
        elif stated != args.command:
            raise ConfigError(
                f"config pipeline {stated!r} does not match command {args.command!r}",
                field="pipeline",
            )
    if args.seed is not None:
        doc["seed"] = args.seed
    return parse_config(doc)


def _headline(manifest) -> str:
    name = PIPELINE_METRIC.get(manifest.pipeline)
    value = manifest.metrics.get(name)
    if isinstance(value, float):
        return f" {name}={value:.6g}"
    if value is not None:
        return f" {name}={value}"
    return ""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        cfg = _effective_config(args)
        manifest = run(cfg, out=args.out, check=args.check, workers=args.workers)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowupError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        snap = getattr(e, "snapshot", None)
        if snap:
            print(f"last-good snapshot: {snap}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CheckFailure as e:
        print(f"checks failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    print(
        f"{manifest.pipeline} {manifest.status} seed={manifest.seed} "
        f"out={manifest.out_dir}{_headline(manifest)}"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
