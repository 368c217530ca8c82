"""Command line runner.

Subcommands: interval, disc (witness protocol reports), index (extension
index ladder), sweep (singular-value sweeps).  Exit code 0 means every
verdict passed, 1 means a verdict failed, 2 means a configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Default witness grid per model.
WITNESS_GRIDS = {"interval": [100, 1000, 10000], "disc": [100, 1000]}


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncompact",
        description=(
            "Numerical evidence runner for non-compact spectral-projection "
            "compressions on the interval and disc models."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap the BLAS/LAPACK thread count",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for model, grid in WITNESS_GRIDS.items():
        p = sub.add_parser(model, help=f"run the {model} witness protocol")
        p.add_argument(
            "--grid", type=_int_list, default=grid, help="comma-separated witness grid"
        )

    p = sub.add_parser("index", help="extension index ladder")
    p.add_argument(
        "--grid",
        type=_int_list,
        default=list(range(-10, 11)),
        help="comma-separated list of boundary cuts N",
    )

    p = sub.add_parser("sweep", help="singular-value sweep on both models")
    p.add_argument(
        "--sizes",
        type=_int_list,
        default=[64, 256, 1024, 4096],
        help="comma-separated, strictly increasing compression sizes",
    )
    for name, p in sub.choices.items():
        p.add_argument("--out", default=None, help="output path (default stdout)")
        default_format = "csv" if name == "index" else "json"
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default=default_format,
            help=f"output format (default {default_format})",
        )
    return parser


def _rows_to_csv_text(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    def config_error(message: str) -> int:
        sys.stderr.write(f"error: {message}\n")
        return 2

    if args.threads is not None:
        if args.threads < 1:
            return config_error("--threads must be >= 1")
        # Must happen before the numerical stack is imported.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    if args.out is not None:
        # Fail before computing; the file is only opened at the end.
        directory = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not os.access(directory, os.W_OK):
            return config_error(f"--out: cannot write {args.out!r}")

    as_csv = args.format == "csv"
    warnings: list[str] = []
    # Each subcommand imports only what it uses: `index` needs no numpy.  Bad
    # input is a ValueError from the owner of the rule it breaks.
    if args.command == "index":
        from . import aps

        data, ok = aps._index_ladder(args.grid)
    elif args.command in ("interval", "disc"):
        from . import analysis

        try:
            report = analysis.witness_protocol(args.command, tuple(args.grid))
        except ValueError as exc:
            return config_error(str(exc))
        data = (
            analysis.witness_report_rows if as_csv else analysis.witness_report_dict
        )(report)
        warnings = report.warnings
        ok = report.verdict == "pass"
    else:  # sweep
        from . import analysis

        try:
            profiles = analysis.compression_sweeps(tuple(args.sizes))
        except ValueError as exc:
            return config_error(str(exc))
        ok = all(analysis.nesting_monotone(profile) for profile in profiles)
        if as_csv:
            data = analysis.sweep_report_rows(profiles)
        else:
            data = [analysis.sweep_report_dict(profile) for profile in profiles]
    text = _rows_to_csv_text(data) if as_csv else json.dumps(data, indent=2) + "\n"
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        return config_error(f"--out: {exc}")
    for warning in warnings:
        sys.stderr.write(f"warning: {warning}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
