"""Command-line front end.

Subcommands: simulate (single run), scan (sweep to CSV), analyze (text
report), preset (write a bundled config).  Exit codes: 0 success, 2 for
configuration problems, 3 for numerical failures; diagnostics go to stderr
prefixed with the failure class.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, NumericalError
from .presets import preset_names, preset_text
from .runner import ScanRow, format_csv, report_text, run_scan

__all__ = ["main", "console_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multilambda",
        description="Simulate and analyze adiabatic population transfer"
        " through parallel intermediate states.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        choices=[1],
        help="accepted for compatibility and must be 1: a scan runs as one batch"
        " in one process; the option stays until bench/ stops passing it",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the configured point once")
    p_sim.add_argument("config", help="path to a run configuration file")

    p_scan = sub.add_parser("scan", help="sweep the configured scan axis, write CSV")
    p_scan.add_argument("config", help="path to a run configuration file")

    p_ana = sub.add_parser("analyze", help="print the analytic feasibility report")
    p_ana.add_argument("config", help="path to a run configuration file")

    p_pre = sub.add_parser("preset", help="write a bundled configuration file")
    p_pre.add_argument("name", help="preset name, or 'list' to enumerate")
    p_pre.add_argument("--out", default=".", help="directory to write into (default .)")
    return parser


def _write(text: str, path: Path | None, quiet: bool, note: str) -> None:
    """Write ``text`` to ``path``, creating its directory, or to stdout.

    ``note`` says what went where, for the confirmation line.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"cannot write {path}: {exc}") from None
    if not quiet:
        print(f"wrote {note}")


def _cmd_scan(cfg: RunConfig, quiet: bool) -> list[ScanRow]:
    rows = run_scan(cfg)
    count = "1 row" if len(rows) == 1 else f"{len(rows)} row(s)"
    _write(format_csv(rows), cfg.output.csv_path, quiet, f"{count} to {cfg.output.csv_path}")
    return rows


def _cmd_simulate(cfg: RunConfig, quiet: bool) -> None:
    row = _cmd_scan(replace(cfg, scan=None), quiet)[0]
    if not quiet:
        print(
            f"final population {row.pf:.9g},"
            f" peak intermediate population {row.max_intermediate_pop:.9g},"
            f" transfer state: {row.at_verdict}"
        )


def _cmd_preset(name: str, out_dir: str, quiet: bool) -> None:
    if name == "list":
        for known in preset_names():
            print(known)
        return
    target = Path(out_dir) / f"{name}.conf"
    _write(preset_text(name), target, quiet, str(target))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            _cmd_preset(args.name, args.out, args.quiet)
            return 0
        cfg = load_config(args.config)
        if args.command == "simulate":
            _cmd_simulate(cfg, args.quiet)
        elif args.command == "scan":
            _cmd_scan(cfg, args.quiet)
        else:
            path = cfg.output.report_path
            _write(report_text(cfg), path, args.quiet, f"report to {path}")
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
