"""Command-line front end.

Subcommands: simulate (single run), scan (sweep to CSV), analyze (text
report), preset (write a bundled config).  Exit codes: 0 success, 2 for
configuration problems, 3 for numerical failures; diagnostics go to stderr
prefixed with the failure class.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, NumericalError
from .presets import preset_names, preset_text
from .runner import format_csv, report_text, run_scan, write_csv

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
        help="split the scan points into this many contiguous batches, one"
        " worker process each (default 1)",
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


def _cmd_simulate(cfg: RunConfig, threads: int, quiet: bool) -> int:
    single = RunConfig(
        system=cfg.system,
        pulses=cfg.pulses,
        integrator=cfg.integrator,
        scan=None,
        output=cfg.output,
    )
    rows = run_scan(single, threads=1)
    del threads  # a single point has nothing to parallelize
    if cfg.output.csv_path is not None:
        write_csv(rows, cfg.output.csv_path)
        if not quiet:
            print(f"wrote 1 row to {cfg.output.csv_path}")
    else:
        sys.stdout.write(format_csv(rows))
    row = rows[0]
    if not quiet:
        print(
            f"final population {row.pf:.9g},"
            f" peak intermediate population {row.max_intermediate_pop:.9g},"
            f" transfer state: {row.at_verdict}"
        )
    return 0


def _cmd_scan(cfg: RunConfig, threads: int, quiet: bool) -> int:
    rows = run_scan(cfg, threads=threads)
    if cfg.output.csv_path is not None:
        write_csv(rows, cfg.output.csv_path)
        if not quiet:
            print(f"wrote {len(rows)} row(s) to {cfg.output.csv_path}")
    else:
        sys.stdout.write(format_csv(rows))
    return 0


def _cmd_analyze(cfg: RunConfig, quiet: bool) -> int:
    text = report_text(cfg)
    if cfg.output.report_path is not None:
        cfg.output.report_path.parent.mkdir(parents=True, exist_ok=True)
        cfg.output.report_path.write_text(text, encoding="utf-8")
        if not quiet:
            print(f"wrote report to {cfg.output.report_path}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_preset(name: str, out_dir: str, quiet: bool) -> int:
    if name == "list":
        for known in preset_names():
            print(known)
        return 0
    text = preset_text(name)
    target = Path(out_dir) / f"{name}.conf"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    if not quiet:
        print(f"wrote {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: config: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.command == "preset":
            return _cmd_preset(args.name, args.out, args.quiet)
        cfg = load_config(args.config)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.threads, args.quiet)
        if args.command == "scan":
            return _cmd_scan(cfg, args.threads, args.quiet)
        return _cmd_analyze(cfg, args.quiet)
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
