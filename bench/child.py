"""Child processes of the benchmark; run.py starts them, one at a time.

    child.py setup CONFIG...
        Time ``import multilambda.cli`` and ``load_config`` of each config in
        this fresh interpreter; print one JSON line.
    child.py scan CONFIG OUT --seconds S
        Traced run of ``multilambda scan``: passes of ``cli.main`` without
        wrappers, then as many with wrappers; write OUT (JSON).
    child.py spectrum OUT CONFIG... --grid LO HI K --seconds S --trace 0|1
        Classify, find no-transfer intervals, estimate the crossing and track
        the spectrum of each configured system; write OUT (JSON) and the
        eigenvalues of the first pass to OUT with suffix .npz.

The package is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.  Nothing here is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from tracing import NullTracer, Tracer, installed

MAX_TRACED_PASSES = 5


def cmd_setup(configs: list[str]) -> None:
    t0 = time.perf_counter()
    import multilambda.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from multilambda.config import load_config

    for path in configs:
        load_config(path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                      "module": multilambda.__file__}))


def run_passes(one_pass, seconds: float, max_passes: int, after=None) -> list[float]:
    """Closed loop: one pass at a time, paced by workloads.next_pass_fits.
    ``after`` runs outside the timed region, once per pass."""
    from workloads import next_pass_fits

    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_pass()
        walls.append(time.perf_counter() - t)
        if after is not None:
            after()
        if len(walls) >= max_passes:
            return walls
        if not next_pass_fits(time.perf_counter() - start, walls[-1], seconds):
            return walls


def _trace_scan_layers(tracer: Tracer) -> None:
    from multilambda import runner

    def on_propagation(result) -> None:
        tracer.count("dynamics.steps_accepted", result.n_accepted)
        tracer.count("dynamics.steps_rejected", result.n_rejected)

    tracer.wrap(runner, "evaluate_point", "runner.evaluate_point")
    tracer.wrap(runner, "classify", "analysis.classify")
    tracer.wrap(runner, "lz_estimate", "analysis.lz_estimate")
    tracer.wrap(runner, "propagate", "dynamics.propagate", on_propagation)


def cmd_scan(config: str, out: str, seconds: float) -> None:
    from pathlib import Path

    from multilambda import cli

    from workloads import read_csv_rows

    argv = ["--threads", "1", "--quiet", "scan", config]
    csv = Path(config).with_suffix(".csv")
    scans: list = []
    errors: list[str] = []

    def scan(call) -> None:
        csv.unlink(missing_ok=True)
        try:
            code = call("cli.main", cli.main, argv)
        except Exception:  # a crashed scan is recorded and counted as failed
            code = -1
            errors.append(traceback.format_exc())
        scans.append(code)

    def collect() -> None:
        """Replace the exit code just recorded by the rows, or None."""
        ok = scans[-1] == 0 and csv.exists()
        scans[-1] = read_csv_rows(csv) if ok else None

    plain = NullTracer()
    untraced = run_passes(lambda: scan(plain.call), seconds, MAX_TRACED_PASSES, collect)
    tracer = Tracer()

    def traced_pass() -> None:
        tracer.begin_pass()
        scan(tracer.call)

    with installed(tracer):
        _trace_scan_layers(tracer)
        traced = run_passes(traced_pass, float("inf"), len(untraced), collect)
    _dump(out, {"untraced_walls": untraced, "traced_walls": traced, "scans": scans,
                "errors": errors, "counts": tracer.counts, "spans": tracer.spans})


def cmd_spectrum(out: str, configs: list[str], grid: tuple[float, float, int],
                 seconds: float, trace: bool) -> None:
    import numpy as np
    from multilambda import analysis, spectral
    from multilambda.config import load_config
    from multilambda.errors import NoCrossing

    from workloads import NO_AT_RANGE

    cfgs = [load_config(path) for path in configs]
    times = np.linspace(grid[0], grid[1], int(grid[2]))
    first: list[dict] = []
    repeat_mismatch = [0] * len(cfgs)

    def one_system(call, k: int, record: dict) -> None:
        system, pulses = cfgs[k].system, cfgs[k].pulses
        record["verdict"] = call("analysis.classify", analysis.classify, system).at_state.value
        record["intervals"] = [list(iv) for iv in call(
            "analysis.no_at_intervals", analysis.no_at_intervals, system, *NO_AT_RANGE)]
        try:
            est = call("analysis.lz_estimate", analysis.lz_estimate, system, pulses)
            record["lz"] = [est.t_c, est.xi, est.pf_estimate]
        except NoCrossing:
            record["lz"] = None
        t = time.perf_counter()
        snaps = call("spectral.track_spectrum", spectral.track_spectrum, system, pulses, times)
        record["track_s"] = time.perf_counter() - t
        record["w"] = np.array([s.eigenvalues for s in snaps])
        record["ids"] = np.array([s.track_ids for s in snaps])

    def one_pass(call, begin) -> list[dict]:
        begin()
        records = []
        for k in range(len(cfgs)):
            record: dict = {"errors": []}
            try:
                call("bench.system", one_system, call, k, record)
            except Exception:  # counted as failed, the pass goes on
                record["errors"].append(traceback.format_exc())
            records.append(record)
        return records

    def keep(records: list[dict]) -> None:
        """Keep the first pass; compare every later pass with it exactly."""
        if not first:
            first.extend(records)
            return
        for k, (a, b) in enumerate(zip(first, records)):
            same = bool(a["errors"]) == bool(b["errors"]) and all(
                np.array_equal(a.get(key), b.get(key)) if key in ("w", "ids")
                else a.get(key) == b.get(key)
                for key in ("verdict", "intervals", "lz", "w", "ids")
            )
            repeat_mismatch[k] += not same

    track_s: list[list[float]] = []
    latest: list[list[dict]] = []
    plain = NullTracer()

    def untraced_pass() -> None:
        latest.append(one_pass(plain.call, plain.begin_pass))

    def after_pass() -> None:
        track_s.append([r.get("track_s", 0.0) for r in latest[-1]])
        keep(latest.pop())

    max_passes = MAX_TRACED_PASSES if trace else sys.maxsize
    untraced = run_passes(untraced_pass, seconds, max_passes, after_pass)
    result = {"untraced_walls": untraced, "track_s": track_s,
              "passes": len(untraced), "repeat_mismatch": repeat_mismatch}
    if trace:
        tracer = Tracer()
        with installed(tracer):
            tracer.wrap(spectral, "eigendecompose", "spectral.eigendecompose")
            tracer.wrap(spectral, "build_hamiltonian", "model.build_hamiltonian")
            result["traced_walls"] = run_passes(
                lambda: latest.append(one_pass(tracer.call, tracer.begin_pass)),
                float("inf"), len(untraced), lambda: keep(latest.pop()))
        result["passes"] += len(untraced)
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    eigen: dict[str, np.ndarray] = {}
    for k, record in enumerate(first):
        if "w" in record:
            eigen[f"w{k}"] = record.pop("w")
            eigen[f"ids{k}"] = record.pop("ids")
    result["systems"] = first
    np.savez(out + ".npz", **eigen)
    _dump(out, result)


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("configs", nargs="+")
    p = sub.add_parser("scan")
    p.add_argument("config")
    p.add_argument("out")
    p.add_argument("--seconds", type=float, required=True)
    p = sub.add_parser("spectrum")
    p.add_argument("out")
    p.add_argument("configs", nargs="+")
    p.add_argument("--grid", type=float, nargs=3, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        cmd_setup(args.configs)
    elif args.mode == "scan":
        cmd_scan(args.config, args.out, args.seconds)
    else:
        cmd_spectrum(args.out, args.configs, tuple(args.grid), args.seconds, bool(args.trace))


if __name__ == "__main__":
    main(sys.argv[1:])
