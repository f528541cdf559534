"""Benchmark of the multilambda package: scan throughput, spectrum tracking, set-up.

    python3 bench/run.py --workload detuning_scan --seed 1 --seconds 25 --trace 0

One closed-loop client issues one operation at a time (``--threads 1``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every output is checked (see checks.py);
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A provenance record with the
machine, versions, seed, inputs, metrics and spans is written under
``.bench_work/`` in the checkout.  See README.md in this directory.

Timing is wall-clock only: machine settings are not touched, so there is no
CPU pinning and no frequency control.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
from workloads import (ScanInput, SpectrumInput, next_pass_fits, read_csv_rows, scan_input,
                       spectrum_input)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("detuning_scan", "width_scan", "spectrum_track")
SETUP_REPEATS = 5
# Every child is killed past this, which leaves time for the references and
# keeps a run within 180 s.
CHILD_DEADLINE_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LIMITATION = ("wall-clock timing only; no CPU pinning or frequency control, because "
              "machine settings may not be changed")


class BenchError(Exception):
    """The benchmark itself cannot run here (no package, child crashed)."""


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Children:
    """Starts one child process at a time and reaps it with its resource usage."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args: list[str], check: bool = True) -> ChildRun:
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            reaped: list = []

            def reap() -> None:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.append((time.perf_counter(), status, usage))

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(1.0, self.deadline - time.monotonic()))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                proc.returncode = -9
                raise BenchError(f"child {args[:2]} overran the time limit and was killed")
        end, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = ChildRun(proc.returncode, end - start, usage.ru_maxrss / 1024.0,
                       out_path.read_text(), err_path.read_text())
        if check and run.returncode != 0:
            raise BenchError(f"child {args[:2]} exited {run.returncode}:\n{run.stderr[-2000:]}")
        return run


def measure_setup(children: Children, configs: list[Path], repeats: int) -> dict:
    """Fresh interpreters importing the package and loading the configs.

    The first start compiles byte code and fills the file cache; it is not
    counted, since a user pays it once per installation, not per run.
    """
    args = [str(HERE / "child.py"), "setup", *map(str, configs)]
    first = children.run(args)
    module = Path(json.loads(first.stdout.splitlines()[-1])["module"]).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"imported multilambda from {module}, not from {SRC}")
    walls, imports, loads = [], [], []
    for _ in range(repeats):
        run = children.run(args)
        report = json.loads(run.stdout.splitlines()[-1])
        walls.append(run.wall_s)
        imports.append(report["import_s"])
        loads.append(report["load_config_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "load_config_s": statistics.median(loads), "walls": walls}


def scan_end_to_end(children: Children, config: Path, seconds: float) -> dict:
    """``python -m multilambda --threads 1 --quiet scan`` repeated, closed loop."""
    csv = config.with_suffix(".csv")
    walls, rss, scans = [], [], []
    start = time.perf_counter()
    while True:
        csv.unlink(missing_ok=True)
        run = children.run(["-m", "multilambda", "--threads", "1", "--quiet", "scan",
                            str(config)], check=False)
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        scans.append(read_csv_rows(csv) if run.returncode == 0 and csv.exists() else None)
        if not next_pass_fits(time.perf_counter() - start, walls[-1], seconds):
            return {"walls": walls, "peak_rss_mb": rss, "scans": scans}


def per_layer(trace: dict, setup: dict, check: checks.Check, kind: str,
              grid_points: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Counts are those of the first traced pass, so they repeat exactly between
    runs of one seed; times are medians over spans or totals per pass.  A
    layer the workload does not call reads 0.
    """
    spans = trace["spans"]
    walls = trace["traced_walls"]
    first = trace["counts"][0] if trace["counts"] else {}
    passes = len(walls)
    wall = sum(walls)
    self_s = tracing.self_times(spans)

    def spans_of(name: str) -> list[float]:
        return tracing.durations(spans, name)

    def p50_us(name: str) -> float:
        return 1e6 * tracing.median(spans_of(name))

    prop = spans_of("dynamics.propagate")
    steps = sum(c.get("dynamics.steps_accepted", 0) + c.get("dynamics.steps_rejected", 0)
                for c in trace["counts"])
    eig = spans_of("spectral.eigendecompose")
    track = spans_of("spectral.track_spectrum")
    metrics = {
        "dynamics.propagate_s.p50": (tracing.median(prop), "s"),
        "dynamics.steps_accepted": (first.get("dynamics.steps_accepted", 0), "count"),
        "dynamics.steps_rejected": (first.get("dynamics.steps_rejected", 0), "count"),
        "dynamics.us_per_step": (1e6 * sum(prop) / steps if steps else 0.0, "us"),
        "dynamics.share": (sum(prop) / wall, "fraction"),
        "dynamics.pf_err_max": (check.err_max if kind == "scan" else 0.0, "1"),
        "spectral.track_us_per_point": (
            1e6 * sum(track) / (len(track) * grid_points) if track else 0.0, "us"),
        "spectral.eigendecompose_us.p50": (p50_us("spectral.eigendecompose"), "us"),
        "spectral.eigendecompose_calls": (first.get("spectral.eigendecompose.calls", 0),
                                          "count"),
        "spectral.eig_share": (sum(eig) / wall, "fraction"),
        "spectral.eig_err_max": (check.err_max if kind == "spectrum" else 0.0, "omega0"),
        "model.build_hamiltonian_us.p50": (p50_us("model.build_hamiltonian"), "us"),
        "model.build_hamiltonian_calls": (first.get("model.build_hamiltonian.calls", 0),
                                          "count"),
        "analysis.classify_us.p50": (p50_us("analysis.classify"), "us"),
        "analysis.lz_estimate_us.p50": (p50_us("analysis.lz_estimate"), "us"),
        "analysis.no_at_intervals_us.p50": (p50_us("analysis.no_at_intervals"), "us"),
        "runner.point_s.p50": (tracing.median(spans_of("runner.evaluate_point")), "s"),
    }
    for layer in ("cli", "runner", "analysis", "dynamics", "spectral", "model"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / passes, "s")
    metrics["config.load_config_ms"] = (1e3 * setup["load_config_s"], "ms")
    metrics["cli.import_s"] = (setup["import_s"], "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(walls) / statistics.median(trace["untraced_walls"]) - 1.0, "fraction")
    return metrics


def run_scan_workload(children: Children, scan: ScanInput, config: Path, setup: dict,
                      seconds: float, trace: bool):
    if trace:
        out = children.work / "trace.json"
        children.run([str(HERE / "child.py"), "scan", str(config), str(out),
                      "--seconds", repr(seconds)])
        result = json.loads(out.read_text())
        scans = result["scans"]
    else:
        e2e = scan_end_to_end(children, config, seconds)
        scans = e2e["scans"]
    check = checks.check_scan(scan, scans, checks.reference_pfs(scan))
    if trace:
        return per_layer(result, setup, check, "scan"), check, result
    metrics = {
        "points_per_s": (statistics.median(scan.points / w for w in e2e["walls"]), "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (statistics.median(e2e["peak_rss_mb"]), "MB"),
    }
    return metrics, check, {"untraced_walls": e2e["walls"]}


def run_spectrum_workload(children: Children, spec: SpectrumInput, configs: list[Path],
                          setup: dict, seconds: float, trace: bool):
    out = children.work / "spectrum.json"
    lo, hi = spec.pulses.window()
    child = children.run([str(HERE / "child.py"), "spectrum", str(out), *map(str, configs),
                          "--grid", repr(lo), repr(hi), str(spec.grid_points),
                          "--seconds", repr(seconds), "--trace", str(int(trace))])
    result = json.loads(out.read_text())
    with np.load(str(out) + ".npz") as eigen:
        check = checks.check_spectrum(spec, result["systems"], dict(eigen), result["passes"],
                                      result["repeat_mismatch"])
    if trace:
        return per_layer(result, setup, check, "spectrum", spec.grid_points), check, result
    points = len(spec.systems) * spec.grid_points
    metrics = {
        "points_per_s": (statistics.median(points / sum(t) for t in result["track_s"]), "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (child.peak_rss_mb, "MB"),
    }
    return metrics, check, result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, trace: bool, inputs: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "limitation": LIMITATION,
        "inputs": inputs,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if not (SRC / "multilambda" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'multilambda'}; run from a full checkout")
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = Children(work, time.monotonic() + CHILD_DEADLINE_S)
    repeats = 2 if smoke else SETUP_REPEATS
    if workload == "spectrum_track":
        spec = spectrum_input(seed, smoke)
        configs = [work / f"system{k}.conf" for k in range(len(spec.systems))]
        for k, path in enumerate(configs):
            path.write_text(spec.config_text(k), encoding="utf-8")
        inputs = spec.describe()
        setup = measure_setup(children, configs, repeats)
        metrics, check, passes = run_spectrum_workload(children, spec, configs, setup,
                                                      seconds, trace)
    else:
        axis = "common_detuning" if workload == "detuning_scan" else "pulse_width"
        scan = scan_input(seed, axis, smoke)
        config = work / "scan.conf"
        config.write_text(scan.config_text("scan.csv"), encoding="utf-8")
        inputs = scan.describe()
        setup = measure_setup(children, [config], repeats)
        metrics, check, passes = run_scan_workload(children, scan, config, setup,
                                                  seconds, trace)
    record = provenance(workload, seed, trace, inputs)
    record.update({
        "seconds": seconds,
        "setup_walls_s": setup["walls"],
        "untraced_pass_walls_s": passes["untraced_walls"],
        "traced_pass_walls_s": passes.get("traced_walls"),
        "attempted": check.attempted,
        "failed": check.failed,
        "failed_frac": check.failed / check.attempted,
        "failures": check.messages,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run_id"], "spans": passes["spans"]}),
            encoding="utf-8")
    record["record_path"] = str(work.relative_to(ROOT) / "result.json")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} operations, failed_frac {record['failed_frac']:.6g}")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  record: {record['record_path']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
