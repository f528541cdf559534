"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import read_csv_rows  # noqa: E402

WORKLOADS = ("detuning_scan", "width_scan", "spectrum_track")
SEED = 5
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results() -> dict:
    """Every workload once per trace setting; the runs leave their outputs
    under .bench_work for the perturbation tests."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout
    return out


def work_dir(workload: str, trace: int) -> Path:
    return ROOT / ".bench_work" / f"{workload}-seed{SEED}-trace{trace}"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(results, workload, trace):
    stdout = results[workload, trace]
    final = json.loads(stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in stdout.splitlines()), name
    assert "failed_frac 0" in stdout.splitlines()[0]
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_counts_repeat_exactly(results):
    for workload in ("detuning_scan", "spectrum_track"):
        again = json.loads(bench(workload, 1).stdout.splitlines()[-1])["metrics"]
        first = json.loads(results[workload, 1].splitlines()[-1])["metrics"]
        for name in ("dynamics.steps_accepted", "dynamics.steps_rejected",
                     "spectral.eigendecompose_calls", "model.build_hamiltonian_calls"):
            assert again[name] == first[name], (workload, name)


def test_perturbed_pf_fails(results):
    scan = workloads.scan_input(SEED, "common_detuning", smoke=True)
    rows = read_csv_rows(work_dir("detuning_scan", 0) / "scan.csv")
    refs = checks.reference_pfs(scan)
    assert checks.check_scan(scan, [rows], refs).failed == 0
    assert checks.check_scan(scan, [rows[:-1]], refs).failed == 1  # a missing row counts
    rows[1][1] += 1e-6
    check = checks.check_scan(scan, [rows], refs)
    assert check.failed / check.attempted > 0


def test_perturbed_eigenvalue_fails(results):
    spec = workloads.spectrum_input(SEED, smoke=True)
    out = work_dir("spectrum_track", 0) / "spectrum.json"
    result = json.loads(out.read_text())
    with np.load(str(out) + ".npz") as npz:
        eigen = dict(npz)

    def failed_frac() -> float:
        check = checks.check_spectrum(spec, result["systems"], eigen, result["passes"],
                                      result["repeat_mismatch"])
        return check.failed / check.attempted

    assert failed_frac() == 0
    eigen["w1"] = eigen["w1"].copy()
    eigen["w1"][50, 2] += 1e-7
    assert failed_frac() > 0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("detuning_scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
