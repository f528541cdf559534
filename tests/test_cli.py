from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import multilambda
from multilambda.runner import CSV_HEADER

from cases import mutated_presets

PACKAGE_FILE = str(Path(multilambda.__file__).resolve())

# The CLI runs in a temporary directory, where a relative PYTHONPATH entry
# (such as ``src`` in a source checkout) points nowhere.  Lead with the root
# of the package this process imported, so the subprocess runs the same code
# and no installed copy can stand in for it; keep the inherited entries,
# made absolute.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(PACKAGE_FILE).parent.parent)]
        + [
            str(Path(entry).resolve())
            for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if entry
        ]
    ),
}

SMALL_SCAN = """\
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 10

[scan]
axis = pulse_width
start = 8
stop = 12
points = 3
"""

SINGLE_RUN = """\
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 10
"""


def run_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return run_python("-m", "multilambda", *args, cwd=cwd)


@pytest.fixture(scope="module", autouse=True)
def subprocess_imports_package_under_test(tmp_path_factory):
    """Fail every CLI test if the subprocess would import another copy."""
    proc = run_python(
        "-c",
        "import multilambda; print(multilambda.__file__)",
        cwd=tmp_path_factory.mktemp("env_check"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PACKAGE_FILE


def test_cli_import_leaves_scipy_out(tmp_path):
    proc = run_python(
        "-c", "import sys, multilambda.cli; print('scipy' in sys.modules)", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def strip_seconds(csv_text: str) -> list[str]:
    return [",".join(line.split(",")[:5]) for line in csv_text.strip().splitlines()]


class TestSimulate:
    def test_stdout_csv_and_summary(self, tmp_path):
        (tmp_path / "run.conf").write_text(SINGLE_RUN)
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith(",")  # no scan value on a single run
        assert "final population" in lines[-1]

    def test_quiet_suppresses_summary(self, tmp_path):
        (tmp_path / "run.conf").write_text(SINGLE_RUN)
        proc = run_cli("--quiet", "simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 2

    def test_csv_written_to_configured_path(self, tmp_path):
        (tmp_path / "run.conf").write_text(SINGLE_RUN + "\n[output]\ncsv = out.csv\n")
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        content = (tmp_path / "out.csv").read_text()
        assert content.splitlines()[0] == CSV_HEADER
        assert "\r" not in content


class TestScan:
    def test_deterministic_apart_from_timing(self, tmp_path):
        (tmp_path / "scan.conf").write_text(SMALL_SCAN + "\n[output]\ncsv = a.csv\n")
        assert run_cli("scan", "scan.conf", cwd=tmp_path).returncode == 0
        (tmp_path / "scan2.conf").write_text(SMALL_SCAN + "\n[output]\ncsv = b.csv\n")
        assert run_cli("scan", "scan2.conf", cwd=tmp_path).returncode == 0
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert strip_seconds(a) == strip_seconds(b)
        assert len(strip_seconds(a)) == 4  # header + 3 points

    def test_worker_pool_matches_serial(self, tmp_path):
        (tmp_path / "scan.conf").write_text(SMALL_SCAN + "\n[output]\ncsv = serial.csv\n")
        assert run_cli("scan", "scan.conf", cwd=tmp_path).returncode == 0
        (tmp_path / "scan2.conf").write_text(SMALL_SCAN + "\n[output]\ncsv = pool.csv\n")
        assert run_cli("--threads", "2", "scan", "scan2.conf", cwd=tmp_path).returncode == 0
        assert strip_seconds((tmp_path / "serial.csv").read_text()) == strip_seconds(
            (tmp_path / "pool.csv").read_text()
        )


    def test_three_chunks_match_serial(self, tmp_path):
        seven = SMALL_SCAN.replace("points = 3", "points = 7")
        (tmp_path / "scan.conf").write_text(seven + "\n[output]\ncsv = serial.csv\n")
        assert run_cli("scan", "scan.conf", cwd=tmp_path).returncode == 0
        (tmp_path / "scan2.conf").write_text(seven + "\n[output]\ncsv = pool.csv\n")
        assert run_cli("--threads", "3", "scan", "scan2.conf", cwd=tmp_path).returncode == 0
        serial = strip_seconds((tmp_path / "serial.csv").read_text())
        assert len(serial) == 8  # header + 7 points
        assert serial == strip_seconds((tmp_path / "pool.csv").read_text())

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_numeric_error_names_first_scan_value(self, tmp_path, threads):
        (tmp_path / "bad.conf").write_text(
            SMALL_SCAN + "\n[integrator]\nt_start = 0\nt_end = 1e16\n"
        )
        proc = run_cli("--threads", threads, "scan", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: numeric: at scan value 8: step size underflow at t=0.0\n"


class TestAnalyze:
    def test_report_to_stdout(self, tmp_path):
        (tmp_path / "run.conf").write_text(SINGLE_RUN)
        proc = run_cli("analyze", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        assert "regime: off-resonant" in proc.stdout
        assert "transfer state: exists (general)" in proc.stdout
        assert "avoided crossing" in proc.stdout

    def test_report_windows_for_detuning_scan(self, tmp_path):
        text = SINGLE_RUN + (
            "\n[scan]\naxis = common_detuning\nstart = -2\nstop = 1\npoints = 7\n"
        )
        (tmp_path / "run.conf").write_text(text)
        proc = run_cli("analyze", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        assert "no-transfer windows" in proc.stdout
        assert "[-1.3, -0.7]" in proc.stdout


class TestPresets:
    def test_list(self, tmp_path):
        proc = run_cli("preset", "list", cwd=tmp_path)
        assert proc.returncode == 0
        names = proc.stdout.strip().splitlines()
        assert len(names) == 21

    def test_write_and_run(self, tmp_path):
        proc = run_cli("preset", "n3_dark_time", "--out", ".", cwd=tmp_path)
        assert proc.returncode == 0
        conf = tmp_path / "n3_dark_time.conf"
        assert conf.exists()
        proc = run_cli("simulate", conf.name, cwd=tmp_path)
        assert proc.returncode == 0
        assert (tmp_path / "n3_dark_time.csv").exists()
        row = (tmp_path / "n3_dark_time.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "dark"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        (tmp_path / "bad.conf").write_text("[system]\nalphas = 1\ntypo = 3\n")
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")

    def test_missing_file_is_2(self, tmp_path):
        proc = run_cli("simulate", "absent.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert "error: config:" in proc.stderr

    def test_numeric_error_is_3(self, tmp_path):
        (tmp_path / "bad.conf").write_text(
            "[system]\nalphas = 1\nbetas = 1\ndetunings = 1\n"
            "\n[pulses]\nwidth = 30\n"
            "\n[integrator]\nt_start = 0\nt_end = 1e16\n"
        )
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: numeric:")

    def test_non_finite_config_is_2(self, tmp_path):
        # nan fails every sign test, so this once printed a made-up verdict
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN.replace("detunings = 0.5", "detunings = nan").replace(
                "width = 10", "width = inf"
            )
        )
        proc = run_cli("analyze", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")
        assert proc.stdout == ""

    def test_empty_window_is_2(self, tmp_path):
        # the default window of width 10 ends at 45, before t_start
        (tmp_path / "bad.conf").write_text(SINGLE_RUN + "\n[integrator]\nt_start = 200\n")
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: propagation window [200, 45] is empty")

    def test_overflowing_detuning_sums_are_2(self, tmp_path):
        # delta_1 delta_2 underflows to zero: once a ZeroDivisionError, exit 1
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN.replace("detunings = 0.5, 1.5", "detunings = 1e-200, 2e-200")
        )
        proc = run_cli("analyze", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")

    def test_unwritable_output_is_2(self, tmp_path):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        (tmp_path / "run.conf").write_text(SINGLE_RUN + "\n[output]\ncsv = adir\n")
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: cannot write ")
        proc = run_cli("preset", "n3_dark_time", "--out", "afile", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: cannot write ")

    def test_usage_error_is_2(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 2

    @settings(max_examples=8, deadline=None)
    @given(text=mutated_presets(malformed=True))
    def test_malformed_preset_is_2(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("malformed")
        (work / "bad.conf").write_text(text)
        proc = run_cli("analyze", "bad.conf", cwd=work)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")
