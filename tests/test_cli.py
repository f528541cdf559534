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


def test_cli_import_leaves_multiprocessing_out(tmp_path):
    proc = run_python(
        "-c",
        "import sys, multilambda.cli;"
        " print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    # ``--threads 1`` is the one accepted value, kept for compatibility
    @pytest.mark.parametrize("threads", ["1"])
    def test_numeric_error_names_first_scan_value(self, tmp_path, threads):
        # the delay, scaled with the width, puts the window beyond float
        # time resolution at every point
        (tmp_path / "bad.conf").write_text(
            SMALL_SCAN.replace("width = 10", "width = 10\ndelay = 1e16")
        )
        proc = run_cli("--threads", threads, "scan", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: numeric: at scan value 8: step size underflow at t=-8000000000000032.0\n"
        )


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

    @pytest.mark.parametrize("detunings", ["1, 1.5", "1e163, 1.5e163"])
    def test_verdict_independent_of_detuning_scale(self, tmp_path, detunings):
        # at 1e163 delta_1 delta_2 overflowed and S_a2 S_b2 underflowed: the
        # report said "zero eigenvalue: simple" and "does not exist"
        (tmp_path / "run.conf").write_text(
            SINGLE_RUN.replace("detunings = 0.5, 1.5", f"detunings = {detunings}")
        )
        proc = run_cli("analyze", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "zero eigenvalue: none\n" in proc.stdout
        assert "transfer state: exists (general)" in proc.stdout


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
            "\n[pulses]\nwidth = 30\ndelay = 1e16\n"
        )
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: numeric:")

    def test_hostile_tolerance_is_3(self, tmp_path):
        # the scaled error overflows: two NumPy RuntimeWarning lines once
        # came before the error line
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN + "\n[integrator]\nrel_tol = 1e-300\nabs_tol = 1e-300\n"
        )
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: numeric: step size underflow at t=-45.0\n"

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
        # t_start past the window end once left an empty window; the pulses
        # set the window, and the key is gone.  So is store_every: a scan
        # stores the window's two ends, a single run every accepted node.
        for key, value in (("t_start", 200), ("store_every", 10)):
            (tmp_path / "bad.conf").write_text(SINGLE_RUN + f"\n[integrator]\n{key} = {value}\n")
            proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
            assert proc.returncode == 2
            expected = f"error: config: bad.conf:11: unknown key '{key}' in [integrator]\n"
            assert proc.stderr == expected

    @pytest.mark.parametrize(
        ("old", "new"), [("alphas = 1, 2", "alphas = 2, 1"), ("betas = 1, 0.5", "betas = 1.5, 1")]
    )
    def test_unnormalized_first_coupling_pair_is_2(self, tmp_path, old, new):
        (tmp_path / "bad.conf").write_text(SINGLE_RUN.replace(old, new))
        proc = run_cli("analyze", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: config: first coupling pair must be normalized to 1\n"
        assert proc.stdout == ""

    def test_overflowing_detuning_sums_are_2(self, tmp_path):
        # delta_1 delta_2 underflows to zero: once a ZeroDivisionError, exit 1
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN.replace("detunings = 0.5, 1.5", "detunings = 1e-200, 2e-200")
        )
        proc = run_cli("analyze", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")

    def test_near_equal_detunings_analyze(self, tmp_path):
        # a bisection bracket once rounded onto the pole -1: ZeroDivisionError, exit 1
        (tmp_path / "run.conf").write_text(
            "[system]\nalphas = 1, 1\nbetas = 1, 2\ndetunings = 1.0, 1.00001\n"
            "\n[pulses]\nwidth = 10\n"
            "\n[scan]\naxis = common_detuning\nstart = -4\nstop = 4\npoints = 3\n"
        )
        proc = run_cli("analyze", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0
        assert "no-transfer windows in [-4, 4]: [-1.00001, -1]\n" in proc.stdout

    def test_equal_scan_endpoints_are_2(self, tmp_path):
        # analyze once raised a bare ValueError (exit 1); scan wrote equal rows
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN + "\n[scan]\naxis = common_detuning\nstart = 1\nstop = 1\npoints = 3\n"
        )
        for command in ("analyze", "scan", "simulate"):
            proc = run_cli(command, "bad.conf", cwd=tmp_path)
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

    def test_config_that_is_not_utf8_is_2(self, tmp_path):
        # a UnicodeDecodeError traceback with exit 1 once
        (tmp_path / "bad.conf").write_bytes(SINGLE_RUN.replace("1, 2", "1, \xff").encode("latin-1"))
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: cannot read config bad.conf: ")
        assert "0xff" in proc.stderr and "Traceback" not in proc.stderr

    def test_output_path_with_nul_byte_is_2(self, tmp_path):
        # ValueError: embedded null byte, exit 1, once
        (tmp_path / "run.conf").write_text(SMALL_SCAN + "\n[output]\ncsv = a\x00b.csv\n")
        proc = run_cli("scan", "run.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: cannot write ")
        assert proc.stderr.endswith("a\x00b.csv: embedded null byte\n")

    def test_usage_error_is_2(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 2

    def test_threads_other_than_one_is_2(self, tmp_path):
        (tmp_path / "scan.conf").write_text(SMALL_SCAN)
        for threads in ("2", "0"):
            proc = run_cli("--threads", threads, "scan", "scan.conf", cwd=tmp_path)
            assert proc.returncode == 2
            assert "argument --threads: invalid choice" in proc.stderr
            assert proc.stdout == ""

    def test_overflowing_default_window_is_2(self, tmp_path):
        # the window (-inf, inf) was once integrated: step size underflow, exit 3
        (tmp_path / "bad.conf").write_text(SINGLE_RUN.replace("width = 10", "width = 1e308"))
        proc = run_cli("simulate", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: config: pulse window must be finite\n"
        # a width scan names the refused value, as for other refused points
        (tmp_path / "scan.conf").write_text(
            SINGLE_RUN + "\n[scan]\naxis = pulse_width\nstart = 1\nstop = 1e308\npoints = 2\n"
        )
        proc = run_cli("scan", "scan.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: config: at scan value 1e+308: pulse window must be finite\n"

    def test_tiny_width_runs(self, tmp_path):
        # the step floor held an absolute 1.0: step size underflow, exit 3
        (tmp_path / "run.conf").write_text(SINGLE_RUN.replace("width = 10", "width = 1e-14"))
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_width_whose_first_step_rounds_to_zero_is_3(self, tmp_path):
        # width / 20 rounds to 0.0: refused as an underflow, not looped on
        (tmp_path / "run.conf").write_text(SINGLE_RUN.replace("width = 10", "width = 1e-323"))
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: numeric: step size underflow at t=-4.4e-323\n"

    def test_huge_width_is_3(self, tmp_path):
        # the stages overflow: NumPy's RuntimeWarnings once came before the error
        (tmp_path / "run.conf").write_text(SINGLE_RUN.replace("width = 10", "width = 1e100"))
        proc = run_cli("simulate", "run.conf", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: numeric: step size underflow at t=-4.5e+100\n"

    def test_overflowing_scan_span_is_2(self, tmp_path):
        # np.linspace warned twice and made the values nan, inf, 1e308; scan
        # then named "scan value nan", and analyze exited 0
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN
            + "\n[scan]\naxis = common_detuning\nstart = -1e308\nstop = 1e308\npoints = 3\n"
        )
        for command in ("scan", "analyze"):
            proc = run_cli(command, "bad.conf", cwd=tmp_path)
            assert proc.returncode == 2
            assert proc.stderr == "error: config: scan span must be finite\n"
            assert proc.stdout == ""

    def test_tiny_delay_runs_and_refused_width_point_is_2(self, tmp_path):
        # tau * tau underflowed in the crossing estimate: ZeroDivisionError,
        # exit 1; at width 1e-30 the delay underflows to 0, which the scan
        # once let escape as a bare ValueError
        (tmp_path / "run.conf").write_text(
            SINGLE_RUN.replace("width = 10", "width = 1\ndelay = 1e-300")
            + "\n[scan]\naxis = pulse_width\nstart = 1e-30\nstop = 1\npoints = 2\n"
        )
        for command in ("simulate", "analyze"):
            proc = run_cli(command, "run.conf", cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        proc = run_cli("scan", "run.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: config: at scan value 1e-30: pulse delay must be positive\n"
        )
        assert proc.stdout == ""

    def test_refused_detuning_point_is_2(self, tmp_path):
        # the middle value's delta_1 delta_2 underflows, so its sums overflow
        (tmp_path / "bad.conf").write_text(
            "[system]\nalphas = 1, 2\nbetas = 1, 1\ndetunings = 1e-150, 1e-150\n"
            "\n[scan]\naxis = common_detuning\nstart = -1e-150\nstop = -0.99999e-150\n"
            "points = 3\n"
        )
        proc = run_cli("scan", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "error: config: at scan value -9.99995e-151: detuning sums over the nonzero"
        )
        proc = run_cli("analyze", "bad.conf", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")

    def test_oversized_point_count_is_2(self, tmp_path):
        # scan once exited 1 from np.linspace and analyze accepted the count
        (tmp_path / "bad.conf").write_text(
            SINGLE_RUN
            + "\n[scan]\naxis = common_detuning\nstart = -1\nstop = 1\n"
            "points = 100000000000000000000000\n"
        )
        for command in ("scan", "analyze"):
            proc = run_cli(command, "bad.conf", cwd=tmp_path)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: config: scan points must be at most")

    @settings(max_examples=8, deadline=None)
    @given(text=mutated_presets(malformed=True))
    def test_malformed_preset_is_2(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("malformed")
        (work / "bad.conf").write_text(text)
        proc = run_cli("analyze", "bad.conf", cwd=work)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:")
