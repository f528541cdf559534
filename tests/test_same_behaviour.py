"""tools/same_behaviour.py: the CLI run under two copies of the package."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_behaviour.py"
# One cheap preset: a single time point, scanned and analyzed.
CHEAP = ("--scan", "n2_linked_time", "--analyze", "n2_linked_time")
# One cheap hostile config, written to a CSV file: a pulse width of 1e-14,
# which once failed with a step size underflow.
HOSTILE = """\
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
width = 1e-14

[output]
csv = out.csv
"""


def _tool():
    spec = importlib.util.spec_from_file_location("same_behaviour", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_without_seconds_keeps_every_other_byte():
    without_seconds = _tool().without_seconds
    data = b'note "a,b"\r\nscan_value,pf,seconds\n1,0.5,0.01\r\n2,0.25,0.02\nend \xff\n'
    assert without_seconds(data) == b'note "a,b"\r\nscan_value,pf\n1,0.5\r\n2,0.25\nend \xff\n'
    # lines outside the table are compared as they are
    assert without_seconds(b"a\r\n\xff") == b"a\r\n\xff"
    assert without_seconds(b"a\r\n") != without_seconds(b"a\n")


def test_csv_columns_counts_the_rows_of_each_column():
    csv_columns = _tool().csv_columns
    old = b"scan_value,pf,max_intermediate_pop\n1,0.5,0.25\n2,0.5,0.125\n3,0.5,0.1\n"
    new = b"scan_value,pf,max_intermediate_pop\n1,0.5,0.25\n2,0.5,0.1250001\n3,0.4,0.2\n"
    assert csv_columns(old, new) == "pf in 1 row, max_intermediate_pop in 2 rows"
    # no column is named where the tables do not line up
    assert csv_columns(old, new.replace(b"pf", b"p")) == ""
    assert csv_columns(old, new + b"4,0.5,0.1\n") == ""
    assert csv_columns(old, new.replace(b"3,0.4", b"3,0,4")) == ""
    assert csv_columns(old, old.replace(b"\n", b"\r\n")) == ""


def _copy_src(tmp_path: Path) -> Path:
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _compare(other_src: Path, config: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(other_src), *CHEAP, "--config", str(config)],
        capture_output=True, text=True, timeout=300,
    )


def test_copy_is_same_and_changed_format_differs(tmp_path):
    copy = _copy_src(tmp_path)
    config = tmp_path / "tiny.conf"
    config.write_text(HOSTILE)
    same = _compare(copy, config)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert lines == [
        "same  exit 0/0  preset list",
        "same  exit 0/0  preset n2_linked_time --out .",
        "same  exit 0/0  scan n2_linked_time.conf",
        "same  exit 0/0  analyze n2_linked_time.conf",
        f"same  exit 0/0  simulate {config}",
        f"same  exit 0/0  scan {config}",
        f"same  exit 0/0  analyze {config}",
    ]

    # runner._fmt formats every CSV number
    runner = copy / "multilambda" / "runner.py"
    fmt = 'return "" if value is None else f"{value:.9g}"'
    text = runner.read_text()
    assert text.count(fmt) == 1
    runner.write_text(text.replace(fmt, fmt.replace(".9g", ".8g")))
    changed = _compare(copy, config)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert [line for line in changed.stdout.splitlines() if line.startswith("DIFF")] == [
        "DIFF  exit 0/0  scan n2_linked_time.conf  (n2_linked_time.csv differ: "
        "pf in 1 row, max_intermediate_pop in 1 row, xi in 1 row)",
        f"DIFF  exit 0/0  simulate {config}  (out.csv differ: max_intermediate_pop in 1 row, "
        "xi in 1 row)",
        f"DIFF  exit 0/0  scan {config}  (out.csv differ: max_intermediate_pop in 1 row, "
        "xi in 1 row)",
    ]


def test_config_alone_runs_no_preset(tmp_path, capsys):
    # the preset defaults once applied to a config-only comparison too
    config = tmp_path / "tiny.conf"
    config.write_text(HOSTILE)
    assert _tool().main([str(ROOT / "src"), "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"same  exit 0/0  {command} {config}" for command in ("simulate", "scan", "analyze")
    ]


def _compare_propagations(other_src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(other_src), "--propagations"],
        capture_output=True, text=True, timeout=300,
    )


def test_propagations_of_a_copy_are_same(tmp_path):
    same = _compare_propagations(_copy_src(tmp_path))
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert len(lines) == 37  # nine single points, batches of four and of 24
    assert all(line.startswith("same  ") for line in lines), same.stdout


def test_propagations_under_a_changed_controller_differ(tmp_path):
    copy = _copy_src(tmp_path)
    dynamics = copy / "multilambda" / "dynamics.py"
    text = dynamics.read_text()
    assert text.count("\n_SAFETY = 0.9\n") == 1
    dynamics.write_text(text.replace("\n_SAFETY = 0.9\n", "\n_SAFETY = 0.91\n"))
    changed = _compare_propagations(copy)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    lines = changed.stdout.splitlines()
    assert len(lines) == 37  # nine single points, batches of four and of 24
    for line in lines:
        assert line.startswith("DIFF  ") and "; final_pf by " in line, line
        assert line.endswith("; n_accepted/n_rejected differ)"), line


def test_propagation_detail_sizes_a_diff():
    tool = _tool()
    digests = {"error": "e", "trajectory": "t", "final_pf": "p", "n_accepted": "a"}
    values = {"final_pf": 0.5, "n_accepted": 10, "n_rejected": 2}
    assert tool.propagation_detail((digests, dict(digests)), (values, dict(values))) == ""
    # a last-bit change keeps the step counts
    ulp = {**values, "final_pf": 0.5 + 2**-53}
    assert tool.propagation_detail(
        (digests, {**digests, "trajectory": "t2", "final_pf": "p2"}), (values, ulp)
    ) == "trajectory, final_pf differ; final_pf by 2.2e-16; n_accepted/n_rejected match"
    # a real change moves them; an int field has no relative difference
    moved = {**values, "final_pf": 0.25, "n_accepted": 11}
    assert tool.propagation_detail(
        (digests, {**digests, "final_pf": "p2", "n_accepted": "a2"}), (values, moved)
    ) == "final_pf, n_accepted differ; final_pf by 5.0e-01; n_accepted/n_rejected differ"
    # a side that raised has neither values nor step counts
    assert tool.propagation_detail(
        ({"error": "e"}, {"error": "e2"}), ({}, {})
    ) == "error differ"
