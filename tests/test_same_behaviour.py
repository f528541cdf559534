"""tools/same_behaviour.py: the CLI run under two copies of the package."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_behaviour.py"
# One cheap preset: a single time point, scanned and analyzed.
CHEAP = ("--scan", "n2_linked_time", "--analyze", "n2_linked_time")


def _compare(other_src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(other_src), *CHEAP],
        capture_output=True, text=True, timeout=300,
    )


def test_copy_is_same_and_changed_format_differs(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    same = _compare(copy)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert lines == [
        "same  exit 0/0  preset list",
        "same  exit 0/0  preset n2_linked_time --out .",
        "same  exit 0/0  scan n2_linked_time.conf",
        "same  exit 0/0  analyze n2_linked_time.conf",
    ]

    # runner._fmt formats every CSV number
    runner = copy / "multilambda" / "runner.py"
    fmt = 'return "" if value is None else f"{value:.9g}"'
    text = runner.read_text()
    assert text.count(fmt) == 1
    runner.write_text(text.replace(fmt, fmt.replace(".9g", ".8g")))
    changed = _compare(copy)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert "DIFF  exit 0/0  scan n2_linked_time.conf  (n2_linked_time.csv differ)" in (
        changed.stdout.splitlines()
    )
    assert changed.stdout.count("DIFF") == 1
