"""Run the CLI under this checkout's ``src`` and under another ``src`` and compare.

    python3 tools/same_behaviour.py OTHER_SRC [--scan NAME ...] [--analyze NAME ...]

``OTHER_SRC`` is the ``src`` directory of another checkout, for example of
the parent commit exported with ``git archive``.  Each side works in a
temporary directory of its own, with its package leading ``PYTHONPATH`` as
``tests/test_cli.py`` sets it.  There it runs ``preset list``, writes each
named preset with ``multilambda preset``, runs ``scan`` on the ``--scan``
presets and ``analyze`` on the ``--analyze`` presets.  By default those are
the four scan presets below and every preset that ``preset list`` names.

Each run compares the exit code, stdout, stderr and the file it writes: the
config, the report bytes, or the CSV bytes without the ``seconds`` column,
the one column that varies between runs of the same code.  One ``same`` or
``DIFF`` line is printed per run with both exit codes (this side's first),
a DIFF line naming the parts that differ.
The exit status is 1 if any run differs, and 2 if a side would import a
package other than its own.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANS = ("n2_detuning_scan_t20", "n5_detuning_scan_t20", "n3_dark_widths", "lz_xi_small_widths")
# Prints the file a run would import the package from, without importing it.
WHERE = "import importlib.util as u; print(u.find_spec('multilambda').origin)"


def side_env(src: Path) -> dict[str, str]:
    """The environment with ``src`` leading ``PYTHONPATH``, inherited entries
    kept and made absolute."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(src)] + [str(Path(e).resolve()) for e in inherited if e]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def without_seconds(data: bytes) -> bytes:
    """CSV bytes with the ``seconds`` column removed."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or "seconds" not in rows[0]:
        return data
    drop = rows[0].index("seconds")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r[:drop] + r[drop + 1 :] for r in rows)
    return out.getvalue().encode()


class Side:
    """One package under test, run from its own working directory."""

    def __init__(self, src: Path, work: Path) -> None:
        self.src, self.work, self.env = src, work, side_env(src)

    def run(self, *args: str, output: str | None = None) -> dict[str, object]:
        """Outcome of ``python -m multilambda ARGS``: exit code, stdout,
        stderr and, keyed by its name, the bytes of the file ``output``
        (None if it was not written)."""
        proc = subprocess.run(
            [sys.executable, "-m", "multilambda", *args],
            cwd=self.work, env=self.env, capture_output=True,
        )
        outcome = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if output:
            path = self.work / output
            data = path.read_bytes() if path.exists() else None
            if data is not None and output.endswith(".csv"):
                data = without_seconds(data)
            outcome[output] = data
        return outcome

    def imports_own_package(self) -> bool:
        """Whether ``multilambda`` resolves to a file under ``src``."""
        proc = subprocess.run(
            [sys.executable, "-c", WHERE],
            cwd=self.work, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode == 0 and Path(proc.stdout.strip()).resolve().is_relative_to(
            self.src.resolve()
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other checkout")
    parser.add_argument("--scan", nargs="+", default=SCANS, metavar="NAME")
    parser.add_argument("--analyze", nargs="+", metavar="NAME", help="default: every preset")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as here, tempfile.TemporaryDirectory() as there:
        sides = (Side(ROOT / "src", Path(here)), Side(args.other_src, Path(there)))
        for side in sides:
            if not side.imports_own_package():
                print(f"error: a run from {side.src} does not import its own multilambda")
                return 2
        differ = False

        def compare(*cli: str, output: str | None = None) -> dict[str, object]:
            nonlocal differ
            mine, other = (side.run(*cli, output=output) for side in sides)
            parts = [key for key in mine if mine[key] != other[key]]
            differ = differ or bool(parts)
            verdict = "DIFF" if parts else "same"
            detail = f"  ({', '.join(parts)} differ)" if parts else ""
            print(f"{verdict}  exit {mine['exit']}/{other['exit']}  {' '.join(cli)}{detail}")
            return mine

        listed = compare("preset", "list")["stdout"].decode().split()
        analyze = args.analyze or listed
        for name in dict.fromkeys([*args.scan, *analyze]):
            compare("preset", name, "--out", ".", output=f"{name}.conf")
        for name in args.scan:
            compare("scan", f"{name}.conf", output=f"{name}.csv")
        for name in analyze:
            compare("analyze", f"{name}.conf", output=f"{name}.txt")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
