"""Run the CLI under this checkout's ``src`` and under another ``src`` and compare.

    python3 tools/same_behaviour.py OTHER_SRC [--scan NAME ...] [--analyze NAME ...]
                                    [--config FILE ...]
    python3 tools/same_behaviour.py OTHER_SRC --propagations

``OTHER_SRC`` is the ``src`` directory of another checkout, for example of
the parent commit exported with ``git archive``.  Each side works in a
temporary directory of its own, with its package leading ``PYTHONPATH`` as
``tests/test_cli.py`` sets it.  There it runs ``preset list``, writes each
named preset with ``multilambda preset``, runs ``scan`` on the ``--scan``
presets and ``analyze`` on the ``--analyze`` presets.  By default those are
the four scan presets below and every preset that ``preset list`` names.
Then it runs ``simulate``, ``scan`` and ``analyze`` on each ``--config``
file, each run on a copy of the file in a fresh directory, so that relative
output paths land there.

Each run compares the exit code, stdout, stderr and the files it writes: the
config, the report bytes, or the CSV bytes without the ``seconds`` column,
the one column that varies between runs of the same code (a CSV table in
stdout loses that column too).  One ``same`` or
``DIFF`` line is printed per run with both exit codes (this side's first),
a DIFF line naming the parts that differ and, for a CSV file whose two
tables have the same header and length, the columns that differ and in how
many rows, for example ``(out.csv differ: max_intermediate_pop in 3 rows)``.
With ``--propagations`` the CLI is not run.  Instead each side runs the
fixed list ``PROPAGATIONS`` of library calls in an interpreter of its own
and prints one SHA-256 per field of each ``PropagationResult``, and of the
error, if one was raised, with the values of the scalar fields.  One
``same`` or ``DIFF`` line is printed per result, a DIFF line naming the
fields that differ, the relative difference of each differing float
scalar, and whether ``n_accepted`` and ``n_rejected`` match, for example
``(trajectory, final_pf differ; final_pf by 1.8e-14; n_accepted/n_rejected
match)``; a field that one side's result does not have is not compared.

The exit status is 1 if any run or result differs, and 2 if a side would
import a package other than its own or its propagations could not be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANS = ("n2_detuning_scan_t20", "n5_detuning_scan_t20", "n3_dark_widths", "lz_xi_small_widths")
# Prints the file a run would import the package from, without importing it.
WHERE = "import importlib.util as u; print(u.find_spec('multilambda').origin)"

# Systems as (alphas, betas, detunings); pulses as (omega0, width, delay).
LINKED = ((1, 2), (1, 0.5), (0.5, 1.5))
BROKEN = ((1, 2), (1, 0.5), (-0.5, 0.5))
RES_GENERAL = ((1, 2), (1, 0.5), (0, 1))
TRANSFER = ((1, 1, 1), (1, 2, 1), (1, 2, -1))
N5 = ((1, 0.827, 1.4873, 0.8187, 1.2885), (1, 1.3699, 0.8911, 0.9379, 0.8727), (0, 1, 2, 3, 4))
# An N = 30 system, its detunings spread over [-2, 2].
N30 = (
    tuple(1 + 0.4 * math.sin(k) for k in range(30)),
    tuple(1 + 0.4 * math.cos(k) for k in range(30)),
    tuple(-2 + 4 * k / 29 for k in range(30)),
)
# An N = 4 system and the 24 common detuning shifts over [-3, 3] of a scan.
N4 = ((1, 0.8, 1.3, 0.6), (1, 1.2, 0.7, 1.4), (-2, -0.6, 0.7, 2))
SHIFTS = tuple(-3 + 6 * i / 23 for i in range(24))
LOOSE = {"rel_tol": 1e-8, "abs_tol": 1e-10}
# (label, points, IntegratorConfig keywords): one point is a ``propagate``
# call, which stores every accepted node, and several are one
# ``propagate_batch`` call, whose results store their windows' two ends.
PROPAGATIONS = (
    ("linked w=0.5", [(LINKED, (1, 0.5, 0.25))], {}),
    ("linked w=30", [(LINKED, (1, 30, 15))], {}),
    ("linked w=80 loose", [(LINKED, (1, 80, 40))], LOOSE),
    ("broken w=20", [(BROKEN, (1, 20, 10))], {}),
    ("res_general w=5", [(RES_GENERAL, (1, 5, 2.5))], {}),
    ("transfer w=2", [(TRANSFER, (1, 2, 1))], {}),
    ("n5 w=20", [(N5, (1, 20, 10))], {}),
    ("n5 w=40 loose", [(N5, (1, 40, 20))], LOOSE),
    ("batch", [(LINKED, (1, 10, 5)), (RES_GENERAL, (1, 30, 15)), (BROKEN, (0.5, 3, 2)),
               (LINKED, (2, 60, 20))], {}),
    ("n30 w=30", [(N30, (1, 30, 15))], {}),
    ("n4 detuning scan w=30",
     [((N4[0], N4[1], tuple(d + s for d in N4[2])), (1, 30, 15)) for s in SHIFTS], {}),
)
# Run under one side's package: prints, as JSON, [label, {field: SHA-256},
# {field: value}] for each result of each entry of the list given as argv[1];
# the values are those of the scalar fields.
PROPAGATE = """
import ast, dataclasses, hashlib, json, sys
import numpy as np
from multilambda import IntegratorConfig, MultiLambdaSystem, PulsePair, propagate, propagate_batch

def digest(value):
    a = np.asarray(value)
    return hashlib.sha256(f"{a.dtype} {a.shape} ".encode() + a.tobytes()).hexdigest()

out = []
for label, points, settings in ast.literal_eval(sys.argv[1]):
    points = [(MultiLambdaSystem(*system), PulsePair(*pulses)) for system, pulses in points]
    labels = [label] if len(points) == 1 else [f"{label}[{i}]" for i in range(len(points))]
    try:
        if len(points) == 1:
            results = [propagate(*points[0], IntegratorConfig(**settings))]
        else:
            results = propagate_batch(points, IntegratorConfig(**settings))
    except Exception as exc:
        error = digest(f"{type(exc).__name__}: {exc}")
        out += [[name, {"error": error}, {}] for name in labels]
        continue
    for name, res in zip(labels, results):
        values = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
        fields = {key: digest(value) for key, value in values.items()}
        scalars = {key: value for key, value in values.items() if isinstance(value, (int, float))}
        out.append([name, {"error": digest(""), **fields}, scalars])
print(json.dumps(out))
"""


def side_env(src: Path) -> dict[str, str]:
    """The environment with ``src`` leading ``PYTHONPATH``, inherited entries
    kept and made absolute."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(src)] + [str(Path(e).resolve()) for e in inherited if e]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def without_seconds(data: bytes) -> bytes:
    """``data`` with the ``seconds`` column of its CSV table removed.

    The table starts at the first line whose comma-separated fields include
    ``seconds``; from there on each line with as many fields as that header
    loses the field.  Every other byte is kept as it is, line endings and
    lines outside the table included.  The package writes its CSV without
    quoting, so splitting on commas is exact.
    """
    lines = data.splitlines(keepends=True)
    fields = [line.rstrip(b"\r\n").split(b",") for line in lines]
    start = next((i for i, row in enumerate(fields) if b"seconds" in row), None)
    if start is None:
        return data
    width, drop = len(fields[start]), fields[start].index(b"seconds")
    for i in range(start, len(lines)):
        row = fields[i]
        if len(row) == width:
            end = lines[i][len(b",".join(row)):]
            lines[i] = b",".join(row[:drop] + row[drop + 1 :]) + end
    return b"".join(lines)


def csv_columns(mine: bytes, other: bytes) -> str:
    """The columns in which two CSV tables differ, each with the number of
    rows it differs in, for example ``pf in 1 row, xi in 2 rows``.

    The first line of each is the header.  Empty if the headers or the
    numbers of lines or of fields in a line differ, or no field does.
    """
    tables = [[line.split(b",") for line in data.splitlines()] for data in (mine, other)]
    if not tables[0] or len(tables[0]) != len(tables[1]) or tables[0][0] != tables[1][0]:
        return ""
    header = tables[0][0]
    counts = [0] * len(header)
    for a, b in zip(*tables):
        if not len(a) == len(b) == len(header):
            return ""
        for j, (x, y) in enumerate(zip(a, b)):
            counts[j] += x != y
    return ", ".join(
        f"{name.decode()} in {n} row{'' if n == 1 else 's'}"
        for name, n in zip(header, counts) if n
    )


class Side:
    """One package under test, run from its own working directory."""

    def __init__(self, src: Path, work: Path) -> None:
        self.src, self.work, self.env = src, work, side_env(src)

    def run(self, *args: str, output: str | None = None, cwd: Path | None = None
            ) -> dict[str, object]:
        """Outcome of ``python -m multilambda ARGS`` in ``cwd`` (default: the
        side's directory): exit code, stdout, stderr and, keyed by its name,
        the bytes of the file ``output`` (None if it was not written)."""
        cwd = cwd or self.work
        proc = subprocess.run(
            [sys.executable, "-m", "multilambda", *args],
            cwd=cwd, env=self.env, capture_output=True,
        )
        outcome = {
            "exit": proc.returncode,
            "stdout": without_seconds(proc.stdout),
            "stderr": proc.stderr,
        }
        if output:
            path = cwd / output
            data = path.read_bytes() if path.exists() else None
            if data is not None and output.endswith(".csv"):
                data = without_seconds(data)
            outcome[output] = data
        return outcome

    def run_config(self, command: str, config: Path, where: str) -> dict[str, object]:
        """Outcome of ``COMMAND`` on a copy of ``config`` in the new
        directory ``where``, as :meth:`run` gives it, with the bytes of
        every file the run wrote there keyed by its relative path."""
        cwd = self.work / where
        cwd.mkdir(parents=True)
        shutil.copyfile(config, cwd / config.name)
        outcome = self.run(command, config.name, cwd=cwd)
        for path in sorted(cwd.rglob("*")):
            name = str(path.relative_to(cwd))
            if path.is_file() and name != config.name:
                data = path.read_bytes()
                outcome[name] = without_seconds(data) if name.endswith(".csv") else data
        return outcome

    def propagations(self) -> list[tuple[str, dict[str, str], dict[str, float]]] | None:
        """Label, field digests and scalar field values of each result of
        ``PROPAGATIONS``, or None, with the side's stderr printed, if they
        could not be run."""
        proc = subprocess.run(
            [sys.executable, "-c", PROPAGATE, repr(PROPAGATIONS)],
            cwd=self.work, env=self.env, capture_output=True, text=True,
        )
        if proc.returncode:
            print(f"error: the propagations under {self.src} failed:\n{proc.stderr}")
            return None
        return json.loads(proc.stdout)

    def imports_own_package(self) -> bool:
        """Whether ``multilambda`` resolves to a file under ``src``."""
        proc = subprocess.run(
            [sys.executable, "-c", WHERE],
            cwd=self.work, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode == 0 and Path(proc.stdout.strip()).resolve().is_relative_to(
            self.src.resolve()
        )


def relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 where a == b."""
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def propagation_detail(digests: tuple[dict, dict], values: tuple[dict, dict]) -> str:
    """What differs between two results, given each side's field digests and
    scalar field values; empty if nothing does.

    Names the fields whose digests differ, then gives each differing float
    scalar its relative difference and says whether the step counts match,
    where both sides have them.
    """
    a, b = digests
    parts = [name for name in a if name in b and a[name] != b[name]]
    if not parts:
        return ""
    mine, other = values
    detail = [f"{', '.join(parts)} differ"]
    floats = [
        f"{name} by {relative(mine[name], other[name]):.1e}" for name in parts
        if isinstance(mine.get(name), float) and isinstance(other.get(name), float)
    ]
    if floats:
        detail.append(", ".join(floats))
    counts = ("n_accepted", "n_rejected")
    if all(name in mine and name in other for name in counts):
        match = all(mine[name] == other[name] for name in counts)
        detail.append(f"n_accepted/n_rejected {'match' if match else 'differ'}")
    return "; ".join(detail)


def compare_propagations(sides: tuple[Side, Side]) -> int:
    """Print one line per result of ``PROPAGATIONS``; the exit status."""
    mine, other = (side.propagations() for side in sides)
    if mine is None or other is None:
        return 2
    differ = False
    for (label, a, va), (_, b, vb) in zip(mine, other):
        detail = propagation_detail((a, b), (va, vb))
        differ = differ or bool(detail)
        print(f"DIFF  {label}  ({detail})" if detail else f"same  {label}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other checkout")
    parser.add_argument("--scan", nargs="+", default=SCANS, metavar="NAME")
    parser.add_argument("--analyze", nargs="+", metavar="NAME", help="default: every preset")
    parser.add_argument(
        "--config", nargs="+", type=Path, default=(), metavar="FILE",
        help="also run simulate, scan and analyze on each of these config files",
    )
    parser.add_argument(
        "--propagations", action="store_true",
        help="compare the fixed list of library propagations instead of CLI runs",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as here, tempfile.TemporaryDirectory() as there:
        sides = (Side(ROOT / "src", Path(here)), Side(args.other_src, Path(there)))
        for side in sides:
            if not side.imports_own_package():
                print(f"error: a run from {side.src} does not import its own multilambda")
                return 2
        if args.propagations:
            return compare_propagations(sides)
        differ = False

        def compare(*cli: str, output: str | None = None, config: Path | None = None,
                    where: str = "") -> dict[str, object]:
            nonlocal differ
            if config is None:
                mine, other = (side.run(*cli, output=output) for side in sides)
            else:
                mine, other = (side.run_config(cli[0], config, where) for side in sides)
            parts = [key for key in {**mine, **other} if mine.get(key) != other.get(key)]
            named = [
                csv_columns(mine[key], other[key]) for key in parts
                if key.endswith(".csv") and mine.get(key) and other.get(key)
            ]
            columns = "".join(f": {n}" for n in named if n)
            differ = differ or bool(parts)
            verdict = "DIFF" if parts else "same"
            detail = f"  ({', '.join(parts)} differ{columns})" if parts else ""
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
        for i, config in enumerate(args.config):
            for command in ("simulate", "scan", "analyze"):
                compare(command, str(config), config=config, where=f"config-{i}-{command}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
