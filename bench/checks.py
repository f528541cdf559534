"""Correctness gate: independent references and the comparisons against them.

Every output the benchmark times is checked here, after the timed region:

* scan rows: ``pf`` against a SciPy DOP853 propagation (rtol 1e-12,
  atol 1e-13) within an absolute 1e-8, the reference and tolerance of
  ``tests/test_dynamics.py``; the transfer verdict against the sign rule on
  the detuning sums; ``xi`` present exactly where a crossing exists.
* tracked snapshots: eigenvalues against ``numpy.linalg.eigvalsh`` of the
  same H(t), labels a permutation; the analysis calls against the sign rule.

A row or snapshot that is missing, raised, or disagrees is one failure;
nothing is dropped.  The references build H from the benchmark's own
formulas and never call the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from workloads import NO_AT_RANGE, Pulses, ScanInput, SpectrumInput, System, hamiltonians

PF_ATOL = 1e-8
EIG_ATOL = 1e-10  # in units of omega0; the matrices have norm of order 1 to 10
_SIG9 = 1e-8  # relative resolution of the CSV's 9 significant digits


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    err_max: float = 0.0
    messages: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.note(message)


def reference_pf(system: System, pulses: Pulses) -> float:
    al = np.asarray(system.alphas)
    be = np.asarray(system.betas)
    de = np.asarray(system.detunings)

    def rhs(t, y):
        wp, ws = pulses.values(t)
        mid = y[1:-1]
        dy = np.empty_like(y)
        dy[0] = wp * (al @ mid)
        dy[1:-1] = (wp * y[0]) * al + de * mid + (ws * y[-1]) * be
        dy[-1] = ws * (be @ mid)
        return -1j * dy

    y0 = np.zeros(len(al) + 2, dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, pulses.window(), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(np.abs(sol.y[-1, -1]) ** 2)


def reference_pfs(scan: ScanInput) -> np.ndarray:
    return np.array([reference_pf(*scan.point(v)) for v in scan.values()])


def check_scan(scan: ScanInput, scans: list[list | None], refs: np.ndarray) -> Check:
    """``scans`` holds one entry per scan run: its rows as
    ``[scan_value, pf, at_verdict, xi]``, or None when the run failed."""
    check = Check()
    values = scan.values()
    for n, rows in enumerate(scans):
        check.attempted += len(values)
        if rows is None:
            check.fail(f"scan {n}: no output", len(values))
            continue
        for k, value in enumerate(values):
            if k >= len(rows):
                check.fail(f"scan {n}: row {k} missing", len(values) - k)
                break
            scan_value, pf, verdict, xi = rows[k]
            system, _ = scan.point(value)
            exists = system.transfer_state_exists()
            err = abs(pf - refs[k])
            check.err_max = max(check.err_max, err)
            problems = []
            if abs(scan_value - value) > _SIG9 * max(1.0, abs(value)):
                problems.append(f"scan_value {scan_value} != {value}")
            if not err <= PF_ATOL:
                problems.append(f"pf {pf} vs reference {refs[k]}")
            if verdict != ("general" if exists else "none"):
                problems.append(f"verdict {verdict!r}, sums say exists={exists}")
            if (xi is not None) != exists or (xi is not None and not xi >= 0):
                problems.append(f"xi {xi!r}, sums say crossing={exists}")
            if problems:
                check.fail(f"scan {n} row {k}: " + "; ".join(problems))
        if len(rows) > len(values):
            check.fail(f"scan {n}: {len(rows) - len(values)} extra rows")
    return check


def _interval_failures(system: System, intervals, check: Check, k: int) -> int:
    """Probe a fine grid of common shifts against the returned intervals."""
    lo, hi = NO_AT_RANGE
    ends = np.array([e for iv in intervals for e in iv] or [np.inf])
    ordered = all(a < b for a, b in intervals) and all(
        b0 <= a1 for (_, b0), (a1, _) in zip(intervals, intervals[1:])
    )
    if not ordered or any(a < lo or b > hi for a, b in intervals):
        check.note(f"system {k}: intervals not sorted inside [{lo}, {hi}]: {intervals}")
        return 1
    for x in np.linspace(lo, hi, 801):
        shifted = system.shifted(float(x))
        if np.min(np.abs(ends - x)) < 1e-9 or not shifted.well_conditioned():
            continue  # on a boundary or pole: either answer is right
        inside = any(a <= x <= b for a, b in intervals)
        if inside == shifted.transfer_state_exists():
            check.note(f"system {k}: shift {x:.6g} misclassified by intervals {intervals}")
            return 1
    return 0


def _system_failures(spec: SpectrumInput, k: int, record: dict, eigen, check: Check) -> int:
    """Failed operations of system k in the first pass."""
    system = spec.systems[k]
    grid = spec.grid()
    if record["errors"] or f"w{k}" not in eigen:
        check.note(f"system {k}: {record['errors'][:1]}")
        return len(grid) + 3
    failed = 0
    exists = system.transfer_state_exists()
    if record["verdict"] != ("general" if exists else "none"):
        check.note(f"system {k}: verdict {record['verdict']!r}, sums say exists={exists}")
        failed += 1
    failed += _interval_failures(system, record["intervals"], check, k)
    lz = record["lz"]
    if (lz is not None) != exists or (lz is not None and not 0.0 <= lz[2] <= 1.0):
        check.note(f"system {k}: crossing estimate {lz}, sums say crossing={exists}")
        failed += 1
    w, ids = eigen[f"w{k}"], eigen[f"ids{k}"]
    dim = len(system.alphas) + 2
    if w.shape != (len(grid), dim) or ids.shape != (len(grid), dim):
        check.note(f"system {k}: snapshot arrays {w.shape}, expected {(len(grid), dim)}")
        return failed + len(grid)
    ref = np.linalg.eigvalsh(hamiltonians(system, spec.pulses, grid))
    err = np.max(np.abs(w - ref), axis=1)
    check.err_max = max(check.err_max, float(np.max(err)))
    bad = (err > EIG_ATOL) | np.any(np.sort(ids, axis=1) != np.arange(dim), axis=1)
    if np.any(bad):
        check.note(f"system {k}: {int(bad.sum())} snapshot(s) wrong, first at "
                   f"t={grid[int(np.argmax(bad))]:.6g}")
    return failed + int(bad.sum())


def check_spectrum(spec: SpectrumInput, records: list[dict], eigen, passes: int,
                   repeat_mismatch: list[int]) -> Check:
    """``records[k]`` and ``eigen['w<k>']``/``['ids<k>']`` are the first pass's
    outputs for system k.  Every later pass was compared with them exactly:
    a pass that matched repeats the first pass's failures, one that did not
    counts all of the system's operations as failed."""
    check = Check()
    ops = spec.grid_points + 3  # tracked snapshots plus classify, intervals, estimate
    for k in range(len(spec.systems)):
        mismatched = repeat_mismatch[k]
        record = records[k] if k < len(records) else {"errors": ["missing"]}
        first = _system_failures(spec, k, record, eigen, check)
        check.attempted += ops * passes
        check.failed += first * (passes - mismatched) + ops * mismatched
        if mismatched:
            check.note(f"system {k}: {mismatched} later pass(es) differ from the first")
    return check
