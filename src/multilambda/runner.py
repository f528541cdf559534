"""Scan orchestration: evaluate configured runs, emit CSV rows and reports.

A scan point is a pure function of the configuration and the scan value.
Each point is classified and given its Landau-Zener estimate on its own;
then all points are propagated together by one batched call
(:func:`~multilambda.dynamics.propagate_batch`), in which every point takes
exactly the steps it would take alone.  ``threads > 1`` splits the points
into that many contiguous chunks and runs one batched call per chunk in a
process pool; a point's row is the same either way, and assembly preserves
the input order.  The ``seconds`` column is the point's own classification
and estimate time plus an equal share of its batch's propagation time.
CSV floats are printed with 9 significant digits, which round-trips the
physics while keeping files byte-stable; the wall-time column is the one
intentionally nondeterministic field.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .analysis import AtClassification, Regime, classify, lz_estimate, no_at_intervals
from .config import RunConfig, ScanAxis
# ``propagate`` is not called here but stays a module attribute: the
# benchmark's traced run wraps ``runner.propagate`` by name, next to
# ``classify``, ``lz_estimate`` and ``evaluate_point``.
from .dynamics import propagate, propagate_batch  # noqa: F401
from .errors import NoCrossing, NumericalError
from .model import MultiLambdaSystem, PulsePair

__all__ = ["ScanRow", "evaluate_point", "run_scan", "format_csv", "write_csv", "report_text"]

CSV_HEADER = "scan_value,pf,max_intermediate_pop,at_verdict,xi,seconds"


@dataclass(frozen=True)
class ScanRow:
    scan_value: float | None
    pf: float
    max_intermediate_pop: float
    at_verdict: str
    xi: float | None
    seconds: float


def _point_inputs(cfg: RunConfig, value: float | None) -> tuple[MultiLambdaSystem, PulsePair]:
    system = cfg.system
    pulses = cfg.pulses
    if value is None or cfg.scan is None:
        return system, pulses
    if cfg.scan.axis is ScanAxis.PULSE_WIDTH:
        ratio = pulses.delay / pulses.width
        pulses = PulsePair(
            omega0=pulses.omega0, width=value, delay=ratio * value, shape=pulses.shape
        )
    else:
        system = system.with_common_detuning(value)
    return system, pulses


def _xi_or_none(system: MultiLambdaSystem, pulses: PulsePair) -> float | None:
    if system.resonant_indices():
        return None
    try:
        return lz_estimate(system, pulses).xi
    except NoCrossing:
        return None


def _evaluate_chunk(cfg: RunConfig, values: list[float | None]) -> list[ScanRow]:
    """Classify each point, then propagate all of them in one batched call."""
    inputs = [_point_inputs(cfg, value) for value in values]
    own: list[tuple[str, float | None, float]] = []
    for system, pulses in inputs:
        started = time.perf_counter()
        verdict = classify(system).at_state.value
        xi = _xi_or_none(system, pulses)
        own.append((verdict, xi, time.perf_counter() - started))
    started = time.perf_counter()
    try:
        results = propagate_batch(inputs, cfg.integrator)
    except NumericalError as exc:
        value = values[exc.point]
        if value is not None:
            raise type(exc)(f"at scan value {value:.9g}: {exc}") from exc
        raise
    share = (time.perf_counter() - started) / len(values)
    return [
        ScanRow(
            scan_value=value,
            pf=result.final_pf,
            max_intermediate_pop=result.max_intermediate_pop,
            at_verdict=verdict,
            xi=xi,
            seconds=seconds + share,
        )
        for value, result, (verdict, xi, seconds) in zip(values, results, own)
    ]


def evaluate_point(cfg: RunConfig, value: float | None) -> ScanRow:
    """Run one scan point: classify, propagate, time it."""
    return _evaluate_chunk(cfg, [value])[0]


def run_scan(cfg: RunConfig, threads: int = 1) -> list[ScanRow]:
    """Evaluate every scan point (or the single configured run) in order.

    With ``threads > 1`` the points are split into ``threads`` contiguous
    chunks, each propagated by one batched call in its own process.
    """
    if cfg.scan is None:
        values: list[float | None] = [None]
    else:
        values = list(cfg.scan.values())
    chunks = _split(values, min(threads, len(values)))
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = pool.map(_evaluate_chunk, [cfg] * len(chunks), chunks)
            return [row for part in parts for row in part]
    return _evaluate_chunk(cfg, values)


def _split(values: list, n: int) -> list[list]:
    """``n`` contiguous chunks whose sizes differ by at most one."""
    size, extra = divmod(len(values), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def format_csv(rows: list[ScanRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _fmt(row.scan_value),
                    _fmt(row.pf),
                    _fmt(row.max_intermediate_pop),
                    row.at_verdict,
                    _fmt(row.xi),
                    _fmt(row.seconds),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ScanRow], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows))


def _sums_lines(outcome: AtClassification) -> list[str]:
    s = outcome.s_sums
    if s is None:
        return ["detuning sums: undefined (resonant state present)"]
    return [
        f"detuning sums: pump {s.s_a2:.6g}, stokes {s.s_b2:.6g}, cross {s.s_ab:.6g}",
    ]


def _at_line(outcome: AtClassification) -> str:
    if outcome.at_state.value == "none":
        return f"transfer state: does not exist; condition: {outcome.reason}"
    kind = "dark" if outcome.at_state.value == "dark" else "general"
    return f"transfer state: exists ({kind}); condition: {outcome.reason}"


def _lz_lines(system: MultiLambdaSystem, pulses: PulsePair) -> list[str]:
    if system.resonant_indices():
        return ["avoided crossing: not applicable (resonant state present)"]
    try:
        est = lz_estimate(system, pulses)
    except NoCrossing as exc:
        return [f"avoided crossing: not applicable ({exc})"]
    return [
        f"avoided crossing: t_c = {est.t_c:.6g}, xi = {est.xi:.6g},"
        f" estimated final population {est.pf_estimate:.6g}"
    ]


def report_text(cfg: RunConfig) -> str:
    """Human-readable analysis of the configured system; no propagation."""
    system = cfg.system
    pulses = cfg.pulses
    outcome = classify(system)
    lines = [
        f"system: {system.n_intermediate} intermediate state(s)",
        f"  pump couplings:   {', '.join(f'{a:.6g}' for a in system.alphas)}",
        f"  stokes couplings: {', '.join(f'{b:.6g}' for b in system.betas)}",
        f"  detunings:        {', '.join(f'{d:.6g}' for d in system.detunings)}",
        f"pulses: peak {pulses.omega0:.6g}, width {pulses.width:.6g},"
        f" delay {pulses.delay:.6g} (stokes first)",
        f"regime: {outcome.regime.value}",
        *_sums_lines(outcome),
        f"zero eigenvalue: {outcome.zero_eigenvalue.value}",
        _at_line(outcome),
    ]
    if cfg.scan is not None and cfg.scan.axis is ScanAxis.COMMON_DETUNING:
        lo = min(cfg.scan.start, cfg.scan.stop)
        hi = max(cfg.scan.start, cfg.scan.stop)
        windows = no_at_intervals(system, lo, hi)
        if windows:
            spans = ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in windows)
            lines.append(f"no-transfer windows in [{lo:.6g}, {hi:.6g}]: {spans}")
        else:
            lines.append(f"no-transfer windows in [{lo:.6g}, {hi:.6g}]: none")
    lines.extend(_lz_lines(system, pulses))
    return "\n".join(lines) + "\n"
