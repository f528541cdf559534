"""Scan orchestration: evaluate configured runs, emit CSV rows and reports.

A scan point is a pure function of the configuration and the scan value.
Each point is classified and given its Landau-Zener estimate on its own;
then all points are propagated together by one batched call
(:func:`~multilambda.dynamics.propagate_batch`), in which every point takes
exactly the steps it would take alone.  A scan is that one batch in one
process, and its rows keep the order of the scan values.  The ``seconds``
column is the point's own classification and estimate time plus an equal
share of the batch's propagation time.
CSV floats are printed with 9 significant digits, which round-trips the
physics while keeping files byte-stable; the wall-time column is the one
intentionally nondeterministic field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .analysis import AtClassification, LzEstimate, classify, lz_estimate, no_at_intervals
from .config import RunConfig, ScanAxis
# ``propagate`` is not called here but stays a module attribute: the
# benchmark's traced run wraps ``runner.propagate`` by name, next to
# ``classify``, ``lz_estimate`` and ``evaluate_point``.
from .dynamics import propagate, propagate_batch  # noqa: F401
from .errors import ConfigError, NoCrossing, NumericalError
from .model import MultiLambdaSystem, PulsePair

__all__ = ["ScanRow", "evaluate_point", "run_scan", "format_csv", "report_text"]

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
    """The system and pulses at one scan value; a value whose point the
    constructors refuse is a ConfigError naming it."""
    system = cfg.system
    pulses = cfg.pulses
    if value is None or cfg.scan is None:
        return system, pulses
    try:
        if cfg.scan.axis is ScanAxis.PULSE_WIDTH:
            ratio = pulses.delay / pulses.width
            pulses = replace(pulses, width=value, delay=ratio * value)
        else:
            system = system.with_common_detuning(value)
    except ValueError as exc:
        raise ConfigError(f"at scan value {value:.9g}: {exc}") from None
    return system, pulses


def _lz_or_reason(system: MultiLambdaSystem, pulses: PulsePair) -> LzEstimate | str:
    """The Landau-Zener estimate, or the reason it does not apply."""
    try:
        return lz_estimate(system, pulses)
    except NoCrossing as exc:
        return str(exc)


def _evaluate_chunk(cfg: RunConfig, values: list[float | None]) -> list[ScanRow]:
    """Classify each point, then propagate all of them in one batched call."""
    inputs = [_point_inputs(cfg, value) for value in values]
    own: list[tuple[str, float | None, float]] = []
    for system, pulses in inputs:
        started = time.perf_counter()
        verdict = classify(system).at_state.value
        est = _lz_or_reason(system, pulses)
        xi = None if isinstance(est, str) else est.xi
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


def run_scan(cfg: RunConfig) -> list[ScanRow]:
    """Evaluate every scan point (or the single configured run) in order."""
    if cfg.scan is None:
        return _evaluate_chunk(cfg, [None])
    return _evaluate_chunk(cfg, list(cfg.scan.values()))


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


def _sums_line(system: MultiLambdaSystem) -> str:
    if system.resonant_indices():
        return "detuning sums: undefined (resonant state present)"
    pump, stokes, cross = (float(x) for x in (system.sums.a2, system.sums.b2, system.sums.ab))
    return f"detuning sums: pump {pump:.6g}, stokes {stokes:.6g}, cross {cross:.6g}"


def _at_line(outcome: AtClassification) -> str:
    if outcome.at_state.value == "none":
        return f"transfer state: does not exist; condition: {outcome.reason}"
    kind = "dark" if outcome.at_state.value == "dark" else "general"
    return f"transfer state: exists ({kind}); condition: {outcome.reason}"


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
        _sums_line(system),
        f"zero eigenvalue: {outcome.zero_eigenvalue.value}",
        _at_line(outcome),
    ]
    if cfg.scan is not None and cfg.scan.axis is ScanAxis.COMMON_DETUNING:
        lo = min(cfg.scan.start, cfg.scan.stop)
        hi = max(cfg.scan.start, cfg.scan.stop)
        try:
            windows = no_at_intervals(system, lo, hi)
        except ValueError as exc:  # a shift within the range gives a refused system
            raise ConfigError(f"scan range [{lo:.9g}, {hi:.9g}]: {exc}") from None
        if windows:
            spans = ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in windows)
            lines.append(f"no-transfer windows in [{lo:.6g}, {hi:.6g}]: {spans}")
        else:
            lines.append(f"no-transfer windows in [{lo:.6g}, {hi:.6g}]: none")
    est = _lz_or_reason(system, pulses)
    if isinstance(est, str):
        lines.append(f"avoided crossing: not applicable ({est})")
    else:
        lines.append(
            f"avoided crossing: t_c = {est.t_c:.6g}, xi = {est.xi:.6g},"
            f" estimated final population {est.pf_estimate:.6g}"
        )
    return "\n".join(lines) + "\n"
