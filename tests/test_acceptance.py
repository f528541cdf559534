"""Acceptance suite: one test per acceptance criterion, run in order.

Each test appends a ``CRITERION n: PASS/FAIL`` line to the session log
(printed in the terminal summary by conftest) before asserting, so a red
run still reports every criterion's outcome.  The unitarity/convergence
criterion runs last and audits every propagation performed by the earlier
ones, so the tests in this module are order-dependent by design.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from multilambda.analysis import (
    ZeroEigenvalue,
    at_window_boundaries,
    classify,
    lz_estimate,
    reduce_degenerate,
)
from multilambda.dynamics import (
    IntegratorConfig,
    PropagationResult,
    pf_degenerate_prediction,
    propagate,
    propagate_batch,
)
from multilambda.model import (
    MultiLambdaSystem,
    PulsePair,
    build_hamiltonian,
    det_closed_form,
)
from multilambda.spectral import Side, asymptotic_eigenvalues, eigendecompose

from cases import (
    BROKEN,
    DEGEN_REDUCIBLE,
    DOUBLE_ZERO,
    LINKED,
    LZ_LARGE,
    LZ_SMALL,
    LZ_ZERO,
    RES_DARK,
    RES_GENERAL,
    SCAN_BASE,
    WINDOW_BOUNDS,
    pulses,
)


@dataclasses.dataclass
class _Run:
    label: str
    system: MultiLambdaSystem
    pulses: PulsePair
    config: IntegratorConfig
    result: PropagationResult
    halve: bool  # re-run at halved tolerance in the convergence audit


REGISTRY: list[_Run] = []


def _run(
    label: str,
    system: MultiLambdaSystem,
    pair: PulsePair,
    config: IntegratorConfig | None = None,
    halve: bool = False,
) -> PropagationResult:
    cfg = config if config is not None else IntegratorConfig()
    result = propagate(system, pair, cfg)
    REGISTRY.append(_Run(label, system, pair, cfg, result, halve))
    return result


def _record(log: list, n: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    log.append((n, line))
    return line


def test_criterion_1_detuning_window(criterion_log):
    bounds = at_window_boundaries(SCAN_BASE, -2.0, 1.0)
    window_ok = len(bounds) == 2 and all(
        abs(b - e) < 1e-8 for b, e in zip(bounds, WINDOW_BOUNDS)
    )

    pair = pulses(80.0)
    xs = np.linspace(-2.0, 1.0, 61)
    gated = {10: -1.5, 30: -0.5, 50: 0.5}  # indices of the thresholded points
    # One batched call; each point takes the steps it would take alone.
    cfg = IntegratorConfig()
    shifted = [SCAN_BASE.with_common_detuning(float(x)) for x in xs]
    results = propagate_batch([(system, pair) for system in shifted], cfg)
    pf = {}
    for i, (x, system, result) in enumerate(zip(xs, shifted, results)):
        REGISTRY.append(_Run(f"window scan x={x:+.2f}", system, pair, cfg, result, i in gated))
        if i in gated:
            pf[gated[i]] = result.final_pf

    scan_ok = pf[-1.5] > 0.9 and pf[0.5] > 0.9 and pf[-0.5] < 0.2
    ok = window_ok and scan_ok
    detail = (
        f"boundaries {[round(b, 9) for b in bounds]}; "
        f"pf(-1.5)={pf[-1.5]:.6f}, pf(-0.5)={pf[-0.5]:.6f}, pf(0.5)={pf[0.5]:.6f}"
    )
    line = _record(criterion_log, 1, ok, detail)
    assert ok, line


def test_criterion_2_width_convergence(criterion_log):
    pair = pulses(80.0)
    linked = _run("linked T=80", LINKED, pair, halve=True)
    broken = _run("broken T=80", BROKEN, pair, halve=True)
    ok = linked.final_pf > 0.95 and broken.final_pf < 0.05
    detail = f"pf(linked)={linked.final_pf:.6f}, pf(broken)={broken.final_pf:.6f}"
    line = _record(criterion_log, 2, ok, detail)
    assert ok, line


def test_criterion_3_single_resonance(criterion_log):
    pair = pulses(80.0)
    dark = _run("resonant proportional T=80", RES_DARK, pair, halve=True)
    general = _run("resonant general T=80", RES_GENERAL, pair, halve=True)
    ok = (
        dark.final_pf > 0.95
        and general.final_pf > 0.95
        and dark.max_intermediate_pop < 0.05
        and general.max_intermediate_pop > 0.05
    )
    detail = (
        f"pf {dark.final_pf:.6f}/{general.final_pf:.6f}, "
        f"mid pop {dark.max_intermediate_pop:.4f}/{general.max_intermediate_pop:.4f}"
    )
    line = _record(criterion_log, 3, ok, detail)
    assert ok, line


def test_criterion_4_eigenvalue_asymptotics(criterion_log):
    pair = pulses(30.0)
    mults = (1.0, 1.15, 1.3, 1.45)
    base = pair.width + 2.0 * pair.delay
    cases = [
        ("linked", LINKED),
        ("broken", BROKEN),
        ("res-dark", RES_DARK),
        ("res-general", RES_GENERAL),
    ]
    failures = []
    for label, system in cases:
        for side in (Side.EARLY, Side.LATE):
            sign = -1.0 if side is Side.EARLY else 1.0
            errs: dict[str, list[float]] = {}
            for m in mults:
                t = sign * base * m
                wp, ws = pair.values(t)
                eigs, _ = eigendecompose(build_hamiltonian(system, wp, ws))
                pred = asymptotic_eigenvalues(system, wp, ws, side)
                parts = [("small", pred.small)]
                parts += [(f"large[{j}]", v) for j, v in enumerate(pred.large)]
                for name, value in parts:
                    if value == 0.0:
                        # structural zero curve: exact, excluded from ratios
                        if float(np.min(np.abs(eigs))) > 1e-10:
                            failures.append(f"{label}/{side.name}: zero curve missing")
                        continue
                    err = float(np.min(np.abs(eigs - value)) / abs(value))
                    errs.setdefault(name, []).append(err)
            for name, seq in errs.items():
                if seq[0] > 0.15:
                    failures.append(
                        f"{label}/{side.name.lower()}/{name}: "
                        f"{100 * seq[0]:.2f}% at t=={sign * base:+.0f}"
                    )
                if any(b >= a for a, b in zip(seq, seq[1:])):
                    failures.append(
                        f"{label}/{side.name.lower()}/{name}: not improving outward"
                    )
    ok = not failures
    detail = (
        "all limits within 15% and improving outward"
        if ok
        else "; ".join(failures)
    )
    line = _record(criterion_log, 4, ok, detail)
    assert ok, line


def test_criterion_5_determinants_and_null_space(criterion_log):
    expected_dim = {
        ZeroEigenvalue.NONE: 0,
        ZeroEigenvalue.SIMPLE: 1,
        ZeroEigenvalue.DOUBLE: 2,
    }
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    det_failures = 0
    verdict_failures = 0
    for i in range(200):
        n = int(rng.integers(1, 6))
        n0 = min(i % 4, n)
        alphas = rng.uniform(0.1, 2.0, n)
        alphas[0] = 1.0
        betas = rng.uniform(0.1, 2.0, n)
        betas[0] = 1.0
        dets = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        dets[:n0] = 0.0
        system = MultiLambdaSystem(tuple(alphas), tuple(betas), tuple(dets))
        wp, ws = rng.uniform(0.2, 1.0, 2)

        h = build_hamiltonian(system, wp, ws)
        closed = det_closed_form(system, wp, ws)
        numeric = float(np.linalg.det(h))
        if not math.isclose(closed, numeric, rel_tol=1e-10, abs_tol=1e-12):
            det_failures += 1
        if abs(numeric) > 1e-9:
            worst_rel = max(worst_rel, abs(closed - numeric) / abs(numeric))

        eigs, _ = eigendecompose(h)
        dim = int(np.sum(np.abs(eigs) < 1e-8 * np.linalg.norm(h)))
        verdict = classify(system).zero_eigenvalue
        if verdict is ZeroEigenvalue.STRUCTURAL:
            agree = dim >= 1
        else:
            agree = dim == expected_dim[verdict]
        if not agree:
            verdict_failures += 1

    ok = det_failures == 0 and verdict_failures == 0
    detail = (
        f"200 systems, worst det mismatch {worst_rel:.3e}, "
        f"{det_failures} determinant / {verdict_failures} null-space disagreements"
    )
    line = _record(criterion_log, 5, ok, detail)
    assert ok, line


def test_criterion_6_degenerate_transfer_prediction(criterion_log):
    pair = pulses(80.0)
    predicted = pf_degenerate_prediction(DOUBLE_ZERO, pair)
    run = _run("double zero T=80", DOUBLE_ZERO, pair, halve=True)
    ok = abs(predicted - run.final_pf) < 0.02
    detail = f"predicted {predicted:.6f} vs propagated {run.final_pf:.6f}"
    line = _record(criterion_log, 6, ok, detail)
    assert ok, line


def test_criterion_7_crossing_speed_ordering(criterion_log):
    pair = pulses(20.0)
    xi = []
    pf = []
    for label, system in [("flat", LZ_ZERO), ("slow", LZ_SMALL), ("fast", LZ_LARGE)]:
        xi.append(lz_estimate(system, pair).xi)
        pf.append(_run(f"crossing {label} T=20", system, pair, halve=True).final_pf)
    ok = xi[0] < xi[1] < xi[2] and pf[0] < pf[1] < pf[2]
    detail = (
        f"xi {xi[0]:.4f} < {xi[1]:.4f} < {xi[2]:.4f}, "
        f"pf {pf[0]:.6f} < {pf[1]:.6f} < {pf[2]:.6f}"
    )
    line = _record(criterion_log, 7, ok, detail)
    assert ok, line


def test_criterion_9_reduction_exactness(criterion_log):
    pair = pulses(20.0)
    reduced, mu = reduce_degenerate(DEGEN_REDUCIBLE)
    full = _run("reducible original T=20", DEGEN_REDUCIBLE, pair, halve=True)
    image = _run("reducible collapsed T=20", reduced, pair, halve=True)
    diff = abs(full.final_pf - image.final_pf)
    ok = diff < 1e-6
    detail = f"|pf difference| = {diff:.3e} at mu = {mu:.6f}"
    line = _record(criterion_log, 9, ok, detail)
    assert ok, line


def test_criterion_8_unitarity_and_convergence(criterion_log):
    # runs last: audits every propagation the earlier criteria performed
    assert len(REGISTRY) >= 61
    worst_norm = max(entry.result.final_norm_error for entry in REGISTRY)
    # Rerun at halved tolerance, one batch per dimension and configuration.
    groups: dict[tuple[int, IntegratorConfig], list[_Run]] = {}
    for entry in REGISTRY:
        if entry.halve:
            key = (entry.system.dimension, entry.config)
            groups.setdefault(key, []).append(entry)
    worst_shift = 0.0
    for (_, config), entries in groups.items():
        tighter = dataclasses.replace(
            config, rel_tol=config.rel_tol / 2.0, abs_tol=config.abs_tol / 2.0
        )
        reruns = propagate_batch([(e.system, e.pulses) for e in entries], tighter)
        for entry, rerun in zip(entries, reruns):
            worst_shift = max(worst_shift, abs(rerun.final_pf - entry.result.final_pf))
    ok = worst_norm < 1e-6 and worst_shift < 1e-3
    detail = (
        f"{len(REGISTRY)} propagations, worst |norm-1| = {worst_norm:.3e}, "
        f"worst pf shift on halved tolerance = {worst_shift:.3e}"
    )
    line = _record(criterion_log, 8, ok, detail)
    assert ok, line
