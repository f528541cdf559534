from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilambda import (
    AtState,
    MultiLambdaSystem,
    NoCrossing,
    NotProportional,
    PreconditionViolated,
    Regime,
    WrongResonanceCount,
    ZeroDetuningInSum,
    ZeroEigenvalue,
    adiabatic_eliminate,
    at_window_boundaries,
    build_hamiltonian,
    classify,
    eigendecompose,
    lz_estimate,
    no_at_intervals,
    propagate,
    propagate_batch,
    reduce_degenerate,
    s_sums,
)

from cases import (
    BLOCKED,
    BROKEN,
    DARK3,
    DEGEN_NONPROP_2,
    DEGEN_NONPROP_3,
    DEGEN_PROP,
    DEGEN_PROP_RES_ONLY,
    DEGEN_REDUCIBLE,
    DOUBLE_ZERO,
    LINKED,
    LZ_LARGE,
    LZ_SMALL,
    LZ_TC_W20,
    LZ_XI,
    LZ_ZERO,
    MARGINAL,
    NEAR_RES,
    PUMP_BLOCKED,
    RES_DARK,
    RES_GENERAL,
    SCAN_BASE,
    TRANSFER,
    WINDOW_BOUNDS,
    XI_LINKED,
    TC_OVER_T_LINKED,
    pulses,
)

CLASSIFICATION_TABLE = [
    (DARK3, Regime.OFF_RESONANT, ZeroEigenvalue.SIMPLE, AtState.EXISTS_DARK,
     "proportional-dark-state"),
    (LINKED, Regime.OFF_RESONANT, ZeroEigenvalue.NONE, AtState.EXISTS_GENERAL,
     "detuning-sums-same-sign"),
    (BROKEN, Regime.OFF_RESONANT, ZeroEigenvalue.NONE, AtState.NOT_EXISTS,
     "detuning-sums-opposite-sign"),
    (TRANSFER, Regime.OFF_RESONANT, ZeroEigenvalue.SIMPLE, AtState.EXISTS_GENERAL,
     "zero-eigenvalue-transfer-state"),
    (DOUBLE_ZERO, Regime.OFF_RESONANT, ZeroEigenvalue.DOUBLE, AtState.NOT_EXISTS,
     "double-zero-eigenvalue"),
    (BLOCKED, Regime.OFF_RESONANT, ZeroEigenvalue.SIMPLE, AtState.NOT_EXISTS,
     "stokes-sum-zero"),
    (PUMP_BLOCKED, Regime.OFF_RESONANT, ZeroEigenvalue.SIMPLE, AtState.NOT_EXISTS,
     "pump-sum-zero"),
    (MARGINAL, Regime.OFF_RESONANT, ZeroEigenvalue.NONE, AtState.NOT_EXISTS,
     "marginal"),
    (RES_DARK, Regime.SINGLE_RESONANT, ZeroEigenvalue.SIMPLE, AtState.EXISTS_DARK,
     "proportional-dark-state"),
    (RES_GENERAL, Regime.SINGLE_RESONANT, ZeroEigenvalue.NONE, AtState.EXISTS_GENERAL,
     "single-resonant-channel"),
    (DEGEN_PROP, Regime.DEGENERATE_RESONANT, ZeroEigenvalue.DOUBLE, AtState.EXISTS_DARK,
     "proportional-dark-state"),
    (DEGEN_PROP_RES_ONLY, Regime.DEGENERATE_RESONANT, ZeroEigenvalue.SIMPLE,
     AtState.EXISTS_GENERAL, "resonant-subspace-proportional"),
    (DEGEN_NONPROP_2, Regime.DEGENERATE_RESONANT, ZeroEigenvalue.NONE, AtState.NOT_EXISTS,
     "resonant-subspace-not-proportional"),
    (DEGEN_NONPROP_3, Regime.DEGENERATE_RESONANT, ZeroEigenvalue.STRUCTURAL,
     AtState.NOT_EXISTS, "resonant-subspace-not-proportional"),
    (NEAR_RES, Regime.OFF_RESONANT, ZeroEigenvalue.NONE, AtState.EXISTS_GENERAL,
     "detuning-sums-same-sign"),
]


class TestClassification:
    @pytest.mark.parametrize("system,regime,zero,at_state,reason", CLASSIFICATION_TABLE)
    def test_table(self, system, regime, zero, at_state, reason):
        out = classify(system)
        assert out.regime is regime
        assert out.zero_eigenvalue is zero
        assert out.at_state is at_state
        assert out.reason == reason

    def test_off_resonant_carries_sums(self):
        out = classify(LINKED)
        assert out.s_sums is not None
        assert out.s_sums.s_a2 == pytest.approx(14 / 3)
        assert out.resonant == ()
        out_res = classify(RES_DARK)
        assert out_res.s_sums is None
        assert out_res.resonant == (0,)

    def test_invariant_under_detuning_scale(self):
        # all predicates are relative, so scaling every detuning by a common
        # positive factor cannot change any verdict
        rng = np.random.default_rng(13)
        pool = [LINKED, BROKEN, DARK3, TRANSFER, DOUBLE_ZERO, BLOCKED, MARGINAL, NEAR_RES]
        for system in pool:
            base = classify(system)
            for c in [float(rng.uniform(1e-3, 1e3)) for _ in range(5)] + [1e-8, 1e10]:
                scaled = MultiLambdaSystem(
                    system.alphas,
                    system.betas,
                    tuple(c * d for d in system.detunings),
                )
                out = classify(scaled)
                assert out.regime is base.regime
                assert out.zero_eigenvalue is base.zero_eigenvalue
                assert out.at_state is base.at_state
                assert out.reason == base.reason

    def test_verdict_matches_null_space(self):
        # the zero-eigenvalue verdict must agree with an eigensolver null
        # space count while both fields are on, including the multiplicity
        pul = pulses(30.0)
        wp, ws = pul.values(-3.0)
        expectation = [
            (DARK3, 1), (TRANSFER, 1), (DOUBLE_ZERO, 2), (DEGEN_PROP, 2),
            (DEGEN_NONPROP_3, 1), (LINKED, 0), (BROKEN, 0), (NEAR_RES, 0),
        ]
        for system, n_zero in expectation:
            h = build_hamiltonian(system, wp, ws)
            evs, _ = eigendecompose(h)
            n_small = int(np.sum(np.abs(evs) < 1e-8 * np.linalg.norm(h)))
            assert n_small == n_zero
            verdict = classify(system).zero_eigenvalue
            assert (verdict is not ZeroEigenvalue.NONE) == (n_zero > 0)


class TestConsistencyWithPropagation:
    def test_fifty_random_systems(self):
        # analytic existence verdicts against propagated transfer at width 80,
        # skipping systems whose sums are too close to a window boundary for
        # the adiabatic limit to be reached at this pulse area
        rng = np.random.default_rng(7)
        pul = pulses(80.0)
        by_dimension: dict[int, list[MultiLambdaSystem]] = {}
        skipped = 0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            de = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
            system = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
            s = s_sums(system)
            if abs(s.s_a2) < 0.05 * s.s_a2_scale or abs(s.s_b2) < 0.05 * s.s_b2_scale:
                skipped += 1
                continue
            by_dimension.setdefault(system.dimension, []).append(system)
        checked = 0
        # One batched call per dimension; each point takes the steps it
        # would take alone.
        for systems in by_dimension.values():
            results = propagate_batch([(system, pul) for system in systems])
            for system, result in zip(systems, results):
                out = classify(system)
                pf = result.final_pf
                checked += 1
                if out.at_state is AtState.NOT_EXISTS:
                    assert pf < 0.2, f"{system}: verdict none but pf={pf:.4f}"
                else:
                    assert pf > 0.8, f"{system}: verdict exists but pf={pf:.4f}"
        assert checked >= 40
        assert skipped <= 10


class TestTransferRule:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**32 - 1))
    def test_verdict_crossing_and_windows_follow_one_rule(self, n, seed):
        # classify, lz_estimate and no_at_intervals must all apply
        # SSums.crossing, the off-resonant transfer rule
        rng = np.random.default_rng(seed)
        al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        de = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        system = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
        crossing = s_sums(system).crossing()
        assert (classify(system).at_state is AtState.NOT_EXISTS) == (not crossing)
        if crossing:
            lz_estimate(system, pulses(20.0))
        else:
            with pytest.raises(NoCrossing):
                lz_estimate(system, pulses(20.0))
        for x0, x1 in no_at_intervals(system, -4.0, 4.0):
            for frac in (0.25, 0.5, 0.75):
                shifted = system.with_common_detuning(x0 + frac * (x1 - x0))
                if not shifted.resonant_indices():
                    assert classify(shifted).at_state is AtState.NOT_EXISTS


class TestWindows:
    def test_boundaries_exact(self):
        bounds = at_window_boundaries(SCAN_BASE, -2.0, 1.0)
        assert len(bounds) == 2
        assert bounds[0] == pytest.approx(WINDOW_BOUNDS[0], abs=1e-12)
        assert bounds[1] == pytest.approx(WINDOW_BOUNDS[1], abs=1e-12)

    def test_shifted_base_shifts_boundaries(self):
        bounds = at_window_boundaries(LINKED, -2.0, 1.0)
        assert bounds[0] == pytest.approx(WINDOW_BOUNDS[0] - 0.5, abs=1e-12)
        assert bounds[1] == pytest.approx(WINDOW_BOUNDS[1] - 0.5, abs=1e-12)

    def test_proportional_sums_share_roots(self):
        # both sums are identical for DARK3, so duplicates must collapse
        bounds = at_window_boundaries(DARK3, -4.0, 0.0)
        assert len(bounds) == 2
        for r in bounds:
            total = sum(1.0 / (d + r) for d in DARK3.detunings)
            assert abs(total) < 1e-9

    def test_roots_are_roots_and_interlace_poles(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            de = np.sort(rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n))
            if np.min(np.abs(np.diff(de))) < 1e-3 or np.any(de == 0.0):
                continue
            system = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
            lo, hi = -np.max(de) - 10.0, -np.min(de) + 10.0
            bounds = at_window_boundaries(system, lo, hi)
            poles = sorted(-d for d in de)
            # each sum contributes exactly one root per inter-pole gap
            assert len(bounds) <= 2 * (n - 1)
            for r in bounds:
                assert poles[0] < r < poles[-1]
                fa = sum(a * a / (d + r) for a, d in zip(al, de))
                fb = sum(b * b / (d + r) for b, d in zip(be, de))
                assert min(abs(fa), abs(fb)) < 1e-6

    def test_single_pathway_has_no_boundaries(self):
        system = MultiLambdaSystem((1,), (1,), (1.0,))
        assert at_window_boundaries(system, -10.0, 10.0) == []

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            at_window_boundaries(SCAN_BASE, 1.0, -1.0)

    def test_no_transfer_interval(self):
        intervals = no_at_intervals(SCAN_BASE, -2.0, 1.0)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(WINDOW_BOUNDS[0], abs=1e-9)
        assert hi == pytest.approx(WINDOW_BOUNDS[1], abs=1e-9)
        # verdicts flip exactly at the boundaries
        inside = classify(SCAN_BASE.with_common_detuning(-0.5))
        outside = classify(SCAN_BASE.with_common_detuning(0.5))
        assert inside.at_state is AtState.NOT_EXISTS
        assert outside.at_state is AtState.EXISTS_GENERAL


class TestReduction:
    def test_two_state_block(self):
        system = MultiLambdaSystem((1, 0.5), (1, 0.5), (0.0, 0.0))
        reduced, mu = reduce_degenerate(system)
        assert mu == pytest.approx(np.sqrt(1.25), rel=1e-14)
        assert reduced.n_intermediate == 1
        assert reduced.detunings == (0.0,)
        assert reduced.alphas[0] == pytest.approx(mu)
        assert reduced.betas[0] == pytest.approx(mu)

    def test_boost_factor_with_spectator(self):
        system = MultiLambdaSystem(
            (1, np.sqrt(3.0), 0.4), (1, np.sqrt(3.0), 0.8), (0.0, 0.0, 1.0)
        )
        reduced, mu = reduce_degenerate(system)
        assert mu == pytest.approx(2.0, rel=1e-12)
        assert reduced.n_intermediate == 2
        assert reduced.detunings == (0.0, 1.0)
        assert reduced.alphas[1] == 0.4

    def test_reduction_preserves_dynamics(self):
        pul = pulses(20.0)
        system = MultiLambdaSystem((1, 0.5), (1, 0.5), (0.0, 0.0))
        reduced, _ = reduce_degenerate(system)
        full = propagate(system, pul)
        red = propagate(reduced, pul)
        assert full.final_pf == pytest.approx(red.final_pf, abs=1e-9)

    def test_reduction_preserves_dynamics_random_clusters(self):
        # 2-3 resonant states with proportional couplings, 0-2 off-resonant
        # spectators, in random order; full and reduced systems are grouped by
        # dimension, one batched propagation each
        rng = np.random.default_rng(11)
        pul = pulses(20.0)
        pairs = []
        for _ in range(12):
            n_res, n_off = int(rng.integers(2, 4)), int(rng.integers(0, 3))
            weights = rng.uniform(0.3, 1.5, n_res)
            al = np.concatenate([rng.uniform(0.5, 2.0) * weights, rng.uniform(0.1, 2.0, n_off)])
            be = np.concatenate([weights, rng.uniform(0.1, 2.0, n_off)])
            de = np.concatenate([np.zeros(n_res), rng.uniform(0.5, 3.0, n_off)])
            de[n_res:] *= rng.choice([-1.0, 1.0], n_off)
            order = rng.permutation(n_res + n_off)
            full = MultiLambdaSystem(
                tuple(al[order]), tuple(be[order]), tuple(de[order]), enforce_normalization=False
            )
            pairs.append((full, reduce_degenerate(full)[0]))
        by_dimension: dict[int, list[MultiLambdaSystem]] = {}
        for system in [s for pair in pairs for s in pair]:
            by_dimension.setdefault(system.dimension, []).append(system)
        pf = {}
        for systems in by_dimension.values():
            results = propagate_batch([(system, pul) for system in systems])
            pf.update((system, result.final_pf) for system, result in zip(systems, results))
        for full, reduced in pairs:
            assert reduced.n_intermediate < full.n_intermediate
            assert pf[reduced] == pytest.approx(pf[full], abs=1e-9), full

    def test_single_resonance_passthrough(self):
        reduced, mu = reduce_degenerate(RES_DARK, (0,))
        assert mu == 1.0
        assert reduced.alphas == RES_DARK.alphas

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            reduce_degenerate(LINKED)
        with pytest.raises(PreconditionViolated):
            reduce_degenerate(RES_DARK, (1,))
        with pytest.raises(PreconditionViolated):
            reduce_degenerate(RES_DARK, (5,))
        with pytest.raises(NotProportional):
            reduce_degenerate(DEGEN_NONPROP_2)

    def test_reducible_benchmark_boost(self):
        _, mu = reduce_degenerate(DEGEN_REDUCIBLE)
        assert mu == pytest.approx(np.sqrt(1 + 0.7**2 + 1.3**2), rel=1e-12)


class TestEffectiveModels:
    def test_two_state_functions(self):
        pul = pulses(30.0)
        s = s_sums(LINKED)
        for t in (-20.0, 0.0, 10.0):
            wp, ws = pul.values(t)
            h = adiabatic_eliminate(LINKED, pul, t)
            assert h[1, 1] - h[0, 0] == pytest.approx(s.s_b2 * ws**2 - s.s_a2 * wp**2)
            assert h[0, 1] == pytest.approx(s.s_ab * wp * ws)
        # both vanish with the envelopes
        far = 3 * pul.default_window()[1]
        h = adiabatic_eliminate(LINKED, pul, far)
        assert abs(h[1, 1] - h[0, 0]) < 1e-100
        assert abs(h[0, 1]) < 1e-100

    def test_eliminated_2x2(self):
        pul = pulses(30.0)
        t = -5.0
        wp, ws = pul.values(t)
        h = adiabatic_eliminate(LINKED, pul, t)
        expected = np.array(
            [
                [wp * wp * 14 / 3, wp * ws * 8 / 3],
                [wp * ws * 8 / 3, ws * ws * 13 / 6],
            ]
        )
        assert np.allclose(h, expected, rtol=1e-12)

    def test_eliminated_3x3(self):
        pul = pulses(30.0)
        t = 2.0
        wp, ws = pul.values(t)
        h = adiabatic_eliminate(RES_GENERAL, pul, t)
        # excluded sums of RES_GENERAL: pump 4, Stokes 1/4, cross 1
        expected = np.array(
            [
                [wp * wp * 4.0, 1.0 * wp, wp * ws * 1.0],
                [1.0 * wp, 0.0, 1.0 * ws],
                [wp * ws * 1.0, 1.0 * ws, ws * ws * 0.25],
            ]
        )
        assert np.allclose(h, expected, rtol=1e-12)

    def test_elimination_rejects_multiple_resonances(self):
        with pytest.raises(WrongResonanceCount):
            adiabatic_eliminate(DEGEN_NONPROP_2, pulses(30.0), 0.0)


class TestCrossingEstimate:
    def test_linked_values(self):
        pul = pulses(30.0)
        est = lz_estimate(LINKED, pul)
        assert est.xi == pytest.approx(XI_LINKED, rel=1e-8)
        assert est.t_c == pytest.approx(TC_OVER_T_LINKED * 30.0, rel=1e-8)
        assert est.pf_estimate == pytest.approx(1.0, abs=1e-9)

    def test_xi_is_width_independent_with_locked_delay(self):
        assert lz_estimate(LINKED, pulses(20.0)).xi == pytest.approx(
            lz_estimate(LINKED, pulses(80.0)).xi, rel=1e-12
        )

    def test_three_set_ordering(self):
        pul = pulses(20.0)
        for name, system in (("zero", LZ_ZERO), ("small", LZ_SMALL), ("large", LZ_LARGE)):
            est = lz_estimate(system, pul)
            assert est.xi == pytest.approx(LZ_XI[name], rel=1e-8, abs=1e-15)
            assert est.t_c == pytest.approx(LZ_TC_W20[name], rel=1e-8)
            assert 0.0 <= est.pf_estimate <= 1.0

    def test_cross_sum_cancellation_gives_zero_xi(self):
        # xi is quadratic in the cross sum, so even a rounding remainder of
        # the designed cancellation leaves it far below any physical scale
        est = lz_estimate(LZ_ZERO, pulses(20.0))
        assert abs(est.xi) < 1e-30
        assert est.pf_estimate < 1e-25

    def test_no_crossing_cases(self):
        pul = pulses(30.0)
        with pytest.raises(NoCrossing):
            lz_estimate(BROKEN, pul)  # sums of opposite sign
        with pytest.raises(NoCrossing):
            lz_estimate(BLOCKED, pul)  # Stokes sum flagged zero
        with pytest.raises(ZeroDetuningInSum):
            lz_estimate(RES_DARK, pul)  # sums undefined on resonance
