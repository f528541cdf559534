from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multilambda import (
    AtState,
    MultiLambdaSystem,
    NoCrossing,
    PreconditionViolated,
    PulsePair,
    Regime,
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
    track_spectrum,
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
    (MultiLambdaSystem((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 1)), Regime.DEGENERATE_RESONANT,
     ZeroEigenvalue.STRUCTURAL, AtState.EXISTS_DARK, "proportional-dark-state"),
    # |S_a2 S_b2| is 9e-9 of the scale product, just outside the marginal
    # band of 1e-9: pins the band's edge
    (MultiLambdaSystem((1, 1), (1, 2), (1.0, -1.00000003)), Regime.OFF_RESONANT,
     ZeroEigenvalue.NONE, AtState.NOT_EXISTS, "detuning-sums-opposite-sign"),
    # coupling ratios 1e-11 apart, outside the proportionality tolerance of
    # 1e-12: pins that tolerance's edge
    (MultiLambdaSystem((1, 1), (1, 1 + 1e-11), (1, 2)), Regime.OFF_RESONANT,
     ZeroEigenvalue.SIMPLE, AtState.EXISTS_GENERAL, "zero-eigenvalue-transfer-state"),
]


SCALE_FREE_CASES = [
    LINKED, BROKEN, DARK3, TRANSFER, DOUBLE_ZERO, BLOCKED, PUMP_BLOCKED, MARGINAL, NEAR_RES,
    RES_DARK, RES_GENERAL, LZ_ZERO,
]


def random_system(n: int, seed: int, resonant: bool) -> MultiLambdaSystem:
    """Couplings U[0.3, 2], detunings U[-3, 3], one of them 0 if ``resonant``."""
    rng = np.random.default_rng(seed)
    de = rng.uniform(-3.0, 3.0, n)
    if resonant:
        de[rng.integers(n)] = 0.0
    return MultiLambdaSystem(
        tuple(rng.uniform(0.3, 2.0, n)), tuple(rng.uniform(0.3, 2.0, n)), tuple(de)
    )


def same_windows(got, want) -> bool:
    return len(got) == len(want) and np.allclose(got, want, rtol=0.0, atol=1e-12)


def lz_raises(system: MultiLambdaSystem) -> bool:
    try:
        lz_estimate(system, pulses(30.0))
    except NoCrossing:
        return True
    return False


class TestClassification:
    @pytest.mark.parametrize("system,regime,zero,at_state,reason", CLASSIFICATION_TABLE)
    def test_table(self, system, regime, zero, at_state, reason):
        out = classify(system)
        assert out.regime is regime
        assert out.zero_eigenvalue is zero
        assert out.at_state is at_state
        assert out.reason == reason

    def test_off_resonant_carries_sums(self):
        assert classify(LINKED).regime is Regime.OFF_RESONANT
        assert float(LINKED.sums.a2) == pytest.approx(14 / 3)
        assert LINKED.resonant_indices() == ()

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

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.one_of(
            st.sampled_from(SCALE_FREE_CASES),
            st.builds(
                random_system,
                st.integers(min_value=1, max_value=5),
                st.integers(0, 2**32 - 1),
                st.booleans(),
            ),
        ),
        decades=st.tuples(*[st.floats(-150.0, 150.0)] * 3),
        same_detunings=st.booleans(),
    )
    def test_invariant_under_any_scale(self, base, decades, same_detunings):
        # Pump couplings times a, Stokes couplings times b, detunings times c,
        # each log-uniform over +-150 decades.  Products such as
        # delta_k delta_l and S_a2 S_b2 once under- or overflowed here and
        # changed the verdict of most systems.
        a, b, c = (10.0**x for x in decades)
        if same_detunings:
            c = 1.0
        try:
            scaled = MultiLambdaSystem(
                tuple(a * x for x in base.alphas),
                tuple(b * x for x in base.betas),
                tuple(c * x for x in base.detunings),
            )
        except ValueError as exc:
            # the one refusal expected here: sums beyond the largest float
            assert "must be finite" in str(exc)
            assume(False)
        assert classify(scaled) == classify(base)
        assert lz_raises(scaled) == lz_raises(base)
        if c == 1.0:
            try:
                got = no_at_intervals(scaled, -4.0, 4.0)
            except ValueError as exc:
                # a shifted point's sums overflow, refused as by the constructor
                assert "must be finite" in str(exc)
                return
            assert same_windows(got, no_at_intervals(base, -4.0, 4.0))

    @pytest.mark.parametrize(
        "a,b", [(1e-100, 1e-100), (1e-170, 1e-170), (1e-200, 1e150), (1e150, 1e-200)]
    )
    @pytest.mark.parametrize(
        "base",
        [
            MultiLambdaSystem((1, 2), (1, 0.5), (1, 2)),
            LINKED, TRANSFER, BLOCKED, RES_GENERAL, DEGEN_PROP, DEGEN_REDUCIBLE, LZ_ZERO,
        ],
    )
    def test_extreme_coupling_scales_keep_the_verdict(self, base, a, b):
        # Pinned beyond the property's range.  At 1e-100 the pair terms and
        # S_a2 S_b2 underflowed (the first base said NOT_EXISTS, "simple"),
        # and so did the resonant bracket (RES_GENERAL said "simple"); near
        # 1e-170 the squared couplings of the window roots and of the
        # reduction boost did, and near 1e-350 the ratios alpha_k/beta_k.
        scaled = MultiLambdaSystem(
            tuple(a * x for x in base.alphas), tuple(b * x for x in base.betas), base.detunings
        )
        assert classify(scaled) == classify(base)
        assert lz_raises(scaled) == lz_raises(base)
        assert same_windows(no_at_intervals(scaled, -4.0, 4.0), no_at_intervals(base, -4.0, 4.0))

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
            s = system.sums
            if abs(s.a2.value) < 0.05 * s.a2.scale or abs(s.b2.value) < 0.05 * s.b2.scale:
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


class TestConsistencyWithSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**32 - 1))
    @example(n=5, seed=333)  # its 2001-point grid steps over an avoided crossing
    def test_tracked_transfer_curve_matches_verdict(self, n, seed):
        # The paper's transfer state is the adiabatic curve from |i> to |f>:
        # the tracked curve that starts on |i> must end with |<f|v>|^2 above
        # 0.5 exactly when classify says a transfer state exists.  The grid,
        # +-2 widths, stops short of the tails where |i> and |f> share the
        # zero eigenvalue.  Within 5% (relative) of a window boundary the
        # curves have not settled by its ends, so such systems are redrawn.
        rng = np.random.default_rng(seed)
        system = MultiLambdaSystem(
            tuple(rng.uniform(0.3, 2.0, n)),
            tuple(rng.uniform(0.3, 2.0, n)),
            tuple(rng.uniform(-3.0, 3.0, n)),
        )
        s = system.sums
        assume(abs(s.a2.value) > 0.05 * s.a2.scale and abs(s.b2.value) > 0.05 * s.b2.scale)
        out = classify(system)
        assume(out.reason != "marginal")
        assume(out.zero_eigenvalue not in (ZeroEigenvalue.DOUBLE, ZeroEigenvalue.STRUCTURAL))
        grid = np.linspace(-60.0, 60.0, 2001)
        for _ in range(3):
            spec = track_spectrum(system, pulses(30.0), grid)  # AmbiguousTracking fails
            start = int(np.argmax(np.abs(spec.eigenvectors[0][0])))
            rank = np.argmax(spec.track_ids == spec.track_ids[0][start], axis=1)
            jumps = np.flatnonzero(np.diff(rank))
            if not jumps.size:
                break
            # Adiabatic curves keep their rank: the grid stepped over an
            # avoided crossing narrower than its spacing, so refine there.
            grid = np.union1d(grid, np.linspace(grid[jumps], grid[jumps + 1], 66).ravel())
        assert not jumps.size, f"{system}: unresolved crossings at t={spec.t[jumps]}"
        end = spec.eigenvectors[-1][-1, rank[-1]] ** 2
        exists = out.at_state is not AtState.NOT_EXISTS
        assert (end > 0.5) == exists, f"{system}: verdict {out.at_state.value}, |<f|v>|^2={end:.4f}"


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
        crossing = system.sums.crossing()
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


class TestTuningRule:
    """The paper's closing advice: tune pump and Stokes just below or just
    above all intermediate states, and a transfer state exists whatever the
    couplings."""

    @staticmethod
    def _system(n: int, seed: int, signs) -> MultiLambdaSystem:
        rng = np.random.default_rng(seed)
        return MultiLambdaSystem(
            tuple(rng.uniform(0.05, 3.0, n)),
            tuple(rng.uniform(0.05, 3.0, n)),
            tuple(signs * rng.uniform(0.01, 5.0, n)),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 2**32 - 1),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_one_sign_detunings_give_a_transfer_state(self, n, seed, sign):
        out = classify(self._system(n, seed, sign))
        assert out.at_state in (AtState.EXISTS_DARK, AtState.EXISTS_GENERAL)
        assert out.reason != "marginal"

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
    def test_windows_lie_between_the_intermediate_states(self, n, seed):
        # Outside [-max Delta_k, -min Delta_k] a common shift leaves every
        # detuning one sign.  The window ends are breakpoints and the poles
        # are exactly -Delta_k, so the comparison is exact.
        signs = np.random.default_rng(seed + 1).choice([-1.0, 1.0], n)
        signs[:2] = (1.0, -1.0)
        system = self._system(n, seed, signs)
        lo, hi = -max(system.detunings), -min(system.detunings)
        for x0, x1 in no_at_intervals(system, -20.0, 20.0):
            assert lo <= x0 < x1 <= hi, f"{system}: window ({x0}, {x1})"


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
        # Every system has a near-equal detuning pair, relative separation
        # 10^U(-6, -2): a bracket offset from such a pole once rounded back
        # onto it and divided by zero.
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
            de = rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)
            de[1] = de[0] * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -2.0))
            system = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
            lo, hi = -np.max(de) - 10.0, -np.min(de) + 10.0
            bounds = at_window_boundaries(system, lo, hi)
            poles = np.unique(-de)
            # each sum contributes exactly one root per gap between distinct poles
            assert len(bounds) == 2 * (len(poles) - 1)
            for p0, p1 in zip(poles, poles[1:]):
                inside = [r for r in bounds if p0 < r < p1]
                assert len(inside) == 2
                for w in (al * al, be * be):
                    terms = [w / (de + r) for r in inside]
                    ratios = [abs(t.sum()) / np.abs(t).sum() for t in terms]
                    assert min(ratios) <= 1e-6

    def test_single_pathway_has_no_boundaries(self):
        system = MultiLambdaSystem((1,), (1,), (1.0,))
        assert at_window_boundaries(system, -10.0, 10.0) == []

    def test_empty_range_rejected(self):
        # lo >= hi is False for a NaN endpoint, which once gave []
        for lo, hi in ((1.0, -1.0), (0.0, math.nan), (math.nan, 0.0), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="^empty detuning range$"):
                at_window_boundaries(SCAN_BASE, lo, hi)

    def test_infinite_ends(self):
        # the whole axis is a meaningful query
        whole = at_window_boundaries(SCAN_BASE, -math.inf, math.inf)
        assert whole == pytest.approx(list(WINDOW_BOUNDS), abs=1e-12)
        # an infinite midpoint once failed as an invalid system
        for lo, hi in ((-math.inf, 1.0), (-2.0, math.inf), (-math.inf, math.inf)):
            with pytest.raises(ValueError, match="^detuning range must be finite$"):
                no_at_intervals(SCAN_BASE, lo, hi)

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
            full = MultiLambdaSystem(tuple(al[order]), tuple(be[order]), tuple(de[order]))
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
        reduced, mu = reduce_degenerate(RES_DARK)
        assert mu == 1.0
        assert reduced.alphas == RES_DARK.alphas

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated, match="^no resonant states to reduce$"):
            reduce_degenerate(LINKED)
        match = "^resonant couplings are not proportional; no reduction exists$"
        with pytest.raises(PreconditionViolated, match=match):
            reduce_degenerate(DEGEN_NONPROP_2)

    def test_reducible_benchmark_boost(self):
        _, mu = reduce_degenerate(DEGEN_REDUCIBLE)
        assert mu == pytest.approx(np.sqrt(1 + 0.7**2 + 1.3**2), rel=1e-12)


class TestEffectiveModels:
    def test_two_state_functions(self):
        pul = pulses(30.0)
        s = LINKED.sums
        for t in (-20.0, 0.0, 10.0):
            wp, ws = pul.values(t)
            h = adiabatic_eliminate(LINKED, pul, t)
            assert h[1, 1] - h[0, 0] == pytest.approx(float(s.b2) * ws**2 - float(s.a2) * wp**2)
            assert h[0, 1] == pytest.approx(float(s.ab) * wp * ws)
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
        match = "^elimination handles zero or one resonant state$"
        with pytest.raises(PreconditionViolated, match=match):
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

    @pytest.mark.parametrize(
        ("system", "pul", "xi"),
        [
            # tau * tau underflowed: ZeroDivisionError
            (LINKED, PulsePair(1.0, 1.0, 1e-300), 0.0),
            # S_b2 / S_a2 underflowed: math domain error in the log
            (MultiLambdaSystem((1, 1e150), (1, 1e-20), (1e30, 1)), PulsePair(1.0, 30.0, 15.0), 0.0),
            # log ratio 0 times an infinite T^2/tau^2: NaN; xi = (T/4tau) S_ab^2/S_a2
            (MultiLambdaSystem((1, 1), (1, 1), (1, 2)), PulsePair(1.0, 1.0, 1e-160), 3.75e159),
        ],
    )
    def test_extreme_inputs_give_numbers(self, system, pul, xi):
        est = lz_estimate(system, pul)
        assert est.xi == pytest.approx(xi, rel=1e-12)
        assert not math.isnan(est.t_c)
        assert est.pf_estimate == (1.0 if xi else 0.0)

    def test_xi_scales_with_squared_couplings(self):
        # S_ab^2 and S_a2 S_b2 once overflowed at couplings 1e100: inf/inf = NaN
        base = MultiLambdaSystem((1.0,), (2.0,), (1.0,))
        scaled = MultiLambdaSystem((1e100,), (2e100,), (1.0,))
        pul = pulses(30.0)
        assert lz_estimate(scaled, pul).xi == pytest.approx(
            1e200 * lz_estimate(base, pul).xi, rel=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.floats(-100.0, 100.0),
                st.floats(-100.0, 100.0),
                st.floats(-150.0, 150.0),
                st.sampled_from((-1.0, 1.0)),
            ),
            min_size=1,
            max_size=4,
        ),
        log_width=st.floats(-300.0, 300.0),
        log_ratio=st.floats(-300.0, 300.0),
        log_omega0=st.one_of(st.none(), st.floats(-300.0, 300.0)),
    )
    @example(terms=[(100.0, 100.0, 0.0, 1.0)], log_width=1.0, log_ratio=0.0, log_omega0=0.0)
    def test_estimate_is_a_number_wherever_defined(self, terms, log_width, log_ratio, log_omega0):
        # Log-uniform magnitudes: couplings 1e-100..1e100, detunings
        # +-1e-150..1e150, widths 1e-300..1e300, delay/width 1e-300..1e300.
        # The example overflows S_ab^2, once giving inf/inf = NaN.
        width = 10.0**log_width
        omega0 = 0.0 if log_omega0 is None else 10.0**log_omega0
        try:
            system = MultiLambdaSystem(
                tuple(10.0**a for a, _, _, _ in terms),
                tuple(10.0**b for _, b, _, _ in terms),
                tuple(sign * 10.0**d for _, _, d, sign in terms),
            )
            pul = PulsePair(omega0, width, 10.0**log_ratio * width)
        except ValueError:
            assume(False)
        try:
            est = lz_estimate(system, pul)
        except NoCrossing:
            return
        assert not math.isnan(est.t_c)
        assert 0.0 <= est.xi <= math.inf
        assert 0.0 <= est.pf_estimate <= 1.0

    def test_no_crossing_cases(self):
        pul = pulses(30.0)
        with pytest.raises(NoCrossing):
            lz_estimate(BROKEN, pul)  # sums of opposite sign
        with pytest.raises(NoCrossing):
            lz_estimate(BLOCKED, pul)  # Stokes sum flagged zero
        # sums undefined on resonance; the reason is the one the report prints
        with pytest.raises(NoCrossing, match="^resonant state present$"):
            lz_estimate(RES_DARK, pul)
