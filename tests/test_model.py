from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilambda import (
    BothEnvelopesZero,
    MultiLambdaSystem,
    PulsePair,
    StateVector,
    ZeroDetuningInSum,
    build_hamiltonian,
    dark_state,
    det_closed_form,
    det_offres_sum_form,
    det_pair_form,
    det_single_res_sum_form,
    s_sums,
    zero_eigvec_amplitudes,
)

from cases import (
    BROKEN,
    DARK3,
    DEGEN_PROP_RES_ONLY,
    LINKED,
    NON_FINITE,
    RES_DARK,
    RES_GENERAL,
    SCAN_BASE,
    TRANSFER,
    pulses,
)


class TestPulsePair:
    def test_envelope_values_and_ordering(self):
        pul = pulses(30.0)
        wp, ws = pul.values(-15.0)
        # Stokes peaks at -delay, pump is one width away there.
        assert ws == pytest.approx(1.0)
        assert wp == pytest.approx(math.exp(-1.0))
        wp0, ws0 = pul.values(0.0)
        assert wp0 == pytest.approx(math.exp(-0.25))
        assert ws0 == pytest.approx(math.exp(-0.25))

    def test_mirror_symmetry(self):
        pul = pulses(30.0)
        for t in (-40.0, -7.5, 3.0, 22.0):
            wp, ws = pul.values(t)
            wp_m, ws_m = pul.values(-t)
            assert wp == pytest.approx(ws_m, rel=1e-15)
            assert ws == pytest.approx(wp_m, rel=1e-15)

    def test_derivatives_match_finite_differences(self):
        pul = pulses(30.0)
        eps = 1e-6
        for t in (-20.0, 0.0, 11.0):
            dp, ds = pul.derivatives(t)
            wp_hi, ws_hi = pul.values(t + eps)
            wp_lo, ws_lo = pul.values(t - eps)
            assert dp == pytest.approx((wp_hi - wp_lo) / (2 * eps), abs=1e-8)
            assert ds == pytest.approx((ws_hi - ws_lo) / (2 * eps), abs=1e-8)

    def test_default_window_covers_both_pulses(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        assert (lo, hi) == (-135.0, 135.0)
        wp, ws = pul.values(hi)
        assert max(wp, ws) < 1e-6

    def test_zero_amplitude_allowed_negative_rejected(self):
        PulsePair(omega0=0.0, width=10, delay=5)
        with pytest.raises(ValueError):
            PulsePair(omega0=-1.0, width=10, delay=5)
        with pytest.raises(ValueError):
            PulsePair(omega0=1.0, width=0.0, delay=5)
        with pytest.raises(ValueError):
            PulsePair(omega0=1.0, width=10, delay=0.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["omega0", "width", "delay"])
    def test_non_finite_refused(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            PulsePair(**{"omega0": 1.0, "width": 10.0, "delay": 5.0, field: bad})


class TestSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiLambdaSystem((), (), ())
        with pytest.raises(ValueError):
            MultiLambdaSystem((1, 1), (1,), (1, 2))
        with pytest.raises(ValueError):
            MultiLambdaSystem((1, -1), (1, 1), (1, 2))
        with pytest.raises(ValueError):
            MultiLambdaSystem((2, 1), (1, 1), (1, 2))
        # reduction products carry a boosted first coupling
        MultiLambdaSystem((2, 1), (1, 1), (1, 2), enforce_normalization=False)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_refused(self, bad):
        for fields in [((1, bad), (1, 1), (1, 2)), ((1, 1), (1, bad), (1, 2)),
                       ((1, 1), (1, 1), (bad, 2))]:
            with pytest.raises(ValueError, match="finite"):
                MultiLambdaSystem(*fields, enforce_normalization=False)
        with pytest.raises(ValueError, match="finite"):
            LINKED.with_common_detuning(bad)

    @pytest.mark.parametrize("detunings", [(1e-200, 2e-200), (1e-310, 1.5), (0.0, 1e-310)])
    def test_overflowing_detuning_sums_refused(self, detunings):
        # delta_1 delta_2 underflows to zero, or 1/delta_1 overflows to inf
        with pytest.raises(ValueError, match="finite"):
            MultiLambdaSystem((1, 1), (1, 1), detunings)

    def test_tiny_finite_detuning_sums_accepted(self):
        system = MultiLambdaSystem((1, 1), (1, 2), (1e-300, 1.5))
        assert math.isfinite(s_sums(system).residual())

    def test_resonance_detection_is_exact(self):
        assert RES_DARK.resonant_indices() == (0,)
        assert MultiLambdaSystem((1, 1), (1, 1), (1e-300, 1.0)).resonant_indices() == ()
        assert DARK3.resonant_indices() == ()

    def test_proportionality(self):
        assert DARK3.is_proportional()
        assert not LINKED.is_proportional()
        assert DEGEN_PROP_RES_ONLY.is_proportional(indices=(0, 1))
        assert not DEGEN_PROP_RES_ONLY.is_proportional()

    def test_common_detuning_shift(self):
        shifted = SCAN_BASE.with_common_detuning(0.5)
        assert shifted.detunings == LINKED.detunings
        assert shifted.alphas == LINKED.alphas
        assert shifted.betas == LINKED.betas


class TestStateVector:
    def test_initial_and_populations(self):
        sv = StateVector.initial(3)
        assert sv.amplitudes.shape == (5,)
        assert sv.norm() == pytest.approx(1.0)
        assert sv.populations()[0] == pytest.approx(1.0)
        assert sv.n_intermediate == 3

    def test_immutable(self):
        sv = StateVector.initial(2)
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            StateVector(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", NON_FINITE + (complex(0.0, float("nan")),))
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateVector(np.array([1.0, bad, 0.0]))


class TestHamiltonian:
    def test_structure(self):
        pul = pulses(30.0)
        wp, ws = pul.values(-3.0)
        h = build_hamiltonian(LINKED, wp, ws)
        assert h.shape == (4, 4)
        assert np.array_equal(h, h.T)
        assert h[0, 0] == 0.0 and h[-1, -1] == 0.0 and h[0, -1] == 0.0
        assert h[0, 1] == pytest.approx(1 * wp)
        assert h[0, 2] == pytest.approx(2 * wp)
        assert h[1, 3] == pytest.approx(1 * ws)
        assert h[2, 3] == pytest.approx(0.5 * ws)
        assert h[1, 1] == 0.5 and h[2, 2] == 1.5

    def test_negative_envelopes_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(LINKED, -0.1, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            build_hamiltonian(LINKED, np.array([0.1, 0.2]), np.array([0.5, -1e-300]))

    def test_array_envelopes_stack_scalar_builds(self):
        wp, ws = pulses(30.0).values(np.linspace(-60.0, 60.0, 7))
        stack = build_hamiltonian(LINKED, wp, ws)
        assert stack.shape == (7, 4, 4)
        for k in range(7):
            assert np.array_equal(stack[k], build_hamiltonian(LINKED, float(wp[k]), float(ws[k])))


class TestSums:
    def test_linked_sums_by_hand(self):
        s = s_sums(LINKED)
        assert s.s_a2 == pytest.approx(14 / 3, rel=1e-15)
        assert s.s_b2 == pytest.approx(13 / 6, rel=1e-15)
        assert s.s_ab == pytest.approx(8 / 3, rel=1e-15)
        # all terms positive: scale equals the sum itself
        assert s.s_a2_scale == pytest.approx(s.s_a2)
        assert not (s.a2_is_zero() or s.b2_is_zero() or s.ab_is_zero())

    def test_cancellation_tracked_by_scale(self):
        s = s_sums(BROKEN)
        assert s.s_ab == pytest.approx(0.0, abs=1e-15)
        assert s.s_ab_scale == pytest.approx(4.0)
        assert s.ab_is_zero()

    def test_exclusion(self):
        s = s_sums(RES_DARK, excluded=0)
        assert s.excluded_index == 0
        assert s.s_a2 == pytest.approx(0.25)
        assert s.s_b2 == pytest.approx(0.25)

    def test_resonant_term_refused(self):
        with pytest.raises(ZeroDetuningInSum):
            s_sums(RES_DARK)

    def test_residual_and_bracket_values(self):
        # 14/3 * 13/6 - (8/3)^2 = 3 by hand, and (1*0.5 - 2*1)^2/(0.5*1.5) = 3
        # as the one pair term
        s = s_sums(LINKED)
        assert s.residual() == pytest.approx(3.0, rel=1e-15)
        assert not s.residual_is_zero()
        assert s_sums(TRANSFER).residual_is_zero()
        # one state: no pairs, so the residual is exactly zero (dark state)
        assert s_sums(MultiLambdaSystem((1,), (1,), (0.7,))).residual() == 0.0
        dark = s_sums(RES_DARK, excluded=0)
        assert dark.bracket(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert dark.bracket_is_zero(1.0, 1.0)
        general = s_sums(RES_GENERAL, excluded=0)
        assert general.bracket(1.0, 1.0) == pytest.approx(2.25, rel=1e-15)
        assert not general.bracket_is_zero(1.0, 1.0)


class TestDeterminants:
    def test_dual_routes_agree_offres(self):
        for sys_ in (LINKED, BROKEN, DARK3, TRANSFER):
            a = det_offres_sum_form(sys_, 0.7, 0.4)
            b = det_pair_form(sys_, 0.7, 0.4)
            nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)
            assert a == pytest.approx(nd, rel=1e-9, abs=1e-12)

    def test_dual_routes_agree_single_res(self):
        for sys_ in (RES_DARK, RES_GENERAL):
            a = det_single_res_sum_form(sys_, 0.7, 0.4, 0)
            b = det_pair_form(sys_, 0.7, 0.4)
            nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(nd, rel=1e-9)

    def test_double_res(self):
        sys_ = MultiLambdaSystem((1, 0.5, 2), (1, 0.7, 1), (0.0, 0.0, 1.5))
        cf = det_pair_form(sys_, 0.7, 0.4)
        nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
        assert cf == pytest.approx(nd, rel=1e-9)
        assert det_closed_form(sys_, 0.7, 0.4) == cf

    def test_three_resonances_vanish_identically(self):
        sys_ = MultiLambdaSystem((1, 0.5, 0.7), (1, 0.3, 0.9), (0.0, 0.0, 0.0))
        assert det_closed_form(sys_, 0.7, 0.4) == 0.0
        assert np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4)) == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        n_zero=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closed_form_matches_numeric_determinant(self, n, n_zero, seed):
        rng = np.random.default_rng(seed)
        n_zero = min(n_zero, n)
        al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        de = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        de[:n_zero] = 0.0
        sys_ = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
        wp, ws = rng.uniform(0.2, 1.0, 2)
        cf = det_closed_form(sys_, wp, ws)
        nd = float(np.linalg.det(build_hamiltonian(sys_, wp, ws)))
        assert cf == pytest.approx(nd, rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closed_form_near_resonance(self, n, seed):
        # One |Delta_k| = 10^U(-12, -3).  S_a2 S_b2 - S_ab^2 as a product of
        # sums cancels terms of order 1/Delta_k^2; summed over pairs it has
        # none, and the closed form keeps full relative precision.
        rng = np.random.default_rng(seed)
        al = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        be = np.concatenate([[1.0], rng.uniform(0.1, 2.0, n - 1)])
        de = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        de[rng.integers(n)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0)
        sys_ = MultiLambdaSystem(tuple(al), tuple(be), tuple(de))
        wp, ws = rng.uniform(0.2, 1.0, 2)
        cf = det_closed_form(sys_, wp, ws)
        nd = float(np.linalg.det(build_hamiltonian(sys_, wp, ws)))
        assert cf == pytest.approx(nd, rel=1e-9)


class TestNullVectors:
    def test_dark_state_is_exact_eigenvector(self):
        pul = pulses(30.0)
        for t in (-25.0, 0.0, 12.0):
            ds = dark_state(DARK3, pul, t)
            h = build_hamiltonian(DARK3, *pul.values(t))
            assert np.linalg.norm(h @ ds.amplitudes) <= 1e-15 * np.linalg.norm(h)
            assert ds.norm() == pytest.approx(1.0)
            # no intermediate admixture at any time
            assert np.all(ds.populations()[1:-1] == 0.0)

    def test_dark_state_connects_ends(self):
        pul = pulses(30.0)
        early = dark_state(DARK3, pul, -120.0).populations()
        late = dark_state(DARK3, pul, 120.0).populations()
        assert early[0] > 0.999
        assert late[-1] > 0.999

    def test_dark_state_undefined_without_fields(self):
        pul = PulsePair(omega0=0.0, width=30, delay=15)
        with pytest.raises(BothEnvelopesZero):
            dark_state(DARK3, pul, 0.0)

    def test_extended_end_state_amplitudes_solve_null_equation(self):
        # TRANSFER satisfies the zero-eigenvalue condition; extending the
        # closed-form end-state pair must give an exact null vector.
        pul = pulses(30.0)
        s = s_sums(TRANSFER)
        for t in (-10.0, 0.0, 5.0):
            wp, ws = pul.values(t)
            v = zero_eigvec_amplitudes(TRANSFER, pul, t, s.s_ab * ws, -s.s_a2 * wp)
            h = build_hamiltonian(TRANSFER, wp, ws)
            assert np.linalg.norm(h @ v.amplitudes) <= 1e-12 * np.linalg.norm(h)
            assert v.norm() == pytest.approx(1.0)

    def test_extension_needs_nonzero_detunings(self):
        with pytest.raises(ZeroDetuningInSum):
            zero_eigvec_amplitudes(RES_DARK, pulses(30.0), 0.0, 1.0, 0.0)
