from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilambda import (
    MultiLambdaSystem,
    PreconditionViolated,
    PulsePair,
    SSums,
    build_hamiltonian,
    dark_state,
    det_closed_form,
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

    def test_overflowing_window_refused(self):
        # 4 width + delay overflows: the window (-inf, inf) was once
        # integrated and reported as a step size underflow
        for width, delay in ((1e308, 1.0), (np.float64(1e308), 1.0), (1e307, 1.7e308)):
            with pytest.raises(ValueError, match="^pulse window must be finite$"):
                PulsePair(omega0=1.0, width=width, delay=delay)
        assert PulsePair(omega0=1.0, width=4e307, delay=1.0).default_window() == (-1.6e308, 1.6e308)


class TestSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiLambdaSystem((), (), ())
        with pytest.raises(ValueError):
            MultiLambdaSystem((1, 1), (1,), (1, 2))
        with pytest.raises(ValueError):
            MultiLambdaSystem((1, -1), (1, 1), (1, 2))
        # any positive first coupling: only config files normalize it to 1
        MultiLambdaSystem((2, 1), (1, 1), (1, 2))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_refused(self, bad):
        for fields in [((1, bad), (1, 1), (1, 2)), ((1, 1), (1, bad), (1, 2)),
                       ((1, 1), (1, 1), (bad, 2))]:
            with pytest.raises(ValueError, match="finite"):
                MultiLambdaSystem(*fields)
        with pytest.raises(ValueError, match="finite"):
            LINKED.with_common_detuning(bad)

    @pytest.mark.parametrize("detunings", [(1e-200, 2e-200), (1e-310, 1.5), (0.0, 1e-310)])
    def test_overflowing_detuning_sums_refused(self, detunings):
        # delta_1 delta_2 underflows to zero, or 1/delta_1 overflows to inf
        with pytest.raises(ValueError, match="finite"):
            MultiLambdaSystem((1, 1), (1, 1), detunings)

    def test_tiny_finite_detuning_sums_accepted(self):
        system = MultiLambdaSystem((1, 1), (1, 2), (1e-300, 1.5))
        assert math.isfinite(float(system.sums.residual))

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


class TestStates:
    """A state is a plain complex array of N+2 amplitudes."""

    def test_null_vectors_are_read_only(self):
        pul = pulses(30.0)
        s = TRANSFER.sums
        wp, ws = pul.values(0.0)
        states = (
            dark_state(DARK3, pul, 0.0),
            zero_eigvec_amplitudes(TRANSFER, pul, 0.0, float(s.ab) * ws, -float(s.a2) * wp),
        )
        for amps in states:
            assert isinstance(amps, np.ndarray)
            assert amps.dtype == complex
            with pytest.raises(ValueError):
                amps[0] = 0.0

    def test_overflowing_null_vector_refused(self):
        # beta_1 omega_s overflows, and inf/inf would leave a NaN amplitude
        system = MultiLambdaSystem((1.0,), (10.0,), (1.0,))
        pul = PulsePair(omega0=1e308, width=30.0, delay=15.0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            dark_state(system, pul, -15.0)


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
        # NaN compares False against 0 either way: once NaN couplings
        with pytest.raises(ValueError, match="nonnegative"):
            build_hamiltonian(LINKED, np.nan, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            build_hamiltonian(LINKED, np.array([0.1, 0.2]), np.array([0.5, np.nan]))

    def test_array_envelopes_stack_scalar_builds(self):
        wp, ws = pulses(30.0).values(np.linspace(-60.0, 60.0, 7))
        stack = build_hamiltonian(LINKED, wp, ws)
        assert stack.shape == (7, 4, 4)
        for k in range(7):
            assert np.array_equal(stack[k], build_hamiltonian(LINKED, float(wp[k]), float(ws[k])))


class TestSums:
    def test_linked_sums_by_hand(self):
        s = LINKED.sums
        assert float(s.a2) == pytest.approx(14 / 3, rel=1e-15)
        assert float(s.b2) == pytest.approx(13 / 6, rel=1e-15)
        assert float(s.ab) == pytest.approx(8 / 3, rel=1e-15)
        # all terms positive: scale equals the sum itself
        assert s.a2.scale == pytest.approx(s.a2.value)
        assert not (s.a2.is_zero() or s.b2.is_zero() or s.ab.is_zero())

    def test_cancellation_tracked_by_scale(self):
        s = BROKEN.sums
        assert float(s.ab) == pytest.approx(0.0, abs=1e-15)
        assert math.ldexp(s.ab.scale, s.ab.exp) == pytest.approx(4.0)
        assert s.ab.is_zero()

    def test_exclusion(self):
        s = RES_DARK.sums
        assert float(s.a2) == pytest.approx(0.25)
        assert float(s.b2) == pytest.approx(0.25)

    def test_over_refuses_what_it_cannot_sum(self):
        with pytest.raises(PreconditionViolated, match="^a detuning sum divides by each detuning$"):
            SSums.over([(1.0, 1.0, 0.0)])
        for term in ((1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (math.nan, 1.0, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                SSums.over([(2.0, 0.5, 1.5), term])

    def test_float_is_the_plain_sum_bit_for_bit(self):
        # A power-of-two scaling is exact, so where nothing under- or
        # overflows, float() of each scaled sum is the plain sum in term order.
        def plain(xs):
            total = 0.0
            for x in xs:
                total += x
            return total

        rng = np.random.default_rng(2019)
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            al, be = rng.uniform(0.1, 10.0, n).tolist(), rng.uniform(0.1, 10.0, n).tolist()
            de = (rng.uniform(0.1, 10.0, n) * rng.choice([-1.0, 1.0], n)).tolist()
            a, b = rng.uniform(0.1, 10.0, 2).tolist()
            s = SSums.over(zip(al, be, de))
            sa = plain(x * x / d for x, d in zip(al, de))
            sb = plain(y * y / d for y, d in zip(be, de))
            sab = plain(x * y / d for x, y, d in zip(al, be, de))
            res = plain(
                (al[k] * be[l] - al[l] * be[k]) * (al[k] * be[l] - al[l] * be[k]) / (de[k] * de[l])
                for k in range(n) for l in range(k + 1, n)
            )
            assert (float(s.a2), float(s.b2), float(s.ab)) == (sa, sb, sab)
            assert float(s.residual) == res
            assert float(s.bracket(a, b)) == a * a * sb - 2.0 * a * b * sab + b * b * sa

    def test_resonant_term_left_out(self):
        # the sums of a single resonance run over the off-resonant states only
        terms = tuple(zip(RES_DARK.alphas, RES_DARK.betas, RES_DARK.detunings))[1:]
        assert RES_DARK.sums == SSums.over(terms)

    def test_sums_follow_the_fields(self):
        shifted = dataclasses.replace(LINKED, detunings=(1.0, 2.0))
        assert shifted.sums == SSums.over(((1.0, 1.0, 1.0), (2.0, 0.5, 2.0)))
        # equality, hashing and repr see the fields only
        same = MultiLambdaSystem(LINKED.alphas, LINKED.betas, LINKED.detunings)
        object.__setattr__(same, "sums", BROKEN.sums)
        assert same == LINKED
        assert hash(same) == hash(LINKED)
        assert "sums" not in repr(LINKED)

    def test_residual_and_bracket_values(self):
        # 14/3 * 13/6 - (8/3)^2 = 3 by hand, and (1*0.5 - 2*1)^2/(0.5*1.5) = 3
        # as the one pair term
        s = LINKED.sums
        assert float(s.residual) == pytest.approx(3.0, rel=1e-15)
        assert not s.residual.is_zero()
        assert TRANSFER.sums.residual.is_zero()
        # one state: no pairs, so the residual is exactly zero (dark state)
        assert float(MultiLambdaSystem((1,), (1,), (0.7,)).sums.residual) == 0.0
        dark = RES_DARK.sums
        assert float(dark.bracket(1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert dark.bracket(1.0, 1.0).is_zero()
        general = RES_GENERAL.sums
        assert float(general.bracket(1.0, 1.0)) == pytest.approx(2.25, rel=1e-15)
        assert not general.bracket(1.0, 1.0).is_zero()


class TestDeterminants:
    def test_dual_routes_agree_offres(self):
        # the paper's sum form: omega_p^2 omega_s^2 prod Delta (S_a2 S_b2 - S_ab^2)
        for sys_ in (LINKED, BROKEN, DARK3, TRANSFER):
            a = 0.7**2 * 0.4**2 * math.prod(sys_.detunings) * float(sys_.sums.residual)
            b = det_closed_form(sys_, 0.7, 0.4)
            nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)
            assert a == pytest.approx(nd, rel=1e-9, abs=1e-12)

    def test_dual_routes_agree_single_res(self):
        # the paper's sum form with state 0 resonant: the bracket over the rest
        for sys_ in (RES_DARK, RES_GENERAL):
            bracket = float(sys_.sums.bracket(sys_.alphas[0], sys_.betas[0]))
            a = 0.7**2 * 0.4**2 * math.prod(sys_.detunings[1:]) * bracket
            b = det_closed_form(sys_, 0.7, 0.4)
            nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(nd, rel=1e-9)

    def test_double_res(self):
        sys_ = MultiLambdaSystem((1, 0.5, 2), (1, 0.7, 1), (0.0, 0.0, 1.5))
        cf = det_closed_form(sys_, 0.7, 0.4)
        nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
        assert cf == pytest.approx(nd, rel=1e-9)

    def test_huge_detunings_do_not_overflow(self):
        # prod Delta times the sum-form residual once overflowed to inf here
        for de in ((1e110, 2e110, 3e110), (1e160, 1e160, 0.0)):
            sys_ = MultiLambdaSystem((1, 0.5, 2), (1, 0.7, 1), de)
            cf = det_closed_form(sys_, 0.7, 0.4)
            nd = np.linalg.det(build_hamiltonian(sys_, 0.7, 0.4))
            assert cf == pytest.approx(nd, rel=1e-9)

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

    def test_closed_form_at_huge_fields(self):
        # omega_p^2 once raised Python's OverflowError, outside the error tree
        ref = det_closed_form(LINKED, 1.0, 1.0)
        assert det_closed_form(LINKED, 1e200, 1e-200) == pytest.approx(ref, rel=1e-15)
        assert det_closed_form(LINKED, 1e200, 1.0) == math.inf
        negative = MultiLambdaSystem((1.0, 4.0, 1.0), (1.0, 1.0, 1.0), (-2.0, 1.0, 1.0))
        assert det_closed_form(negative, 1.0, 1.0) == -9.0
        assert det_closed_form(negative, 1.0, 1e200) == -math.inf


class TestNullVectors:
    def test_dark_state_is_exact_eigenvector(self):
        pul = pulses(30.0)
        for t in (-25.0, 0.0, 12.0):
            ds = dark_state(DARK3, pul, t)
            h = build_hamiltonian(DARK3, *pul.values(t))
            assert np.linalg.norm(h @ ds) <= 1e-15 * np.linalg.norm(h)
            assert np.linalg.norm(ds) == pytest.approx(1.0)
            # no intermediate admixture at any time
            assert np.all(np.abs(ds[1:-1]) ** 2 == 0.0)

    def test_dark_state_connects_ends(self):
        pul = pulses(30.0)
        early = np.abs(dark_state(DARK3, pul, -120.0)) ** 2
        late = np.abs(dark_state(DARK3, pul, 120.0)) ** 2
        assert early[0] > 0.999
        assert late[-1] > 0.999

    def test_dark_state_undefined_without_fields(self):
        pul = PulsePair(omega0=0.0, width=30, delay=15)
        with pytest.raises(PreconditionViolated, match="^both envelopes vanish at t=0.0$"):
            dark_state(DARK3, pul, 0.0)

    def test_dark_state_needs_proportional_couplings(self):
        # (omega_s, 0, 0, -omega_p)/Omega is no eigenvector of LINKED's H:
        # |H v| = 0.826 at t = 0
        with pytest.raises(PreconditionViolated, match="^couplings must be proportional$"):
            dark_state(LINKED, pulses(30.0), 0.0)

    def test_dark_state_needs_scalar_time(self):
        # an array t used to fail on NumPy's "truth value ... ambiguous"
        pul = pulses(30.0)
        match = r"^t must be a scalar time, not an array of shape \(2,\)$"
        with pytest.raises(ValueError, match=match):
            dark_state(DARK3, pul, np.array([0.0, 1.0]))
        assert np.array_equal(dark_state(DARK3, pul, np.float64(5.0)), dark_state(DARK3, pul, 5.0))

    def test_extended_end_state_amplitudes_solve_null_equation(self):
        # TRANSFER satisfies the zero-eigenvalue condition; extending the
        # closed-form end-state pair must give an exact null vector.
        pul = pulses(30.0)
        s = TRANSFER.sums
        for t in (-10.0, 0.0, 5.0):
            wp, ws = pul.values(t)
            v = zero_eigvec_amplitudes(TRANSFER, pul, t, float(s.ab) * ws, -float(s.a2) * wp)
            h = build_hamiltonian(TRANSFER, wp, ws)
            assert np.linalg.norm(h @ v) <= 1e-12 * np.linalg.norm(h)
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_extension_normalized_at_huge_fields(self):
        # the norm overflowed to inf and the vector came back as zeros
        v = zero_eigvec_amplitudes(LINKED, PulsePair(1e300, 30.0, 15.0), 0.0, 1.0, 0.0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert v[0] != 0.0

    def test_extension_needs_nonzero_detunings(self):
        match = "^intermediate amplitudes divide by each detuning$"
        with pytest.raises(PreconditionViolated, match=match):
            zero_eigvec_amplitudes(RES_DARK, pulses(30.0), 0.0, 1.0, 0.0)

    def test_extension_needs_scalar_time(self):
        # with N = 2 = len(t), alpha_k used to broadcast against omega_p(t_k)
        # and give one normalized wrong vector
        match = r"^t must be a scalar time, not an array of shape \(2,\)$"
        with pytest.raises(ValueError, match=match):
            zero_eigvec_amplitudes(LINKED, pulses(30.0), np.array([0.0, 1.0]), 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_extension_needs_finite_end_amplitudes(self, bad):
        # the divide by a NaN norm warned before the ValueError
        match = "^end-state amplitudes must be finite$"
        for a_i, a_f in ((bad, 0.0), (1.0, -bad)):
            with pytest.raises(ValueError, match=match):
                zero_eigvec_amplitudes(LINKED, pulses(30.0), 0.0, a_i, a_f)

    def test_extension_needs_nonzero_end_amplitudes(self):
        with pytest.raises(ValueError, match="empty vector"):
            zero_eigvec_amplitudes(TRANSFER, pulses(30.0), 0.0, 0.0, 0.0)
