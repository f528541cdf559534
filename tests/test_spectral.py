from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilambda import (
    AmbiguousTracking,
    DegenerateSums,
    NonSymmetricInput,
    NotSingleResonance,
    Side,
    SpectralSnapshot,
    asymptotic_eigenvalues_offres,
    asymptotic_eigenvalues_res,
    asymptotics_valid,
    build_hamiltonian,
    eigendecompose,
    track_curve,
    track_spectrum,
    track_vectors,
)

from cases import (
    AMBIGUOUS,
    BLOCKED,
    BROKEN,
    DEGEN_NONPROP_2,
    LINKED,
    PUMP_BLOCKED,
    RES_DARK,
    TRANSFER,
    pulses,
)


def _random_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim))
    return m + m.T


class TestEigendecompose:
    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = _random_symmetric(rng, int(rng.integers(2, 9)))
            w, v = eigendecompose(a)
            w_ref = np.linalg.eigvalsh(a)
            assert np.allclose(w, w_ref, rtol=1e-12, atol=1e-12 * np.linalg.norm(a))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(min_value=2, max_value=7), seed=st.integers(0, 2**32 - 1))
    def test_eigenpairs_are_consistent(self, dim, seed):
        a = _random_symmetric(np.random.default_rng(seed), dim)
        w, v = eigendecompose(a)
        scale = np.linalg.norm(a)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v.T @ v, np.eye(dim), atol=1e-12)
        assert np.linalg.norm(a @ v - v * w) <= 1e-11 * max(scale, 1.0)

    def test_zero_matrix(self):
        w, v = eigendecompose(np.zeros((3, 3)))
        assert np.all(w == 0.0)
        assert np.array_equal(v, np.eye(3))

    def test_rejects_bad_input(self):
        with pytest.raises(NonSymmetricInput):
            eigendecompose(np.zeros((2, 3)))
        with pytest.raises(NonSymmetricInput):
            eigendecompose(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
        # one bad member spoils a stack
        stack = np.array([_random_symmetric(np.random.default_rng(8), 4)] * 3)
        asymmetric = stack.copy()
        asymmetric[2, 0, 1] += 1e-12
        poisoned = stack.copy()
        poisoned[1, 3, 3] = np.nan
        for bad in (asymmetric, poisoned):
            with pytest.raises(NonSymmetricInput):
                eigendecompose(bad)

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(7)
        stack = np.array([_random_symmetric(rng, 5) for _ in range(6)])
        w, v = eigendecompose(stack)
        assert w.shape == (6, 5) and v.shape == (6, 5, 5)
        for k in range(6):
            wk, vk = eigendecompose(stack[k])
            assert np.array_equal(w[k], wk)
            assert np.array_equal(v[k], vk)


class TestTracking:
    def _initial_track_of_state(self, snaps, component: int) -> int:
        v = snaps[0].eigenvectors
        j = int(np.argmax(np.abs(v[component, :])))
        assert abs(v[component, j]) > 0.99
        return int(snaps[0].track_ids[j])

    def test_linked_curve_carries_population(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(LINKED, pul, np.linspace(lo, hi, 1200))
        tid = self._initial_track_of_state(snaps, 0)
        vecs = track_vectors(snaps, tid)
        # the curve that starts on the initial state ends on the final state
        assert abs(vecs[-1][-1]) > 0.99
        curve = track_curve(snaps, tid)
        assert curve.shape == (1200,)

    def test_broken_curve_returns_to_start(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(BROKEN, pul, np.linspace(lo, hi, 1200))
        tid = self._initial_track_of_state(snaps, 0)
        vecs = track_vectors(snaps, tid)
        assert abs(vecs[-1][0]) > 0.99

    def test_consecutive_overlaps_stay_high_on_fine_grid(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(LINKED, pul, np.linspace(lo, hi, 400))
        for tid in snaps[0].track_ids:
            vecs = track_vectors(snaps, int(tid))
            overlaps = np.abs(np.sum(vecs[:-1] * vecs[1:], axis=1))
            assert np.min(overlaps) > 0.9

    def test_snapshot_arrays_are_frozen(self):
        snaps = track_spectrum(LINKED, pulses(30.0), np.array([-10.0, 0.0, 10.0]))
        snap = snaps[1]
        assert not snap.eigenvalues.flags.writeable
        assert not snap.eigenvectors.flags.writeable
        assert snap.eigenvalues.shape == (4,)

    def test_degenerate_cluster_refuses_coarse_grid(self):
        pul = pulses(30.0)
        # one step across the whole pulse overlap rotates the eigenbasis too far
        with pytest.raises(AmbiguousTracking):
            track_spectrum(TRANSFER, pul, np.array([-30.0, 30.0]))
        # AMBIGUOUS keeps a sixfold cluster at detuning 1 at all times; aligned
        # with the previous basis, it tracks on coarse and fine grids alike
        track_spectrum(AMBIGUOUS, pul, np.linspace(-120.0, 0.0, 5))
        lo, hi = pul.default_window()
        snaps = track_spectrum(AMBIGUOUS, pul, np.linspace(lo, hi, 1001))
        for snap in snaps[::50]:
            h = build_hamiltonian(AMBIGUOUS, *pul.values(snap.t))
            v = snap.eigenvectors
            assert np.allclose(v.T @ v, np.eye(10), atol=1e-12)
            assert np.linalg.norm(h @ v - v * snap.eigenvalues) < 1e-8

    def test_curve_extraction_matches_per_snapshot_search(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(LINKED, pul, np.linspace(lo, hi, 2001))
        for tid in range(LINKED.dimension):
            cols = [int(np.nonzero(snap.track_ids == tid)[0][0]) for snap in snaps]
            expected_w = np.array([snap.eigenvalues[j] for snap, j in zip(snaps, cols)])
            expected_v = np.array([snap.eigenvectors[:, j] for snap, j in zip(snaps, cols)])
            assert np.array_equal(track_curve(snaps, tid), expected_w)
            assert np.array_equal(track_vectors(snaps, tid), expected_v)

    def test_curve_extraction_refuses_missing_label(self):
        pul = pulses(30.0)
        snaps = track_spectrum(LINKED, pul, np.linspace(-60.0, 60.0, 41))
        with pytest.raises(ValueError):
            track_curve(snaps, LINKED.dimension)
        # a label present in all snapshots but one is refused too
        s0 = snaps[0]
        broken = [SpectralSnapshot(s0.t, s0.eigenvalues, s0.eigenvectors, s0.track_ids + 1)]
        with pytest.raises(ValueError):
            track_curve(broken + snaps[1:], 0)
        with pytest.raises(ValueError):
            track_vectors(broken + snaps[1:], 0)

    def test_grid_validation(self):
        pul = pulses(30.0)
        with pytest.raises(ValueError):
            track_spectrum(LINKED, pul, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            track_spectrum(LINKED, pul, np.zeros((2, 2)))


class TestAsymptotics:
    def test_validity_predicate(self):
        pul = pulses(30.0)
        assert asymptotics_valid(pul, -60.0, Side.EARLY)
        assert not asymptotics_valid(pul, 0.0, Side.EARLY)
        assert asymptotics_valid(pul, 60.0, Side.LATE)
        assert not asymptotics_valid(pul, -60.0, Side.LATE)

    def test_validity_knows_the_detunings(self):
        # Late side at width 30: at t=+60 the envelope ratio is small but
        # omega_p max(alpha_k, beta_k)/|Delta_k| is 0.42 for BROKEN, where
        # the leading-order tail eigenvalues miss by about 17%.
        pul = pulses(30.0)
        wp, _ = pul.values(60.0)
        assert 4.0 * wp == pytest.approx(0.4216, abs=1e-4)
        assert asymptotics_valid(pul, 60.0, Side.LATE)
        assert not asymptotics_valid(pul, 60.0, Side.LATE, system=BROKEN)
        assert asymptotics_valid(pul, 87.0, Side.LATE, system=BROKEN)
        # the envelope-ratio condition still applies with a system
        assert not asymptotics_valid(pul, -87.0, Side.LATE, system=BROKEN)
        assert asymptotics_valid(pul, -87.0, Side.EARLY, system=BROKEN)

    def test_validity_ignores_resonant_states(self):
        # RES_DARK's resonant pathway has no detuning to compare with
        assert asymptotics_valid(pulses(30.0), 87.0, Side.LATE, system=RES_DARK)

    @pytest.mark.parametrize("side", [Side.EARLY, Side.LATE])
    def test_offres_formulas_approach_spectrum(self, side):
        pul = pulses(30.0)
        t = -75.0 if side is Side.EARLY else 75.0  # 2.5 widths out
        wp, ws = pul.values(t)
        pred = asymptotic_eigenvalues_offres(LINKED, wp, ws, side)
        evs, _ = eigendecompose(build_hamiltonian(LINKED, wp, ws))
        for value in (pred.small, *pred.large):
            nearest = evs[np.argmin(np.abs(evs - value))]
            assert abs(nearest - value) <= 0.10 * abs(nearest)

    @pytest.mark.parametrize("side", [Side.EARLY, Side.LATE])
    def test_single_res_formulas_approach_spectrum(self, side):
        pul = pulses(30.0)
        t = -75.0 if side is Side.EARLY else 75.0
        wp, ws = pul.values(t)
        pred = asymptotic_eigenvalues_res(RES_DARK, 0, wp, ws, side)
        evs, _ = eigendecompose(build_hamiltonian(RES_DARK, wp, ws))
        # proportional couplings make the small eigenvalue exactly zero
        assert pred.small == 0.0
        assert np.min(np.abs(evs)) < 1e-12
        assert len(pred.large) == 2
        for value in pred.large:
            nearest = evs[np.argmin(np.abs(evs - value))]
            assert abs(nearest - value) <= 0.10 * abs(nearest)

    def test_degenerate_sums_refused(self):
        # BLOCKED has a vanishing Stokes sum, PUMP_BLOCKED a vanishing pump sum
        with pytest.raises(DegenerateSums):
            asymptotic_eigenvalues_offres(BLOCKED, 0.1, 0.9, Side.EARLY)
        with pytest.raises(DegenerateSums):
            asymptotic_eigenvalues_offres(PUMP_BLOCKED, 0.9, 0.1, Side.LATE)

    def test_single_resonance_required(self):
        with pytest.raises(NotSingleResonance):
            asymptotic_eigenvalues_res(DEGEN_NONPROP_2, 0, 0.5, 0.5, Side.EARLY)
        with pytest.raises(NotSingleResonance):
            asymptotic_eigenvalues_res(RES_DARK, 1, 0.5, 0.5, Side.EARLY)
