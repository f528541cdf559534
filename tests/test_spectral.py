from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilambda import (
    AmbiguousTracking,
    MultiLambdaSystem,
    PreconditionViolated,
    Side,
    asymptotic_eigenvalues,
    asymptotics_valid,
    build_hamiltonian,
    eigendecompose,
    track_spectrum,
)
from multilambda import spectral

import cases
from cases import (
    AMBIGUOUS,
    BLOCKED,
    BROKEN,
    DEGEN_NONPROP_2,
    LINKED,
    PUMP_BLOCKED,
    RES_DARK,
    RES_GENERAL,
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
        with pytest.raises(PreconditionViolated, match="^matrix must be square$"):
            eigendecompose(np.zeros((2, 3)))
        with pytest.raises(PreconditionViolated, match="^matrix must be exactly symmetric$"):
            eigendecompose(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
        # one bad member spoils a stack
        stack = np.array([_random_symmetric(np.random.default_rng(8), 4)] * 3)
        asymmetric = stack.copy()
        asymmetric[2, 0, 1] += 1e-12
        poisoned = stack.copy()
        poisoned[1, 3, 3] = np.nan
        refusals = (
            (asymmetric, "^matrix must be exactly symmetric$"),
            (poisoned, "^matrix entries must be finite$"),
        )
        for bad, match in refusals:
            with pytest.raises(PreconditionViolated, match=match):
                eigendecompose(bad)

    def test_rejects_complex_input(self):
        # a cast to float would turn this Hermitian matrix into the identity,
        # eigenvalues (1, 1) instead of (0, 2)
        hermitian = np.array([[1.0, 1j], [-1j, 1.0]])
        real_valued = np.eye(3, dtype=complex)
        stack = np.array([_random_symmetric(np.random.default_rng(10), 4)] * 3, dtype=complex)
        boxed = hermitian.astype(object)
        for h in (hermitian, real_valued, stack, boxed):
            with pytest.raises(PreconditionViolated, match="^matrix must be real$"):
                eigendecompose(h)

    def test_rejects_non_finite_entries(self):
        a = _random_symmetric(np.random.default_rng(9), 4)
        for bad in (np.nan, np.inf, -np.inf):
            one = a.copy()
            one[1, 2] = one[2, 1] = bad
            stack = np.array([a] * 3)
            stack[2, 3, 3] = bad
            for h in (one, stack):
                with pytest.raises(PreconditionViolated, match="^matrix entries must be finite$"):
                    eigendecompose(h)

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
        # the curve that starts on the initial state ends on the final state
        end = snaps[-1]
        (j,) = np.flatnonzero(end.track_ids == tid)
        assert abs(end.eigenvectors[-1, j]) > 0.99

    def test_broken_curve_returns_to_start(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(BROKEN, pul, np.linspace(lo, hi, 1200))
        tid = self._initial_track_of_state(snaps, 0)
        end = snaps[-1]
        (j,) = np.flatnonzero(end.track_ids == tid)
        assert abs(end.eigenvectors[0, j]) > 0.99

    def test_consecutive_overlaps_stay_high_on_fine_grid(self):
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        snaps = track_spectrum(LINKED, pul, np.linspace(lo, hi, 400))
        for tid in snaps[0].track_ids:
            cols = np.argmax(snaps.track_ids == tid, axis=1)
            vecs = snaps.eigenvectors[np.arange(len(snaps)), :, cols]
            overlaps = np.abs(np.sum(vecs[:-1] * vecs[1:], axis=1))
            assert np.min(overlaps) > 0.9

    def test_snapshot_arrays_are_frozen(self):
        grid = np.array([-10.0, 0.0, 10.0])
        spec = track_spectrum(LINKED, pulses(30.0), grid)
        fields = ("t", "eigenvalues", "eigenvectors", "track_ids")
        shapes = [getattr(spec, name).shape for name in fields]
        assert shapes == [(3,), (3, 4), (3, 4, 4), (3, 4)]
        for name in fields:
            assert not getattr(spec, name).flags.writeable, name
            for row in spec:
                assert not getattr(row, name).flags.writeable, name
        with pytest.raises(ValueError):
            spec[1].eigenvalues[0] = 0.0
        assert spec.t.tobytes() == grid.tobytes()
        # iterating the rows gives back the stacked fields
        assert np.array([r.eigenvalues for r in spec]).tobytes() == spec.eigenvalues.tobytes()
        assert np.array([r.track_ids for r in spec]).tobytes() == spec.track_ids.tobytes()

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

    def test_grid_validation(self):
        pul = pulses(30.0)
        with pytest.raises(ValueError):
            track_spectrum(LINKED, pul, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            track_spectrum(LINKED, pul, np.zeros((2, 2)))
        for grid in ([0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="time grid must be finite"):
                track_spectrum(LINKED, pul, np.array(grid))
        # a cast to float would drop the imaginary parts, whatever their values
        for grid in ([0j, 1 + 1j], [0j, 1 + 0j]):
            with pytest.raises(ValueError, match="^time grid must be real$"):
                track_spectrum(LINKED, pul, np.array(grid))

    def test_debug_record_counts(self, caplog):
        caplog.set_level(logging.DEBUG, logger=spectral.__name__)
        pul = pulses(30.0)
        lo, hi = pul.default_window()
        grid = np.linspace(lo, hi, 1001)
        for system in (LINKED, AMBIGUOUS):
            caplog.clear()
            spec = track_spectrum(system, pul, grid)
            (record,) = [r for r in caplog.records if r.name == spectral.__name__]
            w = spec.eigenvalues
            scale = spectral._CLUSTER_RTOL * np.max(np.abs(w), axis=1, keepdims=True)
            clustered = np.any(np.diff(w, axis=1) <= scale, axis=1)
            # a step is sequential unless every column keeps an overlap above
            # the bound with the column before it, clustered or not
            v = spec.eigenvectors
            diag = np.einsum("kij,kij->kj", v[:-1], v[1:])
            sequential = ~np.all(np.abs(diag) > spectral._SURE_OVERLAP, axis=1)
            assert record.getMessage() == (
                f"track_spectrum: 1001 points, {np.count_nonzero(clustered)} clustered, "
                f"{np.count_nonzero(sequential)} sequential steps"
            )
            if system is LINKED:
                # both tails are runs of clustered snapshots, and no step
                # inside them is sequential any more
                tails = clustered[1:] & clustered[:-1]
                assert clustered[0] and clustered[-1] and not np.all(clustered)
                assert np.count_nonzero(tails) > 100
                assert not np.any(sequential & tails)
            else:
                assert np.all(clustered)
                assert np.count_nonzero(sequential) < 10


def _spans(close_row: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close_row.astype(int), [0]))))
    return [(int(lo), int(hi) + 1) for lo, hi in zip(edges[::2], edges[1::2])]


def _greedy_step(prev: np.ndarray, cur: np.ndarray, t: float) -> np.ndarray:
    """Greedy-match ``cur`` against ``prev``, flipping the signs of ``cur``'s
    columns in place; returns the matched previous column of each."""
    n = cur.shape[1]
    overlap = prev.T @ cur
    score = np.abs(overlap)
    match = np.full(n, -1)
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        if score[i, j] < 0.5:
            raise AmbiguousTracking(
                f"best eigenvector overlap {score[i, j]:.3f} < 0.5 at t={t}; "
                "refine the time grid"
            )
        if overlap[i, j] < 0:
            cur[:, j] = -cur[:, j]
        match[j] = i
        score[i, :] = -1.0
        score[:, j] = -1.0
    return match


def _reference_track(system, pul, grid) -> tuple[np.ndarray, np.ndarray]:
    """Track ids and eigenvectors one step at a time by the tracker's
    convention: each cluster is rotated onto the previous snapshot's rotated
    columns, by chaining Q_k = polar(X_k) Q_{k-1} on the raw overlap X_k
    where the spans repeat and every X_k has all singular values above the
    bound, by Procrustes otherwise; then every step is greedy-matched."""
    w, raw = eigendecompose(build_hamiltonian(system, *pul.values(grid)))
    n = w.shape[1]
    close = np.diff(w, axis=1) <= 1e-9 * np.max(np.abs(w), axis=1, keepdims=True)
    rot = raw.copy()
    out = raw.copy()
    for j in range(n):
        if out[0][int(np.argmax(np.abs(out[0][:, j]))), j] < 0:
            out[0][:, j] = -out[0][:, j]
    ids = np.empty(w.shape, dtype=int)
    ids[0] = np.arange(n)
    spans = _spans(close[0])
    rotation = {span: np.eye(span[1] - span[0]) for span in spans}
    for k in range(1, grid.size):
        prev_spans, spans = spans, _spans(close[k])
        polar = {}
        for lo, hi in spans:
            u, s, vt = np.linalg.svd(raw[k][:, lo:hi].T @ raw[k - 1][:, lo:hi])
            polar[lo, hi] = (u @ vt, s[-1] > 0.75)
        if spans and spans == prev_spans and all(sure for _, sure in polar.values()):
            rotation = {span: polar[span][0] @ rotation[span] for span in spans}
        else:
            rotation = {}
            for lo, hi in spans:
                u, _, vt = np.linalg.svd(rot[k][:, lo:hi].T @ rot[k - 1][:, lo:hi])
                rotation[lo, hi] = u @ vt
        for (lo, hi), q in rotation.items():
            rot[k][:, lo:hi] = rot[k][:, lo:hi] @ q
        out[k] = rot[k]
        ids[k] = ids[k - 1][_greedy_step(out[k - 1], out[k], float(grid[k]))]
    return ids, out


def _parent_track(system, pul, grid):
    """The earlier per-snapshot loop: rotate each cluster onto the previous
    continued basis (signs included), then greedy-match every step.  Returns
    eigenvalues, ids, eigenvectors and the cluster mask (K, n)."""
    w, v = eigendecompose(build_hamiltonian(system, *pul.values(grid)))
    n = w.shape[1]
    close = np.diff(w, axis=1) <= 1e-9 * np.max(np.abs(w), axis=1, keepdims=True)
    in_cluster = np.zeros(w.shape, dtype=bool)
    for j in range(n):
        if v[0][int(np.argmax(np.abs(v[0][:, j]))), j] < 0:
            v[0][:, j] = -v[0][:, j]
    ids = np.empty(w.shape, dtype=int)
    ids[0] = np.arange(n)
    for lo, hi in _spans(close[0]):
        in_cluster[0, lo:hi] = True
    for k in range(1, grid.size):
        prev, cur = v[k - 1], v[k]
        for lo, hi in _spans(close[k]):
            in_cluster[k, lo:hi] = True
            u, _, vt = np.linalg.svd(cur[:, lo:hi].T @ prev[:, lo:hi])
            cur[:, lo:hi] = cur[:, lo:hi] @ (u @ vt)
        ids[k] = ids[k - 1][_greedy_step(prev, cur, float(grid[k]))]
    return w, ids, v, in_cluster


_CASE_SYSTEMS = {
    name: value for name, value in vars(cases).items() if isinstance(value, MultiLambdaSystem)
}


def _case_grids() -> list[np.ndarray]:
    lo, hi = pulses(30.0).default_window()
    grids = [np.linspace(lo, hi, points) for points in (2, 5, 7, 23, 201, 2001)]
    return grids + [np.array([-30.0, 30.0]), np.linspace(-120.0, 0.0, 5)]


def _assert_same_as_reference(system, pul, grid) -> None:
    """The tracker's ids and eigenvector bytes are the one-step reference's,
    or both refuse with the same message."""
    try:
        ids, v = _reference_track(system, pul, grid)
    except AmbiguousTracking as exc:
        with pytest.raises(AmbiguousTracking) as got:
            track_spectrum(system, pul, grid)
        assert str(got.value) == str(exc)
        return
    spec = track_spectrum(system, pul, grid)
    assert np.array_equal(spec.track_ids, ids)
    assert np.array(spec.eigenvectors).tobytes() == v.tobytes()


@st.composite
def _repeated_detuning_systems(draw) -> MultiLambdaSystem:
    """Random systems in which 4-6 pathways share one detuning: their
    couplings leave a cluster of 2-4 equal eigenvalues at every time."""
    shared = draw(st.integers(4, 6))
    others = draw(st.integers(0, 2))
    weight = st.floats(0.3, 2.0)
    detuning = st.floats(-3.0, 3.0).filter(lambda d: abs(d) > 0.1)
    n = shared + others
    alphas = (1.0, *draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    betas = (1.0, *draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    detunings = (draw(detuning),) * shared + tuple(
        draw(st.lists(detuning, min_size=others, max_size=others))
    )
    return MultiLambdaSystem(alphas, betas, detunings)


class TestFastTracking:
    """The tracker aligns clusters in batches and matches most steps without
    the greedy matcher; its results must be exactly those of aligning and
    greedy matching one step at a time."""

    @pytest.mark.parametrize("name", sorted(_CASE_SYSTEMS))
    def test_same_as_greedy_on_every_step(self, name):
        pul = pulses(30.0)
        for grid in _case_grids():
            _assert_same_as_reference(_CASE_SYSTEMS[name], pul, grid)

    @settings(max_examples=40, deadline=None)
    @given(
        system=_repeated_detuning_systems(),
        points=st.integers(5, 401),
        width=st.floats(10.0, 40.0),
    )
    def test_same_as_greedy_with_a_cluster_at_every_time(self, system, points, width):
        pul = pulses(width)
        lo, hi = pul.default_window()
        grid = np.linspace(lo, hi, points)
        w, _ = eigendecompose(build_hamiltonian(system, *pul.values(grid)))
        scale = spectral._CLUSTER_RTOL * np.max(np.abs(w), axis=1, keepdims=True)
        assert np.all(np.any(np.diff(w, axis=1) <= scale, axis=1))
        _assert_same_as_reference(system, pul, grid)

    def test_stacked_polar_factors_are_the_single_ones(self):
        # the tracker takes the chained rotations from one stacked SVD, the
        # reference from one SVD per step
        rng = np.random.default_rng(13)
        for m in (2, 3, 6):
            x = rng.normal(size=(500, m, m))
            u, _, vt = np.linalg.svd(x)
            stacked = u @ vt
            for k in range(500):
                u, _, vt = np.linalg.svd(x[k])
                assert (u @ vt).tobytes() == stacked[k].tobytes()

    @pytest.mark.parametrize("name", sorted(_CASE_SYSTEMS))
    def test_parent_convention_to_rounding(self, name):
        # Chaining rotations instead of taking each from the rotated previous
        # basis moves cluster eigenvectors by rounding only (worst seen:
        # 1.06e-13); everything else is bit for bit the earlier loop's.
        system = _CASE_SYSTEMS[name]
        pul = pulses(30.0)
        for grid in _case_grids():
            try:
                w, ids, v, in_cluster = _parent_track(system, pul, grid)
            except AmbiguousTracking as exc:
                with pytest.raises(AmbiguousTracking) as got:
                    track_spectrum(system, pul, grid)
                assert str(got.value) == str(exc)
                continue
            spec = track_spectrum(system, pul, grid)
            assert spec.t.tobytes() == grid.tobytes()
            assert spec.eigenvalues.tobytes() == w.tobytes()
            assert np.array_equal(spec.track_ids, ids)
            got = np.array(spec.eigenvectors)
            outside = np.broadcast_to(~in_cluster[:, None, :], v.shape)
            assert got[outside].tobytes() == v[outside].tobytes()
            assert np.max(np.abs(got - v)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=10),
        seed=st.integers(0, 2**32 - 1),
        angle=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_argmax_is_greedy_above_the_bound(self, dim, seed, angle):
        rng = np.random.default_rng(seed)
        if angle is None:
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        else:
            # a rotation of the identity by about ``angle``, with columns
            # permuted and signs flipped
            a = rng.normal(size=(dim, dim))
            a = 0.5 * angle * (a - a.T) / np.linalg.norm(a - a.T, 2)
            q = np.linalg.solve(np.eye(dim) - a, np.eye(dim) + a)
            q = q[:, rng.permutation(dim)] * rng.choice((-1.0, 1.0), dim)
        rows = np.argmax(np.abs(q), axis=0)
        top = q[rows, np.arange(dim)]
        if np.all(np.abs(top) > spectral._SURE_OVERLAP):
            match, sign = spectral._greedy_match(q, 0.0)
            assert np.array_equal(match, rows)
            assert np.array_equal(sign, np.sign(top))


class TestAsymptotics:
    def test_validity_predicate(self):
        # far enough detuned that only the envelope ratio decides
        far = MultiLambdaSystem((1, 1), (1, 1), (20, 30))
        pul = pulses(30.0)
        assert asymptotics_valid(far, pul, -60.0, Side.EARLY)
        assert not asymptotics_valid(far, pul, 0.0, Side.EARLY)
        assert asymptotics_valid(far, pul, 60.0, Side.LATE)
        assert not asymptotics_valid(far, pul, -60.0, Side.LATE)
        # envelope ratio 0.150, coupling parameter 0.041: pins the ratio's bound
        assert not asymptotics_valid(far, pul, 28.5, Side.LATE)

    def test_validity_knows_the_detunings(self):
        # Late side at width 30: at t=+60 the envelope ratio is small but
        # omega_p max(alpha_k, beta_k)/|Delta_k| is 0.42 for BROKEN, where
        # the leading-order tail eigenvalues miss by about 17%.
        pul = pulses(30.0)
        wp, _ = pul.values(60.0)
        assert 4.0 * wp == pytest.approx(0.4216, abs=1e-4)
        assert not asymptotics_valid(BROKEN, pul, 60.0, Side.LATE)
        assert asymptotics_valid(BROKEN, pul, 87.0, Side.LATE)
        # coupling parameter 0.15, envelope ratio 0.015: pins that bound
        assert not asymptotics_valid(LINKED, pul, 63.3, Side.LATE)
        # the envelope-ratio condition still applies
        assert not asymptotics_valid(BROKEN, pul, -87.0, Side.LATE)
        assert asymptotics_valid(BROKEN, pul, -87.0, Side.EARLY)

    def test_validity_ignores_resonant_states(self):
        # RES_DARK's resonant pathway has no detuning to compare with
        assert asymptotics_valid(RES_DARK, pulses(30.0), 87.0, Side.LATE)

    @pytest.mark.parametrize("side", [Side.EARLY, Side.LATE])
    def test_offres_formulas_approach_spectrum(self, side):
        pul = pulses(30.0)
        t = -75.0 if side is Side.EARLY else 75.0  # 2.5 widths out
        wp, ws = pul.values(t)
        pred = asymptotic_eigenvalues(LINKED, wp, ws, side)
        evs, _ = eigendecompose(build_hamiltonian(LINKED, wp, ws))
        for value in (pred.small, *pred.large):
            nearest = evs[np.argmin(np.abs(evs - value))]
            assert abs(nearest - value) <= 0.10 * abs(nearest)

    @pytest.mark.parametrize("side", [Side.EARLY, Side.LATE])
    def test_single_res_formulas_approach_spectrum(self, side):
        pul = pulses(30.0)
        t = -75.0 if side is Side.EARLY else 75.0
        wp, ws = pul.values(t)
        pred = asymptotic_eigenvalues(RES_DARK, wp, ws, side)
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
        match = "^S_b2 vanishes; early asymptotics undefined$"
        with pytest.raises(PreconditionViolated, match=match):
            asymptotic_eigenvalues(BLOCKED, 0.1, 0.9, Side.EARLY)
        match = "^S_a2 vanishes; late asymptotics undefined$"
        with pytest.raises(PreconditionViolated, match=match):
            asymptotic_eigenvalues(PUMP_BLOCKED, 0.9, 0.1, Side.LATE)

    def test_single_resonance_required(self):
        match = "^asymptotics handle zero or one resonant state$"
        with pytest.raises(PreconditionViolated, match=match):
            asymptotic_eigenvalues(DEGEN_NONPROP_2, 0.5, 0.5, Side.EARLY)

    def test_side_must_be_a_side(self):
        # "early" is not Side.EARLY: it once gave the late-side values
        for side in ("early", "late", None):
            with pytest.raises(ValueError, match="side must be a Side"):
                asymptotic_eigenvalues(LINKED, 0.01, 0.5, side)

    def test_huge_field_gives_infinite_large_eigenvalue(self):
        # omega_s^2 once raised Python's OverflowError, outside the error tree
        early = asymptotic_eigenvalues(LINKED, 1e-200, 1e200, Side.EARLY)
        late = asymptotic_eigenvalues(LINKED, 1e200, 1e-200, Side.LATE)
        assert early.large == late.large == (-math.inf,)
        assert early.small == late.small == 0.0

    def test_validity_side_must_be_a_side(self):
        with pytest.raises(ValueError, match="side must be a Side"):
            asymptotics_valid(LINKED, pulses(30.0), -87.0, "early")

    @pytest.mark.parametrize("factor", [1e-100, 1e-150])
    @pytest.mark.parametrize("side", [Side.EARLY, Side.LATE])
    @pytest.mark.parametrize("system", [LINKED, BROKEN, RES_GENERAL], ids=["linked", "broken", "res"])
    def test_tail_eigenvalues_follow_tiny_couplings(self, system, side, factor):
        # Couplings times f: the small eigenvalue scales by f^2, the large
        # ones by f^2 off resonance and by f for the resonance pair.  The
        # residual and the bracket scale by f^4 and underflow to zero here,
        # where they once made the small eigenvalue -0.0.
        wp, ws = (0.01, 0.5) if side is Side.EARLY else (0.5, 0.01)
        scaled = MultiLambdaSystem(
            tuple(a * factor for a in system.alphas),
            tuple(b * factor for b in system.betas),
            system.detunings,
        )
        ref = asymptotic_eigenvalues(system, wp, ws, side)
        got = asymptotic_eigenvalues(scaled, wp, ws, side)
        assert ref.small != 0.0
        # abs=0: pytest.approx's default absolute tolerance dwarfs these values
        assert got.small == pytest.approx(ref.small * factor**2, rel=1e-12, abs=0.0)
        f = factor if system.resonant_indices() else factor**2
        assert got.large == pytest.approx(tuple(x * f for x in ref.large), rel=1e-12, abs=0.0)
