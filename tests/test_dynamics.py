from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from multilambda import (
    IntegratorConfig,
    MultiLambdaSystem,
    NormDriftExceeded,
    PreconditionViolated,
    PulsePair,
    ToleranceNotMet,
    ZeroEigenvalue,
    build_hamiltonian,
    classify,
    dynamics,
    pf_degenerate_prediction,
    propagate,
    propagate_batch,
)

from cases import (
    AMBIGUOUS,
    BLOCKED,
    BROKEN,
    DARK3,
    DEGEN_REDUCIBLE,
    DOUBLE_ZERO,
    LINKED,
    NON_FINITE,
    PEAK_MID_W30,
    PEAK_MID_W4,
    PF_PREDICTION_DOUBLE_ZERO,
    RES_DARK,
    RES_GENERAL,
    SCAN_BASE,
    TRANSFER,
    pulses,
)


def _reference_pf(system, pul, method="DOP853", rtol=1e-12, atol=1e-13) -> float:
    """Final-state population from an independent integrator."""

    def rhs(t, y):
        h = build_hamiltonian(system, *pul.values(t))
        return -1j * (h @ y)

    lo, hi = pul.default_window()
    y0 = np.zeros(system.dimension, dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (lo, hi), y0, method=method, rtol=rtol, atol=atol)
    assert sol.success
    return float(np.abs(sol.y[-1, -1]) ** 2)


@dataclass(frozen=True)
class WindowedPulses(PulsePair):
    """A pulse pair propagated over ``(lo, hi)`` in place of its own window."""

    lo: float = 0.0
    hi: float = 1e16

    def default_window(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def windowed(width: float, lo: float = 0.0, hi: float = 1e16) -> WindowedPulses:
    """``pulses(width)`` over the window ``(lo, hi)``; the default is wider
    than float time resolution allows to integrate."""
    return WindowedPulses(omega0=1.0, width=width, delay=0.5 * width, lo=lo, hi=hi)


class TestPropagation:
    def test_agrees_with_reference_integrator(self):
        pul = pulses(30.0)
        res = propagate(LINKED, pul)
        assert res.final_pf == pytest.approx(_reference_pf(LINKED, pul), abs=1e-8)

    def test_agrees_with_independent_method(self):
        # the library integrates with DOP853's coefficients; RK45 shares none
        pul = pulses(30.0)
        res = propagate(LINKED, pul)
        assert res.final_pf == pytest.approx(_reference_pf(LINKED, pul, "RK45"), abs=1e-8)

    def test_agrees_with_reference_integrator_at_n16(self):
        # eighteen amplitudes, the widest matrices of the batch tests
        pul = pulses(4.0)
        res = propagate(SIXTEEN, pul)
        assert res.final_pf == pytest.approx(_reference_pf(SIXTEEN, pul), abs=1e-8)

    def test_tableau_is_dop853(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        # the twelve stages of a step and the FSAL stage; SciPy's last three
        # stages serve only its dense output
        assert np.array_equal(dynamics._C, ref.C[:13])
        assert np.array_equal(dynamics._A, ref.A[:13, :12]) and not ref.A[:13, 12:].any()
        for mine, theirs in ((dynamics._E5, ref.E5), (dynamics._E3, ref.E3)):
            assert np.array_equal(mine, theirs[:12]) and theirs[12] == 0.0

    def test_norm_drift_below_budget_at_defaults(self):
        pul = pulses(30.0)
        for sys_ in (LINKED, BROKEN, RES_GENERAL, DARK3):
            res = propagate(sys_, pul)
            assert res.final_norm_error < 1e-9

    def test_result_arrays(self):
        pul = pulses(30.0)
        res = propagate(LINKED, pul)
        lo, hi = pul.default_window()
        assert res.time_grid[0] == lo
        assert res.time_grid[-1] == hi
        assert np.all(np.diff(res.time_grid) > 0)
        assert res.trajectory.shape == (res.time_grid.size, 4)
        assert not res.trajectory.flags.writeable
        assert not res.time_grid.flags.writeable
        pops = np.abs(res.trajectory) ** 2
        assert pops.shape == (res.time_grid.size, 4)
        assert res.final_pf == pytest.approx(pops[-1, -1])
        assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-6)
        assert res.trajectory[0, 0] == pytest.approx(1.0)

    def test_propagate_stores_every_accepted_node(self):
        # the grid's steps are the accepted steps, the last one included
        for res in (propagate(LINKED, pulses(30.0)), propagate(TRANSFER, pulses(2.0))):
            assert res.time_grid.size == res.n_accepted + 1 == res.trajectory.shape[0]
            steps = np.diff(res.time_grid)
            assert steps.max() == pytest.approx(res.h_max, rel=1e-12, abs=0)
            assert steps.min() == pytest.approx(res.h_min, rel=1e-12, abs=0)

    def test_batch_keeps_the_window_ends(self):
        # the start and the end state, nothing in between
        points = [(LINKED, pulses(10.0)), (BROKEN, pulses(5.0))]
        for (_, pul), res in zip(points, propagate_batch(points)):
            assert res.time_grid.tolist() == list(pul.default_window())
            assert res.trajectory.shape == (2, 4)
            assert res.trajectory[0].tolist() == [1, 0, 0, 0]
            assert res.final_pf == np.abs(res.trajectory[1, -1]) ** 2
            assert not (res.time_grid.flags.writeable or res.trajectory.flags.writeable)

    def test_window_end_one_ulp_past_a_node(self):
        # the step to the node is not the last one, and the residual 1 ulp
        # is below time resolution, so the point finishes at that node
        node = propagate(LINKED, pulses(30.0)).time_grid[275]
        pul = windowed(30.0, -135.0, float(np.nextafter(node, np.inf)))
        res = propagate(LINKED, pul)
        assert res.time_grid[-1] == node
        assert np.all(np.diff(res.time_grid) > 0)
        assert res.time_grid.size == res.n_accepted + 1 == res.trajectory.shape[0]

    def test_max_intermediate_population(self):
        systems = {
            "linked": LINKED,
            "res_general": RES_GENERAL,
            "dark3": DARK3,
            "transfer": TRANSFER,
            "broken": BROKEN,
        }
        # at width 4 the accepted steps are long next to the pulse
        for width, pins, rel in ((30.0, PEAK_MID_W30, 1e-9), (4.0, PEAK_MID_W4, 1e-8)):
            pul = pulses(width)
            for name, system in systems.items():
                # every accepted node is stored; the peak between nodes is refined
                res = propagate(system, pul)
                mids = (np.abs(res.trajectory[:, 1:-1]) ** 2).sum(axis=1)
                assert res.max_intermediate_pop >= np.max(mids), name
                assert res.max_intermediate_pop == pytest.approx(pins[name], rel=rel, abs=0), name
                # a batch result stores no node in between, and has the same peak
                batched = propagate_batch([(system, pul)])[0]
                assert batched.max_intermediate_pop == res.max_intermediate_pop, name

    def test_step_rejection_is_exercised(self):
        res = propagate(LINKED, pulses(30.0))
        assert res.n_rejected >= 1
        assert res.final_norm_error < 1e-6


def _assert_same_result(a, b):
    """Bitwise equality of a :func:`propagate` result ``a`` and a batch
    result ``b``: every scalar field, and the window's two ends, which are
    all that ``b`` stores."""
    assert b.time_grid.shape == (2,)
    assert np.array_equal(a.time_grid[[0, -1]], b.time_grid)
    assert np.array_equal(a.trajectory[[0, -1]], b.trajectory)
    assert (a.final_pf, a.final_norm_error, a.max_intermediate_pop) == (
        b.final_pf,
        b.final_norm_error,
        b.max_intermediate_pop,
    )
    assert (a.n_accepted, a.n_rejected, a.h_min, a.h_max) == (
        b.n_accepted,
        b.n_rejected,
        b.h_min,
        b.h_max,
    )


# Ten points on each scan axis: a common-detuning sweep of SCAN_BASE (N=2)
# sharing one pulse pair, and a pulse-width sweep of TRANSFER (N=3) with the
# delay locked to half the width.  Short pulses and tolerances of 1e-7 keep
# them cheap enough to propagate many times, with rejected steps on both.
DETUNING_POINTS = [
    (SCAN_BASE.with_common_detuning(float(v)), pulses(4.0)) for v in np.linspace(-2, 2, 10)
]
WIDTH_POINTS = [(TRANSFER, pulses(float(w))) for w in np.linspace(2.0, 6.0, 10)]
# One pathway, and sixteen with unequal couplings and detunings spread over
# [-1.5, 1.5].
SINGLE = MultiLambdaSystem((1.0,), (1.0,), (1.0,))
SIXTEEN = MultiLambdaSystem(
    tuple(1 + 0.4 * np.sin(np.arange(16))),
    tuple(1 + 0.4 * np.cos(np.arange(16))),
    tuple(np.linspace(-1.5, 1.5, 16)),
)
# Six-point common-detuning sweeps at N = 4, 8, 1 and 16: state vectors of
# 6, 10, 3 and 18 entries.  The BLAS kernels behind the per-point matmuls
# split a matrix into blocks and a tail by its size, so these sizes run
# their main and tail paths.
WIDE_POINTS = [
    [(base.with_common_detuning(float(v)), pulses(4.0)) for v in np.linspace(-2, 2, 6)]
    for base in (DEGEN_REDUCIBLE, AMBIGUOUS, SINGLE, SIXTEEN)
]
CHEAP = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)


class TestBatch:
    @pytest.mark.parametrize(
        "points",
        [DETUNING_POINTS, WIDTH_POINTS, *WIDE_POINTS],
        ids=["detuning", "width", "detuning-n4", "detuning-n8", "detuning-n1", "detuning-n16"],
    )
    def test_chunks_match_single_points_bitwise(self, points):
        single = [propagate(system, pul, CHEAP) for system, pul in points]
        assert sum(res.n_rejected for res in single) >= 1
        for n_chunks in range(1, 11):
            bounds = np.linspace(0, len(points), n_chunks + 1).astype(int)
            batched = []
            for lo, hi in zip(bounds, bounds[1:]):
                batched.extend(propagate_batch(points[lo:hi], CHEAP))
            assert len(batched) == len(single)
            for a, b in zip(single, batched):
                _assert_same_result(a, b)

    def test_step_counters(self):
        # the step is capped at half the pulse width
        for res in propagate_batch(DETUNING_POINTS, CHEAP):
            assert 0.0 < res.h_min <= res.h_max <= 2.0
        res = propagate(LINKED, pulses(30.0))
        assert res.n_rejected >= 1
        assert 0.0 < res.h_min <= res.h_max <= 15.0

    def test_counters_same_alone_and_in_batch(self):
        points = [(LINKED, pulses(30.0)), (BROKEN, pulses(20.0)), (LINKED, pulses(10.0))]
        batched = propagate_batch(points)
        assert sum(res.n_rejected for res in batched) >= 1
        for (system, pul), res in zip(points, batched):
            _assert_same_result(propagate(system, pul), res)

    def test_empty_batch_and_mixed_dimensions(self):
        assert propagate_batch([]) == []
        with pytest.raises(ValueError):
            propagate_batch([(LINKED, pulses(10.0)), (TRANSFER, pulses(10.0))])

    def test_first_failing_point_is_raised(self):
        points = [(system, windowed(pul.width)) for system, pul in DETUNING_POINTS[:3]]
        with pytest.raises(ToleranceNotMet) as info:
            propagate_batch(points)
        assert info.value.point == 0
        assert str(info.value) == "step size underflow at t=0.0"

    def test_lowest_failing_point_is_raised(self):
        # at these tolerances LINKED breaks the norm budget at width 1, not at 0.5
        cfg = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-6)
        good, bad = (LINKED, pulses(0.5)), (LINKED, pulses(1.0))
        with pytest.raises(NormDriftExceeded) as alone:
            propagate(*bad, cfg)
        assert propagate(*good, cfg).final_norm_error < 1e-6
        for points, where in (([good, bad, good], 1), ([bad, good], 0), ([good, bad, bad], 1)):
            with pytest.raises(NormDriftExceeded) as batched:
                propagate_batch(points, cfg)
            assert batched.value.point == where
            assert str(batched.value) == str(alone.value)


class TestFailureModes:
    def test_loose_tolerances_trip_norm_budget(self):
        with pytest.raises(NormDriftExceeded):
            propagate(LINKED, pulses(30.0), IntegratorConfig(rel_tol=5e-2, abs_tol=1e-3))

    def test_step_underflow_reported(self):
        # a window wider than float time resolution cannot be integrated
        with pytest.raises(ToleranceNotMet):
            propagate(LINKED, windowed(30.0))

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_hostile_tolerance_is_tolerance_not_met(self, tol):
        # the scaled error overflows; NumPy's overflow RuntimeWarning once
        # escaped in place of the step size underflow
        with pytest.raises(ToleranceNotMet, match="^step size underflow at t=-45.0$"):
            propagate(LINKED, pulses(10.0), IntegratorConfig(rel_tol=tol, abs_tol=tol))

    @pytest.mark.parametrize("width", [1e100, 1e200, 1e300, 10**23])
    def test_huge_width_is_tolerance_not_met(self, width):
        # the stages overflow; NumPy's overflow RuntimeWarning once escaped
        # in place of the step size underflow.  An integer width beyond
        # int64 made an object array and a TypeError; PulsePair stores floats
        match = f"^step size underflow at t={-4.0 * width}$"
        with pytest.raises(ToleranceNotMet, match=match.replace("+", r"\+")):
            propagate(LINKED, PulsePair(1.0, width, 1.0))

    def test_tiny_widths_integrate(self):
        # the step floor once held an absolute 1.0, so widths below about
        # 7e-14 failed with a step size underflow.  A tiny pulse pair's area
        # goes as the width, so pf goes as width^4.
        tiny, small = (propagate(LINKED, pulses(w)) for w in (1e-14, 1e-12))
        assert tiny.final_pf / small.final_pf == pytest.approx(1e-8, rel=1e-6)
        assert tiny.n_accepted == small.n_accepted == 20

    def test_step_that_rounds_to_zero_is_refused(self):
        # width / 20 rounds to 0.0, and so would a floor relative to the
        # window alone: every zero step was accepted and the loop never ended
        with pytest.raises(ToleranceNotMet, match="^step size underflow at t=-4.4e-323$"):
            propagate(LINKED, PulsePair(1.0, 1e-323, 5e-324))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=-1.0)
        assert IntegratorConfig(rel_tol=np.float64(1e-9)).rel_tol == 1e-9

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_non_finite_refused(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: bad})


class TestDegeneratePrediction:
    def test_pinned_value(self):
        pred = pf_degenerate_prediction(DOUBLE_ZERO, pulses(80.0))
        assert pred == pytest.approx(PF_PREDICTION_DOUBLE_ZERO, abs=1e-6)

    def test_width_independent(self):
        # the rate 4 delay/width^2 once under- or overflowed at extreme widths:
        # a ZeroDivisionError, an OverflowError or a value off by 2e-6
        ref = pf_degenerate_prediction(DOUBLE_ZERO, pulses(80.0))
        for width in (20.0, 1e-300, 1e-160, 1e160, 1e300):
            got = pf_degenerate_prediction(DOUBLE_ZERO, pulses(width))
            assert got == pytest.approx(ref, abs=1e-12), width

    @pytest.mark.parametrize("width", [1e-10, 1.0])
    def test_long_delay_turns_the_angle_fully(self, width):
        # at delay/width = 1e20 the mixing angle turns within a sliver of the
        # window, which quadrature over t never sampled: pf came out as 1.0
        pred = pf_degenerate_prediction(DOUBLE_ZERO, PulsePair(1.0, width, 1e20 * width))
        assert pred < 1e-9

    @pytest.mark.parametrize("width", [20.0, 40.0, 80.0])
    def test_matches_propagation(self, width):
        pul = pulses(width)
        pred = pf_degenerate_prediction(DOUBLE_ZERO, pul)
        res = propagate(DOUBLE_ZERO, pul)
        assert res.final_pf == pytest.approx(pred, abs=5e-3)

    def test_preconditions(self):
        pul = pulses(30.0)
        with pytest.raises(PreconditionViolated, match="^all detuning sums must vanish$"):
            pf_degenerate_prediction(DARK3, pul)
        with pytest.raises(PreconditionViolated, match="^couplings must be proportional$"):
            pf_degenerate_prediction(BLOCKED, pul)
        # divides by the resonant detuning
        match = "^detuning of intermediate state 0 is exactly zero$"
        with pytest.raises(PreconditionViolated, match=match):
            pf_degenerate_prediction(RES_DARK, pul)
        # no field, no trapped state: the prediction was once a perfect 1.0
        with pytest.raises(PreconditionViolated, match="^both envelopes vanish$"):
            pf_degenerate_prediction(DOUBLE_ZERO, pulses(30.0, omega0=0.0))

    def test_independent_of_tiny_omega0(self):
        # omega_p^2 + omega_s^2 underflows near 1e-160 and below; the mixing
        # angle's rate does not depend on omega0, so neither does the result
        ref = pf_degenerate_prediction(DOUBLE_ZERO, pulses(30.0, omega0=1e-100))
        assert ref == pytest.approx(6.0919917e-8, rel=1e-7)
        for omega0 in (1e-160, 1e-200, 5e-324):
            got = pf_degenerate_prediction(DOUBLE_ZERO, pulses(30.0, omega0=omega0))
            assert got == pytest.approx(ref, rel=1e-9)

    def test_independent_of_huge_omega0(self):
        # omega_p^2 + omega_s^2 would overflow near 1e155 and above; nu is
        # formed without squaring an envelope, so no overflow is warned of
        # and a huge omega0 gives what 1e150 gives
        ref = pf_degenerate_prediction(DOUBLE_ZERO, pulses(30.0, omega0=1e150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega0 in (1e200, 1e300):
                assert pf_degenerate_prediction(DOUBLE_ZERO, pulses(30.0, omega0=omega0)) == ref

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e10])
    @pytest.mark.parametrize("system", [DARK3, DOUBLE_ZERO], ids=["dark3", "double_zero"])
    def test_accepts_exactly_the_double_verdict(self, system, scale):
        # the precondition and classify's DOUBLE verdict are one zero test,
        # relative to the detuning scale
        detunings = tuple(scale * d for d in system.detunings)
        scaled = MultiLambdaSystem(system.alphas, system.betas, detunings)
        double = classify(scaled).zero_eigenvalue is ZeroEigenvalue.DOUBLE
        assert double == (system is DOUBLE_ZERO)
        if double:
            assert 0.0 <= pf_degenerate_prediction(scaled, pulses(30.0)) <= 1.0
        else:
            with pytest.raises(PreconditionViolated, match="^all detuning sums must vanish$"):
                pf_degenerate_prediction(scaled, pulses(30.0))
