from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from multilambda import (
    IntegratorConfig,
    MultiLambdaSystem,
    NormDriftExceeded,
    PreconditionViolated,
    StateVector,
    ToleranceNotMet,
    ValidationError,
    ZeroEigenvalue,
    build_hamiltonian,
    classify,
    dynamics,
    pf_degenerate_prediction,
    propagate,
    propagate_batch,
)

from cases import (
    BLOCKED,
    BROKEN,
    DARK3,
    DOUBLE_ZERO,
    LINKED,
    NON_FINITE,
    PEAK_MID_W30,
    PF_PREDICTION_DOUBLE_ZERO,
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

    def test_tableau_is_dop853(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(dynamics._C, ref.C)
        assert np.array_equal(dynamics._A, ref.A[:, :15]) and not ref.A[:, 15].any()
        for mine, theirs in ((dynamics._E5, ref.E5), (dynamics._E3, ref.E3)):
            assert np.array_equal(mine, theirs[:12]) and theirs[12] == 0.0
        assert np.array_equal(dynamics._D, ref.D)

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
        pops = res.populations
        assert pops.shape == (res.time_grid.size, 4)
        assert res.final_pf == pytest.approx(pops[-1, -1])
        assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-6)
        assert res.trajectory[0, 0] == pytest.approx(1.0)

    def test_store_every_controls_grid_density(self):
        pul = pulses(30.0)
        dense = propagate(LINKED, pul, IntegratorConfig(store_every=1))
        sparse = propagate(LINKED, pul, IntegratorConfig(store_every=25))
        assert dense.time_grid.size > sparse.time_grid.size
        assert dense.final_pf == pytest.approx(sparse.final_pf, abs=1e-12)
        # every accepted step is stored in the dense run
        assert dense.time_grid.size == dense.n_accepted + 1

    def test_custom_window(self):
        res = propagate(LINKED, pulses(30.0), IntegratorConfig(t_start=-50.0, t_end=50.0))
        assert res.time_grid[0] == -50.0
        assert res.time_grid[-1] == 50.0

    def test_custom_initial_state(self):
        pul = pulses(30.0)
        amps = np.zeros(4, dtype=complex)
        amps[-1] = 1.0
        res = propagate(LINKED, pul, initial=StateVector(amps))
        assert res.final_norm_error < 1e-6
        assert res.populations[0, -1] == pytest.approx(1.0)

    def test_initial_state_validation(self):
        pul = pulses(30.0)
        with pytest.raises(ValueError):
            propagate(LINKED, pul, initial=StateVector(np.zeros(5, dtype=complex)))
        bad = np.zeros(4, dtype=complex)
        bad[0] = 0.7
        with pytest.raises(ValueError):
            propagate(LINKED, pul, initial=StateVector(bad))

    def test_max_intermediate_population(self):
        pul = pulses(30.0)
        systems = {
            "linked": LINKED,
            "res_general": RES_GENERAL,
            "dark3": DARK3,
            "transfer": TRANSFER,
            "broken": BROKEN,
        }
        for name, system in systems.items():
            # every accepted node is stored; the peak between nodes is refined
            res = propagate(system, pul, IntegratorConfig(store_every=1))
            mids = res.populations[:, 1:-1].sum(axis=1)
            assert res.max_intermediate_pop >= np.max(mids), name
            assert res.max_intermediate_pop == pytest.approx(
                PEAK_MID_W30[name], rel=1e-9, abs=0
            ), name
            assert propagate(system, pul).max_intermediate_pop == res.max_intermediate_pop, name

    def test_step_rejection_is_exercised(self):
        res = propagate(LINKED, pulses(30.0), IntegratorConfig(max_step=60.0))
        assert res.n_rejected >= 1
        assert res.final_norm_error < 1e-6


def _assert_same_result(a, b):
    """Bitwise equality of two propagation results."""
    assert np.array_equal(a.time_grid, b.time_grid)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert (a.final_pf, a.final_norm_error, a.max_intermediate_pop) == (
        b.final_pf,
        b.final_norm_error,
        b.max_intermediate_pop,
    )
    assert (a.n_accepted, a.n_rejected, a.n_rhs, a.h_min, a.h_max) == (
        b.n_accepted,
        b.n_rejected,
        b.n_rhs,
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
CHEAP = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)


class TestBatch:
    @pytest.mark.parametrize("points", [DETUNING_POINTS, WIDTH_POINTS], ids=["detuning", "width"])
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
        cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9, max_step=0.5)
        for res in propagate_batch(DETUNING_POINTS, cfg):
            # twelve stages per attempt; the peak refinement is not counted
            assert res.n_rhs == 12 * (res.n_accepted + res.n_rejected) + 1
            assert 0.0 < res.h_min <= res.h_max <= 0.5
        res = propagate(LINKED, pulses(30.0), IntegratorConfig(max_step=60.0))
        assert res.n_rejected >= 1
        assert res.n_rhs == 12 * (res.n_accepted + res.n_rejected) + 1
        assert res.h_min <= res.h_max <= 60.0
        # the default cap is half the pulse width
        res = propagate(LINKED, pulses(30.0))
        assert res.h_max <= 15.0

    def test_counters_same_alone_and_in_batch(self):
        cfg = IntegratorConfig(max_step=60.0)  # forces rejected steps
        points = [(LINKED, pulses(30.0)), (BROKEN, pulses(20.0)), (LINKED, pulses(10.0))]
        batched = propagate_batch(points, cfg)
        assert sum(res.n_rejected for res in batched) >= 1
        for (system, pul), res in zip(points, batched):
            _assert_same_result(propagate(system, pul, cfg), res)

    def test_initial_states_per_point(self):
        pul = pulses(10.0)
        amps = np.zeros(4, dtype=complex)
        amps[-1] = 1.0
        final = StateVector(amps)
        a, b = propagate_batch([(LINKED, pul), (LINKED, pul)], initials=[None, final])
        _assert_same_result(a, propagate(LINKED, pul))
        _assert_same_result(b, propagate(LINKED, pul, initial=final))
        with pytest.raises(ValueError):
            propagate_batch([(LINKED, pul)], initials=[None, None])

    def test_empty_batch_and_mixed_dimensions(self):
        assert propagate_batch([]) == []
        with pytest.raises(ValueError):
            propagate_batch([(LINKED, pulses(10.0)), (TRANSFER, pulses(10.0))])

    def test_first_failing_point_is_raised(self):
        cfg = IntegratorConfig(t_start=0.0, t_end=1e16)
        with pytest.raises(ToleranceNotMet) as info:
            propagate_batch(DETUNING_POINTS[:3], cfg)
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
            propagate(LINKED, pulses(30.0), IntegratorConfig(t_start=0.0, t_end=1e16))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_start=1.0, t_end=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(store_every=0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "t_start", "t_end", "max_step"])
    def test_non_finite_refused(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: bad})

    def test_empty_window_is_a_validation_error(self):
        # the default window of width 30 ends at 135, before t_start
        with pytest.raises(ValidationError, match=r"\[200, 135\] is empty"):
            IntegratorConfig(t_start=200.0).window(pulses(30.0))
        with pytest.raises(ValidationError, match=r"\[-135, -150\] is empty"):
            propagate(LINKED, pulses(30.0), IntegratorConfig(t_end=-150.0))


class TestDegeneratePrediction:
    def test_pinned_value(self):
        pred = pf_degenerate_prediction(DOUBLE_ZERO, pulses(80.0))
        assert pred == pytest.approx(PF_PREDICTION_DOUBLE_ZERO, abs=1e-6)

    def test_width_independent(self):
        a = pf_degenerate_prediction(DOUBLE_ZERO, pulses(20.0))
        b = pf_degenerate_prediction(DOUBLE_ZERO, pulses(80.0))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("width", [20.0, 40.0, 80.0])
    def test_matches_propagation(self, width):
        pul = pulses(width)
        pred = pf_degenerate_prediction(DOUBLE_ZERO, pul)
        res = propagate(DOUBLE_ZERO, pul)
        assert res.final_pf == pytest.approx(pred, abs=5e-3)

    def test_preconditions(self):
        pul = pulses(30.0)
        with pytest.raises(PreconditionViolated):
            pf_degenerate_prediction(DARK3, pul)  # sums do not vanish
        with pytest.raises(PreconditionViolated):
            pf_degenerate_prediction(BLOCKED, pul)  # not proportional

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
            with pytest.raises(PreconditionViolated):
                pf_degenerate_prediction(scaled, pulses(30.0))
