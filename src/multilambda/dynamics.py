"""Time propagation of the transfer dynamics and the degenerate-pair prediction.

The Schrodinger equation i dc/dt = H(t) c is integrated with an explicit
embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients) under a
proportional-integral step controller.  The state is never renormalized:
norm drift is a free accuracy monitor, and a run whose norm leaves the
budget fails loudly instead of being patched up.

One loop serves one point or many: a batch of B points of one dimension is
advanced in lockstep as a ``(B, N+2)`` state, with the six stage generators
-i H(t + c_i h) of a step built in one broadcast.  Each point keeps its own
window, step size, controller memory, audits and stored trajectory, and the
stage and error sums are fixed-order elementwise operations, so a point
takes exactly the steps it takes alone and its result is bitwise the same
in any batch.

The default window spans +-(4*width + delay), where the envelopes are below
e^-16 of their peak, so the asymptotic populations are converged at the
integration tolerances used here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    NormDriftExceeded,
    NumericalError,
    PreconditionViolated,
    ToleranceNotMet,
    ValidationError,
)
from .model import (
    MultiLambdaSystem,
    PulsePair,
    StateVector,
    build_hamiltonian,
    gaussian_envelopes,
    s_sums,
)

__all__ = [
    "IntegratorConfig",
    "PropagationResult",
    "propagate",
    "propagate_batch",
    "pf_degenerate_prediction",
]

# Dormand-Prince 5(4) tableau.  The last stage is evaluated at the step
# endpoint with the 5th-order weights, so it doubles as the first stage of
# the next step (FSAL).  Row i of ``_A`` weights stages 0..i-1.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
# Difference between the 5th- and 4th-order weights, applied to k1..k7.
_E = np.array([
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
])

_SAFETY = 0.9
_BETA = 0.04  # integral gain of the PI controller
_EXPO = 0.2 - 0.75 * _BETA
_MAX_GROW = 10.0
_MAX_SHRINK = 0.2
_NORM_BUDGET = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and storage settings for one propagation.

    ``t_start``/``t_end`` default to the pulse pair's own window and
    ``max_step`` to half the pulse width, which guarantees the controller
    cannot leap over a pulse from the flat tails.  Every ``store_every``-th
    accepted step is kept in the returned trajectory.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_start: float | None = None
    t_end: float | None = None
    max_step: float | None = None
    store_every: int = 10

    def __post_init__(self) -> None:
        values = (self.rel_tol, self.abs_tol, self.t_start, self.t_end, self.max_step)
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError("integrator settings must be finite")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_start is not None and self.t_end is not None and self.t_start >= self.t_end:
            raise ValueError("t_start must precede t_end")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be at least 1")

    def window(self, pulses: PulsePair) -> tuple[float, float]:
        lo, hi = pulses.default_window()
        t0 = self.t_start if self.t_start is not None else lo
        t1 = self.t_end if self.t_end is not None else hi
        if t0 >= t1:
            raise ValidationError(f"propagation window [{t0:g}, {t1:g}] is empty")
        return t0, t1


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Stored trajectory of one propagation, with its step statistics.

    ``trajectory[k]`` is the amplitude vector at ``time_grid[k]``.  The
    transient intermediate population maximum is tracked over every accepted
    step, not only the stored ones.  ``n_rhs`` counts right-hand-side
    evaluations; ``h_min``/``h_max`` are the smallest and largest accepted
    step (the last step, clipped to the window end, included; NaN when no
    step was accepted).
    """

    time_grid: np.ndarray
    trajectory: np.ndarray
    final_pf: float
    final_norm_error: float
    max_intermediate_pop: float
    n_accepted: int
    n_rejected: int
    n_rhs: int
    h_min: float
    h_max: float

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.trajectory) ** 2

    def state(self, k: int) -> StateVector:
        return StateVector(self.trajectory[k])


# Stage times (as fractions of h) of the six stages evaluated per step.
_C_STEP = np.array(_C[1:])
_FAC_LO = 1.0 / _MAX_GROW
_FAC_HI = 1.0 / _MAX_SHRINK


def _initial_state(system: MultiLambdaSystem, initial: StateVector | None) -> np.ndarray:
    if initial is None:
        initial = StateVector.initial(system.n_intermediate)
    if initial.amplitudes.size != system.dimension:
        raise ValueError("initial state dimension does not match the system")
    if abs(initial.norm() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    return initial.amplitudes.astype(complex, copy=True)


def propagate(
    system: MultiLambdaSystem,
    pulses: PulsePair,
    config: IntegratorConfig | None = None,
    initial: StateVector | None = None,
) -> PropagationResult:
    """Integrate the Schrodinger equation across the pulse sequence.

    Starts from ``initial`` (default: all population in the initial state)
    and returns the stored trajectory.  Raises ToleranceNotMet when the step
    controller stalls at the minimum step and NormDriftExceeded when the norm
    leaves 1 by more than 1e-6 at any accepted step.  This is a batch of one
    through :func:`propagate_batch`.
    """
    initials = None if initial is None else [initial]
    return propagate_batch([(system, pulses)], config, initials)[0]


def propagate_batch(
    points: Sequence[tuple[MultiLambdaSystem, PulsePair]],
    config: IntegratorConfig | None = None,
    initials: Sequence[StateVector | None] | None = None,
) -> list[PropagationResult]:
    """Propagate several ``(system, pulses)`` points of one dimension in lockstep.

    Each loop iteration attempts one step of every unfinished point, with the
    state held as one ``(B, N+2)`` array.  Every point keeps its own window,
    step size and controller state, so it takes exactly the steps it takes
    alone, and its result does not depend on the other points of the batch.
    A point drops out of the batch when it reaches its window end.

    When points fail, the error of the first failing point in batch order is
    raised once every point before it has finished, with that point's
    position in its ``point`` attribute; points after it are abandoned.
    """
    cfg = config if config is not None else IntegratorConfig()
    if not points:
        return []
    dims = {system.dimension for system, _ in points}
    if len(dims) != 1:
        raise ValueError("points of one batch must share the system dimension")
    if initials is None:
        initials = [None] * len(points)
    if len(initials) != len(points):
        raise ValueError("need one initial state per point")
    windows = np.array([cfg.window(pulses) for _, pulses in points])
    y = np.array([_initial_state(system, init) for (system, _), init in zip(points, initials)])

    # Per-point constants: H(t) = D + omega_p(t) P + omega_s(t) S.
    d_mat = np.array([build_hamiltonian(system, 0.0, 0.0) for system, _ in points])
    p_mat = np.array([build_hamiltonian(system, 1.0, 0.0) for system, _ in points]) - d_mat
    s_mat = np.array([build_hamiltonian(system, 0.0, 1.0) for system, _ in points]) - d_mat
    omega0 = np.array([[pulses.omega0] for _, pulses in points])
    width = np.array([[pulses.width] for _, pulses in points])
    delay = np.array([[pulses.delay] for _, pulses in points])
    t = windows[:, 0].copy()
    t1 = windows[:, 1].copy()
    max_step = np.array(
        [cfg.max_step if cfg.max_step is not None else 0.5 * p.width for _, p in points]
    )
    h = np.minimum(np.minimum(max_step, width[:, 0] / 20.0), (t1 - t) / 50.0)
    h_floor = 16.0 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(t), np.abs(t1)), 1.0)

    def generators(tc: np.ndarray) -> np.ndarray:
        """-i H at the times ``tc`` (shape (B, m)), shape (m, B, N+2, N+2)."""
        wp, ws = gaussian_envelopes(tc, omega0, width, delay)
        h_stack = wp.T[..., None, None] * p_mat + ws.T[..., None, None] * s_mat + d_mat
        return -1j * h_stack

    def rhs(g: np.ndarray, yi: np.ndarray) -> np.ndarray:
        return np.add.reduce(g * yi[:, None, :], axis=-1)

    size = len(points)
    idx = np.arange(size)
    k0 = rhs(generators(t[:, None])[0], y)
    err_old = np.full(size, 1e-4)
    just_rejected = np.zeros(size, dtype=bool)
    n_acc = np.zeros(size, dtype=int)
    n_rej = np.zeros(size, dtype=int)
    h_lo = np.full(size, np.inf)
    h_hi = np.zeros(size)
    max_mid = (np.abs(y) ** 2)[:, 1:-1].sum(-1)
    times: list[list[float]] = [[float(t0)] for t0 in t]
    states: list[list[np.ndarray]] = [[row.copy()] for row in y]
    results: list[PropagationResult | None] = [None] * size
    failures: dict[int, NumericalError] = {}

    def finish(b: int) -> None:
        p = int(idx[b])
        times[p].append(float(t[b]))
        states[p].append(y[b].copy())
        final_norm_error = abs(float(np.linalg.norm(y[b])) - 1.0)
        if final_norm_error > _NORM_BUDGET:
            failures[p] = NormDriftExceeded(f"final norm drift {final_norm_error:.3e}")
            return
        grid = np.array(times[p])
        traj = np.array(states[p])
        grid.setflags(write=False)
        traj.setflags(write=False)
        accepted, rejected = int(n_acc[b]), int(n_rej[b])
        results[p] = PropagationResult(
            time_grid=grid,
            trajectory=traj,
            final_pf=float(np.abs(y[b, -1]) ** 2),
            final_norm_error=final_norm_error,
            max_intermediate_pop=float(max_mid[b]),
            n_accepted=accepted,
            n_rejected=rejected,
            n_rhs=6 * (accepted + rejected) + 1,  # FSAL: one at the start, six per attempt
            h_min=float(h_lo[b]) if accepted else math.nan,
            h_max=float(h_hi[b]) if accepted else math.nan,
        )

    rejected_before = False  # whether just_rejected has any True entry
    while idx.size:
        h = np.minimum(h, max_step)
        last = t + h >= t1
        any_last = bool(last.any())
        if any_last:
            h = np.where(last, t1 - t, h)
        drop = h < h_floor
        changed = bool(drop.any())
        if changed:
            for b in np.flatnonzero(drop):
                if last[b]:
                    finish(b)  # residual interval is below time resolution
                else:
                    failures[int(idx[b])] = ToleranceNotMet(f"step size underflow at t={t[b]}")
        else:
            hc = h[:, None]
            g = generators(t[:, None] + _C_STEP * hc)
            # Stage and error sums reduce over the stage axis in tableau
            # order with no BLAS call, so each row is independent of the
            # other rows of the batch.
            k = np.empty((7, *y.shape), dtype=complex)
            k[0] = k0
            for i in range(1, 7):
                yi = np.add.reduce(_A[i, :i, None, None] * k[:i], axis=0)
                yi *= hc
                yi += y
                k[i] = rhs(g[i - 1], yi)
            y_new = yi  # stage 7 argument is the 5th-order solution (FSAL)
            err_vec = hc * np.add.reduce(_E[:, None, None] * k, axis=0)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(np.add.reduce(np.abs(err_vec / scale) ** 2, axis=-1) / y.shape[1])

            # PI controller; err == 0 clips to the largest growth factor.
            accepted = err <= 1.0
            every = bool(accepted.all())
            t_next = np.where(last, t1, t + h) if any_last else t + h
            fac11 = err**_EXPO
            fac = np.minimum(np.maximum(fac11 / (err_old**_BETA) / _SAFETY, _FAC_LO), _FAC_HI)
            h_next = h / fac
            if rejected_before:
                h_next = np.where(just_rejected, np.minimum(h_next, h), h_next)
            if every:
                t, y, k0 = t_next, y_new, k[6]
                n_acc += 1
                h_lo = np.minimum(h_lo, h)
                h_hi = np.maximum(h_hi, h)
                err_old = np.maximum(err, 1e-4)
                if rejected_before:
                    just_rejected = np.zeros(idx.size, dtype=bool)
                h = h_next
            else:
                col = accepted[:, None]
                t = np.where(accepted, t_next, t)
                y = np.where(col, y_new, y)
                k0 = np.where(col, k[6], k0)
                n_acc += accepted
                n_rej += ~accepted
                h_lo = np.where(accepted, np.minimum(h_lo, h), h_lo)
                h_hi = np.where(accepted, np.maximum(h_hi, h), h_hi)
                err_old = np.where(accepted, np.maximum(err, 1e-4), err_old)
                just_rejected = ~accepted
                h = np.where(accepted, h_next, h / np.fmin(_FAC_HI, fac11 / _SAFETY))
            rejected_before = not every

            # Audits of the accepted steps: norm budget, intermediate
            # population, stored trajectory, finished points.
            pops = np.abs(y) ** 2
            total = np.add.reduce(pops, axis=-1)
            mid = total - pops[:, 0] - pops[:, -1]
            drift = np.abs(np.sqrt(total) - 1.0)
            stored = n_acc % cfg.store_every == 0
            drop = drift > _NORM_BUDGET
            if every:
                max_mid = np.fmax(max_mid, mid)
            else:
                max_mid = np.where(accepted, np.fmax(max_mid, mid), max_mid)
                stored &= accepted
                drop &= accepted
            if any_last:
                stored &= ~last
            if stored.any():
                for b in np.flatnonzero(stored):
                    times[idx[b]].append(float(t[b]))
                    states[idx[b]].append(y[b].copy())
            if drop.any():
                changed = True
                for b in np.flatnonzero(drop):
                    failures[int(idx[b])] = NormDriftExceeded(
                        f"norm drift {drift[b]:.3e} at t={float(t[b])}"
                    )
            if any_last:
                done = last & accepted & ~drop
                if done.any():
                    changed = True
                    for b in np.flatnonzero(done):
                        finish(b)
                    drop |= done
        if changed:
            if failures:
                drop |= idx > min(failures)
            keep = ~drop
            idx, t, h, t1 = (a[keep] for a in (idx, t, h, t1))
            h_floor, max_step = (a[keep] for a in (h_floor, max_step))
            y, k0, err_old, just_rejected = (a[keep] for a in (y, k0, err_old, just_rejected))
            n_acc, n_rej = n_acc[keep], n_rej[keep]
            h_lo, h_hi, max_mid = (a[keep] for a in (h_lo, h_hi, max_mid))
            omega0, width, delay = (a[keep] for a in (omega0, width, delay))
            d_mat, p_mat, s_mat = (a[keep] for a in (d_mat, p_mat, s_mat))

    if failures:
        first = min(failures)
        exc = failures[first]
        exc.point = first
        raise exc
    return results  # type: ignore[return-value]


def pf_degenerate_prediction(system: MultiLambdaSystem, pulses: PulsePair) -> float:
    """Final-state population when the trapped state is twofold degenerate.

    Valid for proportional couplings whose detuning sums all vanish
    (:meth:`SSums.all_zero`, the test behind ``classify``'s DOUBLE verdict):
    the transfer state shares its zero eigenvalue with a second state, the
    population oscillates between them, and the final transfer is cos^2 of
    the mixing angle weighted by the second state's normalization factor,
    integrated by adaptive quadrature over the pulse pair's default window.
    """
    from scipy.integrate import quad  # SciPy's import cost is paid only here

    s = s_sums(system)  # raises ZeroDetuningInSum for resonant systems
    if not system.is_proportional():
        raise PreconditionViolated("couplings must be proportional")
    if not s.all_zero():
        raise PreconditionViolated("all detuning sums must vanish")
    q = sum(a * a / (d * d) for a, d in zip(system.alphas, system.detunings))
    lo, hi = pulses.default_window()

    def integrand(t: float) -> float:
        wp, ws = pulses.values(t)
        w2 = wp * wp + ws * ws
        if w2 == 0.0:
            return 0.0
        dwp, dws = pulses.derivatives(t)
        theta_dot = (dwp * ws - wp * dws) / w2
        nu = 1.0 / math.sqrt(1.0 + w2 * q)
        return theta_dot * nu

    angle, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-10)
    return math.cos(angle) ** 2
