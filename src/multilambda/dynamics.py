"""Time propagation of the transfer dynamics and the degenerate-pair prediction.

The Schrodinger equation i dc/dt = H(t) c is integrated with an explicit
embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients) under a
proportional-integral step controller.  The state is never renormalized:
norm drift is a free accuracy monitor, and a run whose norm leaves the
budget fails loudly instead of being patched up.

The default window spans +-(4*width + delay), where the envelopes are below
e^-16 of their peak, so the asymptotic populations are converged at the
integration tolerances used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NormDriftExceeded, PreconditionViolated, ToleranceNotMet
from .model import (
    MultiLambdaSystem,
    PulsePair,
    StateVector,
    s_sums,
)

__all__ = [
    "IntegratorConfig",
    "PropagationResult",
    "propagate",
    "pf_degenerate_prediction",
]

# Dormand-Prince 5(4) tableau.  The last stage is evaluated at the step
# endpoint with the 5th-order weights, so it doubles as the first stage of
# the next step (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between the 5th- and 4th-order weights, applied to k1..k7.
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

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
            raise ValueError("propagation window is empty")
        return t0, t1


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Stored trajectory of one propagation.

    ``trajectory[k]`` is the amplitude vector at ``time_grid[k]``.  The
    transient intermediate population maximum is tracked over every accepted
    step, not only the stored ones.
    """

    time_grid: np.ndarray
    trajectory: np.ndarray
    final_pf: float
    final_norm_error: float
    max_intermediate_pop: float
    n_accepted: int
    n_rejected: int

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.trajectory) ** 2

    def state(self, k: int) -> StateVector:
        return StateVector(self.trajectory[k])


def _make_rhs(system: MultiLambdaSystem, pulses: PulsePair):
    al = np.asarray(system.alphas)
    be = np.asarray(system.betas)
    de = np.asarray(system.detunings)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        wp, ws = pulses.values(t)
        mid = y[1:-1]
        dy = np.empty_like(y)
        dy[0] = wp * (al @ mid)
        dy[1:-1] = (wp * y[0]) * al + de * mid + (ws * y[-1]) * be
        dy[-1] = ws * (be @ mid)
        dy *= -1j
        return dy

    return rhs


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
    leaves 1 by more than 1e-6 at any accepted step.
    """
    cfg = config if config is not None else IntegratorConfig()
    t0, t1 = cfg.window(pulses)
    if initial is None:
        y = np.zeros(system.dimension, dtype=complex)
        y[0] = 1.0
    else:
        if initial.amplitudes.size != system.dimension:
            raise ValueError("initial state dimension does not match the system")
        if abs(initial.norm() - 1.0) > 1e-8:
            raise ValueError("initial state must be normalized")
        y = initial.amplitudes.astype(complex, copy=True)

    rhs = _make_rhs(system, pulses)
    max_step = cfg.max_step if cfg.max_step is not None else 0.5 * pulses.width
    h = min(max_step, pulses.width / 20.0, (t1 - t0) / 50.0)
    h_min = 16.0 * np.finfo(float).eps * max(abs(t0), abs(t1), 1.0)

    t = t0
    k = [None] * 7
    k[0] = rhs(t, y)
    err_old = 1e-4
    just_rejected = False
    n_accepted = 0
    n_rejected = 0
    times = [t0]
    states = [y.copy()]
    pops = np.abs(y) ** 2
    max_mid = float(pops[1:-1].sum())

    while t < t1:
        h = min(h, max_step)
        last = t + h >= t1
        if last:
            h = t1 - t
            if h < h_min:
                break  # residual interval is below time resolution
        elif h < h_min:
            raise ToleranceNotMet(f"step size underflow at t={t}")
        for i in range(1, 7):
            yi = y + h * sum(aij * k[j] for j, aij in enumerate(_A[i]) if aij != 0.0)
            k[i] = rhs(t + _C[i] * h, yi)
        y_new = yi  # stage 7 argument is the 5th-order solution (FSAL)
        err_vec = h * sum(e * k[j] for j, e in enumerate(_E) if e != 0.0)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))

        if err <= 1.0:
            t = t1 if last else t + h
            y = y_new
            k[0] = k[6]
            n_accepted += 1
            pops = np.abs(y) ** 2
            total = float(pops.sum())
            drift = abs(math.sqrt(total) - 1.0)
            if drift > _NORM_BUDGET:
                raise NormDriftExceeded(f"norm drift {drift:.3e} at t={t}")
            mid = total - float(pops[0]) - float(pops[-1])
            if mid > max_mid:
                max_mid = mid
            if not last and n_accepted % cfg.store_every == 0:
                times.append(t)
                states.append(y.copy())
            fac11 = err**_EXPO if err > 0 else 1e-10
            fac = fac11 / (err_old**_BETA) / _SAFETY
            fac = min(max(fac, 1.0 / _MAX_GROW), 1.0 / _MAX_SHRINK)
            h_next = h / fac
            if just_rejected:
                h_next = min(h_next, h)
                just_rejected = False
            h = h_next
            err_old = max(err, 1e-4)
        else:
            n_rejected += 1
            just_rejected = True
            fac11 = err**_EXPO
            h = h / min(1.0 / _MAX_SHRINK, fac11 / _SAFETY)

    times.append(t)
    states.append(y.copy())
    grid = np.array(times)
    traj = np.array(states)
    final_norm_error = abs(float(np.linalg.norm(y)) - 1.0)
    if final_norm_error > _NORM_BUDGET:
        raise NormDriftExceeded(f"final norm drift {final_norm_error:.3e}")
    result = PropagationResult(
        time_grid=grid,
        trajectory=traj,
        final_pf=float(np.abs(y[-1]) ** 2),
        final_norm_error=final_norm_error,
        max_intermediate_pop=max_mid,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )
    grid.setflags(write=False)
    traj.setflags(write=False)
    return result


def pf_degenerate_prediction(
    system: MultiLambdaSystem, pulses: PulsePair, window: tuple[float, float] | None = None
) -> float:
    """Final-state population when the trapped state is twofold degenerate.

    Valid for proportional couplings whose common detuning sum vanishes: the
    transfer state then shares its zero eigenvalue with a second state, the
    population oscillates between the two, and the final transfer reduces to
    cos^2 of the accumulated mixing angle weighted by the second state's
    normalization factor.  The integral is evaluated by adaptive quadrature
    over the propagation window.
    """
    s = s_sums(system)  # raises ZeroDetuningInSum for resonant systems
    if not system.is_proportional():
        raise PreconditionViolated("couplings must be proportional")
    if not (abs(s.s_a2) <= 1e-9 and abs(s.s_b2) <= 1e-9 and abs(s.s_ab) <= 1e-9):
        raise PreconditionViolated("all detuning sums must vanish")
    q = sum(a * a / (d * d) for a, d in zip(system.alphas, system.detunings))
    lo, hi = window if window is not None else pulses.default_window()

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
