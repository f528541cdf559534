"""Time propagation of the transfer dynamics and the degenerate-pair prediction.

The Schrodinger equation i dc/dt = H(t) c is integrated with the explicit
Dormand-Prince 8(5,3) pair of DOP853: twelve stages per step, FSAL, the
combined 5th/3rd-order error estimate and a step-size controller of exponent
1/8 that never grows the step right after a rejection.  The state is never
renormalized: norm drift is a free accuracy monitor, and a run whose norm
leaves the budget fails loudly instead of being patched up.

Every propagation starts with all population in the initial state |i>.  A
state is a plain complex array of N+2 amplitudes: each row of a result's
trajectory, and each row of the batch state.  One loop serves one point or
many: a batch of B points of one dimension is advanced in lockstep as a
``(B, N+2)`` state.  A step builds the real H(t + c_i h) of its twelve
stages in one matmul per point, and each stage costs two more: its argument,
y plus the earlier stages' products H_j y_j weighted by -i h a_ij, and H
times that argument.  Every matmul is batched over the point axis and never
runs across it, so BLAS sees the same shapes for a point in any batch; a
matmul over the flattened points would not, and its tail handling would
make a point's bits depend on the batch.  Each point keeps its own window,
step size, controller state and audits, so a point takes exactly the steps
it takes alone and its result is bitwise the same in any batch.

What a result stores is the entry point's choice, not a setting: one
propagation keeps every accepted node, a batch only each window's two ends.

The intermediate-population peak falls between accepted steps, which are
long at this order.  The loop keeps the step that ended at the best node and
the size of the step after it.  When the point finishes, the peak is sampled
inside those two steps by re-taking, for that point alone, single steps of
fractions of their sizes from their starts: no interpolant, only the step
the loop takes, so any one-step method can refine its peak this way.

Every point runs over its pulse pair's window, +-(4*width + delay), where
the envelopes are below e^-16 of their peak, so the asymptotic populations
are converged at the integration tolerances used here; its step is capped at
half the pulse width.  Neither is a setting.
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
)
from .model import (
    MultiLambdaSystem,
    PulsePair,
    _real,
    build_hamiltonian,
    gaussian_envelopes,
)

__all__ = [
    "IntegratorConfig",
    "PropagationResult",
    "propagate",
    "propagate_batch",
    "pf_degenerate_prediction",
]

# Dormand-Prince 8(5,3) tableau: the coefficients of DOP853 (Hairer, Norsett
# and Wanner, Solving Ordinary Differential Equations I, sections II.5 and
# II.10).  Row i of ``_A`` weights stages 0..i-1.  Stages 1-11 are the
# interior stages of a step; row 12 gives the 8th-order solution, and its
# stage, evaluated at the step endpoint, doubles as stage 0 of the next step
# (FSAL).
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0,
)
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
)
_A = np.array([row + (0.0,) * (12 - len(row)) for row in ((), *_A_ROWS)])
# ``_E5`` and ``_E3`` are the 5th- and 3rd-order error estimates as weights of
# stages 0..11.
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
])

_SAFETY = 0.9
_EXPO = 1 / 8  # 1 / (order of the error estimate + 1)
_MAX_GROW = 6.0
_MAX_SHRINK = 1 / 3
_NORM_BUDGET = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control settings for one propagation.

    The window and the step cap are not settings: each point runs over its
    pulse pair's own window, with its step capped at half the pulse width.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        _real("rel_tol", self.rel_tol)
        _real("abs_tol", self.abs_tol)
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.abs_tol)):
            raise ValueError("integrator settings must be finite")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Stored trajectory of one propagation, with its step statistics.

    ``trajectory[k]`` is the amplitude vector at ``time_grid[k]``, so
    ``np.abs(trajectory) ** 2`` are the populations.  A result of
    :func:`propagate` holds every accepted node, so ``time_grid.size ==
    n_accepted + 1``; a result of :func:`propagate_batch` holds only the
    window's start and end.  ``max_intermediate_pop`` is the transient
    maximum of the intermediate population: the largest value reached by
    single steps re-taken inside the two accepted steps around the best
    accepted node (sampled, then refined at a parabola's vertex), never
    below that node's value, and independent of what is stored and of the
    batch.  ``h_min``/``h_max`` are the smallest and largest accepted step,
    the last step, clipped to the window end, included.
    """

    time_grid: np.ndarray
    trajectory: np.ndarray
    final_pf: float
    final_norm_error: float
    max_intermediate_pop: float
    n_accepted: int
    n_rejected: int
    h_min: float
    h_max: float


# Stage times, as fractions of h, of the twelve stages a step evaluates
# after the FSAL stage.
_C_STEP = np.array(_C[1:])
# The stage slots hold y and the products H_j y_j without the -i, so the -i
# goes into the weights: row i of ``_W`` weights them in stage i's argument
# at h = 1, and ``_MI_E53`` gives the 5th- and 3rd-order error estimates.
_W = np.hstack((np.ones((13, 1)), -1j * _A))
_MI_E53 = -1j * np.array([_E5, _E3])
_FAC_LO = 1.0 / _MAX_GROW
_FAC_HI = 1.0 / _MAX_SHRINK
_TINY = np.finfo(float).tiny
# Sizes, as fractions of an accepted step, of the steps re-taken to sample
# the peak.
_PEAK_SAMPLES = np.linspace(0.0, 1.0, 9)


def _generators(tc, omega0, width, delay, psd) -> np.ndarray:
    """H at the times ``tc`` (shape (B, m)), shape (B, m, N+2, N+2).

    H(t) = omega_p(t) P + omega_s(t) S + D: each point's envelope rows
    ``[omega_p, omega_s, 1]`` times its stacked ``[P; S; D]`` (``psd``,
    shape (B, 3, N+2, N+2)), one matmul per point.
    """
    env = np.empty((*tc.shape, 3))
    env[..., 0], env[..., 1] = gaussian_envelopes(tc, omega0, width, delay)
    env[..., 2] = 1.0
    hs = np.matmul(env, psd.reshape(*psd.shape[:2], -1))
    return hs.reshape(*tc.shape, *psd.shape[2:])


def _rhs(hs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H y for real ``hs`` (shape (B, n, n)) and complex ``y`` (shape (B, n)),
    as one real matmul per point on y's (re, im) pairs."""
    return np.matmul(hs, y.view(float).reshape(*y.shape, 2)).view(complex)[..., 0]


def _weights(h: np.ndarray) -> np.ndarray:
    """Stage weights of the step sizes ``h`` (shape (B,)), shape (B, 13, 13).

    Row i is ``[1, -i h a_i0, ..., -i h a_i,11]``: the weights of y and of
    the products H_j y_j of stages 0..11 in stage i's argument.
    """
    w = h.astype(complex)[:, None, None] * _W
    w[:, :, 0] = 1.0
    return w


def _stages(y: np.ndarray, k0: np.ndarray, w: np.ndarray, hs: np.ndarray) -> tuple:
    """A step's stage slots and stage 12's argument, shape (B, n).

    The slots ``k`` (shape (B, 14, n)) hold y in slot 0, ``k0`` = H_0 y in
    slot 1, and stage j's product H_j y_j, without the -i, in slot j+1.
    ``w`` are the step's :func:`_weights` and ``hs[:, i - 1]`` is H at stage
    i's time.  Each stage is two matmuls batched over the points: its
    argument, the weights of row i times slots 0..i, and H times that
    argument as real (re, im) pairs.  No matmul runs across the point axis,
    so each row's bits are independent of the other rows of the batch.
    """
    size, n = hs.shape[0], y.shape[1]
    k = np.empty((size, 14, n), dtype=complex)
    k[:, 0], k[:, 1] = y, k0
    pairs = k.view(float).reshape(size, 14, n, 2)
    yi = np.empty((size, 1, n), dtype=complex)
    yi_pairs = yi.view(float).reshape(size, n, 2)
    for i in range(1, 13):
        np.matmul(w[:, i : i + 1, : i + 1], k[:, : i + 1], out=yi)
        np.matmul(hs[:, i - 1], yi_pairs, out=pairs[:, i + 1])
    return k, yi[:, 0]


def _mid_population(states: np.ndarray) -> np.ndarray:
    return np.add.reduce((np.abs(states) ** 2)[:, 1:-1], axis=-1)


def _retaken(consts: tuple, t0: float, y0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """States after single steps of the sizes ``h`` (shape (m,)) from ``(t0, y0)``.

    ``y0`` is one row, shape (1, N+2), and ``consts`` that row's
    Hamiltonian constants.  The m steps are the rows of one stage
    evaluation, each the step the loop takes from ``(t0, y0)`` with that
    size; returns their endpoint states, shape (m, N+2).
    """
    k0 = _rhs(_generators(np.array([[t0]]), *consts)[:, 0], y0)
    hs = _generators(t0 + _C_STEP * h[:, None], *consts)
    return _stages(y0, k0, _weights(h), hs)[1]


def _refined_peak(
    consts: tuple, t0: float, y0: np.ndarray, h_before: float, h_after: float, node_max: float
) -> float:
    """Intermediate-population maximum around the best accepted node.

    Re-takes, from the start ``(t0, y0)`` of the step that ended at the node
    (size ``h_before``), single steps of nine fractions of that size, and
    from the node single steps of nine fractions of the step after it (size
    ``h_after``); a size of 0 stands for a step that does not exist.  The
    population is sampled at their ends, and at the vertex of the parabola
    through the best sample and its neighbours, reached by one more step
    from the start of the step it falls in.  The result is never below
    ``node_max``.
    """
    steps, times, values = [], [], []
    for h in (h_before, h_after):
        if h > 0:
            x = _PEAK_SAMPLES[1:] if steps else _PEAK_SAMPLES  # the shared node once
            ends = _retaken(consts, t0, y0, x * h)
            steps.append((t0, y0, h))
            times.append(t0 + x * h)
            values.append(_mid_population(ends))
            t0, y0 = t0 + h, ends[-1:]
    if not steps:
        return node_max
    tv, pv = np.concatenate(times), np.concatenate(values)
    i = int(np.argmax(pv))
    best = max(node_max, float(pv[i]))
    if 0 < i < tv.size - 1:
        a, b = tv[i] - tv[i - 1], tv[i] - tv[i + 1]
        da, db = pv[i] - pv[i - 1], pv[i] - pv[i + 1]
        den = a * db - b * da
        if den > 0:
            vertex = tv[i] - 0.5 * (a * a * db - b * b * da) / den
            for ts, ys, h in steps:
                if ts <= vertex <= ts + h:
                    end = _retaken(consts, ts, ys, np.array([vertex - ts]))
                    best = max(best, float(_mid_population(end)[0]))
                    break
    return best


def propagate(
    system: MultiLambdaSystem,
    pulses: PulsePair,
    config: IntegratorConfig | None = None,
) -> PropagationResult:
    """Integrate the Schrodinger equation across the pulse sequence.

    Starts with all population in the initial state and returns the
    trajectory at every accepted node.  Raises ToleranceNotMet when the step
    controller stalls at the minimum step and NormDriftExceeded when the norm
    leaves 1 by more than 1e-6 at any accepted step.  The point takes the
    steps it takes in :func:`propagate_batch`, and every result field but
    the stored nodes is bitwise the batch's.
    """
    return _lockstep([(system, pulses)], config, every_node=True)[0]


def propagate_batch(
    points: Sequence[tuple[MultiLambdaSystem, PulsePair]],
    config: IntegratorConfig | None = None,
) -> list[PropagationResult]:
    """Propagate several ``(system, pulses)`` points of one dimension in lockstep.

    Each loop iteration attempts one step of every unfinished point, with the
    state held as one ``(B, N+2)`` array.  Every point keeps its own window,
    step size and controller state, so it takes exactly the steps it takes
    alone, and its result does not depend on the other points of the batch.
    A point drops out of the batch when it reaches its window end.  Each
    result stores only the window's two ends: the start and the end state.

    When points fail, the error of the first failing point in batch order is
    raised once every point before it has finished, with that point's
    position in its ``point`` attribute; points after it are abandoned.
    """
    return _lockstep(points, config, every_node=False)


def _lockstep(points, config, every_node: bool) -> list[PropagationResult]:
    """The loop of :func:`propagate_batch`; ``every_node`` stores each accepted node."""
    cfg = config if config is not None else IntegratorConfig()
    if not points:
        return []
    dims = {system.dimension for system, _ in points}
    if len(dims) != 1:
        raise ValueError("points of one batch must share the system dimension")
    size = len(points)
    windows = np.array([pulses.default_window() for _, pulses in points])
    y = np.zeros((size, dims.pop()), dtype=complex)
    y[:, 0] = 1.0

    # Per-point constants: H(t) = D + omega_p(t) P + omega_s(t) S.
    d_mat = np.array([build_hamiltonian(system, 0.0, 0.0) for system, _ in points])
    p_mat = np.array([build_hamiltonian(system, 1.0, 0.0) for system, _ in points]) - d_mat
    s_mat = np.array([build_hamiltonian(system, 0.0, 1.0) for system, _ in points]) - d_mat
    omega0 = np.array([[pulses.omega0] for _, pulses in points])
    width = np.array([[pulses.width] for _, pulses in points])
    delay = np.array([[pulses.delay] for _, pulses in points])
    consts = (omega0, width, delay, np.stack((p_mat, s_mat, d_mat), axis=1))
    t = windows[:, 0].copy()
    t1 = windows[:, 1].copy()
    # Half a width: the controller cannot leap over a pulse from the flat tails.
    max_step = 0.5 * width[:, 0]
    h = width[:, 0] / 20.0
    # Relative to the window, so tiny widths integrate; never below the
    # smallest float, so a step that rounds to 0 is refused, not taken.
    h_floor = np.maximum(
        16.0 * np.finfo(float).eps * np.maximum(np.abs(t), np.abs(t1)),
        np.finfo(float).smallest_subnormal,
    )

    idx = np.arange(size)
    k0 = _rhs(_generators(t[:, None], *consts)[:, 0], y)
    just_rejected = np.zeros(size, dtype=bool)
    # A row in the batch attempts a step per stepping iteration: n_accepted = attempts - n_rej.
    attempts = 0
    n_rej = np.zeros(size, dtype=int)
    h_lo = np.full(size, np.inf)
    h_hi = np.zeros(size)
    max_mid = np.zeros(size)
    # Per row, the accepted step that ended at the node of max_mid (start
    # time, start state, size; size 0 while the start node is the best) and
    # the size of the accepted step after that node.  ``waiting`` marks rows
    # whose best node has no accepted step after it yet.
    peak_t, peak_y, peak_h = t.copy(), y.copy(), np.zeros(size)
    after_h = np.zeros(size)
    waiting = np.ones(size, dtype=bool)
    times: list[list[float]] = [[float(t0)] for t0 in t]
    states: list[list[np.ndarray]] = [[row.copy()] for row in y]
    results: list[PropagationResult | None] = [None] * size
    failures: dict[int, NumericalError] = {}

    def finish(b: int) -> None:
        p = int(idx[b])
        if times[p][-1] != t[b]:  # a node may be the end already
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
        peak = _refined_peak(
            tuple(a[b : b + 1] for a in consts),
            float(peak_t[b]),
            peak_y[b : b + 1],
            float(peak_h[b]),
            0.0 if waiting[b] else float(after_h[b]),
            float(max_mid[b]),
        )
        results[p] = PropagationResult(
            time_grid=grid,
            trajectory=traj,
            final_pf=float(np.abs(y[b, -1]) ** 2),
            final_norm_error=final_norm_error,
            max_intermediate_pop=peak,
            n_accepted=attempts - int(n_rej[b]),
            n_rejected=int(n_rej[b]),
            h_min=float(h_lo[b]),
            h_max=float(h_hi[b]),
        )

    rejected_before = False  # whether just_rejected has any True entry
    waiting_any = True  # whether waiting has any True entry
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
            attempts += 1
            # Tiny tolerances or huge widths overflow the scaled error or the
            # stages to inf or NaN, which the controller below rejects, so
            # NumPy need not warn of it.
            with np.errstate(over="ignore", invalid="ignore"):
                hs = _generators(t[:, None] + _C_STEP * h[:, None], *consts)
                k, y_new = _stages(y, k0, _weights(h), hs)  # y_new: the 8th-order solution
                # DOP853's error, h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), from
                # the two embedded estimates, each divided by the scale.
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                e53 = np.matmul(_MI_E53, k[:, 1:13]) / scale[:, None]
                s5, s3 = np.add.reduce(np.abs(e53) ** 2, axis=-1).T
                err = h * s5 / np.sqrt(np.fmax(s5 + 0.01 * s3, _TINY) * y.shape[1])

            # err == 0 clips to the largest growth factor, NaN to the largest
            # shrink; no growth right after a rejection.
            accepted = err <= 1.0
            every = bool(accepted.all())
            t_next = np.where(last, t1, t + h) if any_last else t + h
            fac = np.fmin(np.maximum(err**_EXPO / _SAFETY, _FAC_LO), _FAC_HI)
            h_next = h / fac
            if rejected_before:
                h_next = np.where(just_rejected, np.minimum(h_next, h), h_next)
            t_old, y_old, h_step = t, y, h
            if every:
                t, y, k0 = t_next, y_new, k[:, 13]
                h_lo = np.minimum(h_lo, h)
                h_hi = np.maximum(h_hi, h)
                if rejected_before:
                    just_rejected = np.zeros(idx.size, dtype=bool)
            else:
                col = accepted[:, None]
                t = np.where(accepted, t_next, t)
                y = np.where(col, y_new, y)
                k0 = np.where(col, k[:, 13], k0)
                n_rej += ~accepted
                h_lo = np.where(accepted, np.minimum(h_lo, h), h_lo)
                h_hi = np.where(accepted, np.maximum(h_hi, h), h_hi)
                just_rejected = ~accepted
            h = h_next
            rejected_before = not every

            # Audits of the accepted steps: norm budget, intermediate
            # population, stored nodes, finished points.
            pops = np.abs(y) ** 2
            total = np.add.reduce(pops, axis=-1)
            mid = total - pops[:, 0] - pops[:, -1]
            drift = np.abs(np.sqrt(total) - 1.0)
            drop = drift > _NORM_BUDGET
            better = mid > max_mid
            if not every:
                better &= accepted
                drop &= accepted
            if waiting_any:
                after_h = np.where(waiting & accepted, h_step, after_h)
                waiting &= ~accepted
            if better.any():
                max_mid = np.where(better, mid, max_mid)
                peak_t = np.where(better, t_old, peak_t)
                peak_y = np.where(better[:, None], y_old, peak_y)
                peak_h = np.where(better, h_step, peak_h)
                waiting |= better
            waiting_any = bool(waiting.any())
            if every_node:  # finish() stores the end
                for b in np.flatnonzero(accepted & ~last):
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
            y, k0, just_rejected = (a[keep] for a in (y, k0, just_rejected))
            n_rej, h_lo, h_hi, max_mid = (a[keep] for a in (n_rej, h_lo, h_hi, max_mid))
            peak_t, peak_y, peak_h = (a[keep] for a in (peak_t, peak_y, peak_h))
            after_h, waiting = after_h[keep], waiting[keep]
            consts = tuple(a[keep] for a in consts)

    if failures:
        first = min(failures)
        exc = failures[first]
        exc.point = first
        raise exc
    return results  # type: ignore[return-value]


# Where the degenerate prediction's integral in x = rate t is cut.
_X_MAX = 40.0


def pf_degenerate_prediction(system: MultiLambdaSystem, pulses: PulsePair) -> float:
    """Final-state population when the trapped state is twofold degenerate.

    Valid for proportional couplings whose detuning sums all vanish
    (:meth:`SSums.all_zero`, the test behind ``classify``'s DOUBLE verdict):
    the transfer state shares its zero eigenvalue with a second state, the
    population oscillates between them, and the final transfer is cos^2 of
    the mixing angle weighted by the second state's normalization factor,
    integrated by adaptive quadrature over the pulse pair's default window.
    For the Gaussian pair the mixing angle, tan(theta) = omega_p/omega_s =
    exp(rate t) with rate = 4 delay/width^2, turns at rate/(2 cosh(rate t))
    whatever omega0 is, and nu is formed by ``hypot``, so the prediction
    does not depend on omega0 where omega_p^2 + omega_s^2 would under- or
    overflow.  The integral is taken in x = rate t, where the turn has unit
    width whatever the width and delay are, and is cut at |x| = 40, where
    the turning rate is below e^-40 of its peak.  With omega0 = 0 no state
    is trapped.
    """
    from scipy.integrate import quad  # SciPy's import cost is paid only here

    resonant = system.resonant_indices()
    if resonant:
        raise PreconditionViolated(f"detuning of intermediate state {resonant[0]} is exactly zero")
    if not system.is_proportional():
        raise PreconditionViolated("couplings must be proportional")
    if not system.sums.all_zero():
        raise PreconditionViolated("all detuning sums must vanish")
    if pulses.omega0 == 0.0:
        raise PreconditionViolated("both envelopes vanish")
    r = math.hypot(*(a / d for a, d in zip(system.alphas, system.detunings)))
    rate = 4.0 * (pulses.delay / pulses.width) / pulses.width

    def integrand(x: float) -> float:
        wp, ws = pulses.values(x / rate)
        e = math.exp(-abs(x))  # 1/(2 cosh x) = e^-|x|/(1 + e^-2|x|), no overflow
        nu = 1.0 / math.hypot(1.0, r * math.hypot(wp, ws))
        return e / (1.0 + e * e) * nu

    lo, hi = (min(max(rate * t, -_X_MAX), _X_MAX) for t in pulses.default_window())
    angle, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-10)
    return math.cos(angle) ** 2
