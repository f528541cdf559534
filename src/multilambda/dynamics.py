"""Time propagation of the transfer dynamics and the degenerate-pair prediction.

The Schrodinger equation i dc/dt = H(t) c is integrated with the explicit
Dormand-Prince 8(5,3) pair of DOP853: twelve stages per step, FSAL, the
combined 5th/3rd-order error estimate and a step-size controller of exponent
1/8 that never grows the step right after a rejection.  The state is never
renormalized: norm drift is a free accuracy monitor, and a run whose norm
leaves the budget fails loudly instead of being patched up.

One loop serves one point or many: a batch of B points of one dimension is
advanced in lockstep as a ``(B, N+2)`` state, with the twelve stage
generators -i H(t + c_i h) of a step built in one broadcast.  Each point
keeps its own window, step size, controller state, audits and stored
trajectory, and the stage and error sums are fixed-order elementwise
operations, so a point takes exactly the steps it takes alone and its result
is bitwise the same in any batch.

The intermediate-population peak falls between accepted steps, which are
long at this order.  The loop keeps the step that ended at the best node and
the size of the step after it; when the point finishes, those two steps are
re-taken for that point alone with DOP853's 7th-order dense output, and the
peak is the maximum of the interpolant.

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

# Dormand-Prince 8(5,3) tableau: the coefficients of DOP853 (Hairer, Norsett
# and Wanner, Solving Ordinary Differential Equations I, sections II.5 and
# II.10).  Row i of ``_A`` weights stages 0..i-1.  Stages 1-11 are the
# interior stages of a step; row 12 gives the 8th-order solution, and its
# stage, evaluated at the step endpoint, doubles as stage 0 of the next step
# (FSAL).  Stages 13-15 are only evaluated to rebuild the dense output.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
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
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)
_A = np.array([row + (0.0,) * (15 - len(row)) for row in ((), *_A_ROWS)])
# ``_E5`` and ``_E3`` are the 5th- and 3rd-order error estimates as weights of
# stages 0..11; ``_D`` weights stages 0..15 in the four highest coefficients
# of the 7th-order dense output.
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
_D = np.array([
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
])

_SAFETY = 0.9
_EXPO = 1 / 8  # 1 / (order of the error estimate + 1)
_MAX_GROW = 6.0
_MAX_SHRINK = 1 / 3
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

    ``trajectory[k]`` is the amplitude vector at ``time_grid[k]``.
    ``max_intermediate_pop`` is the transient maximum of the intermediate
    population: the largest value of the 7th-order dense output on the two
    accepted steps around the best accepted node (sampled, then refined at a
    parabola's vertex), never below that node's value, and independent of
    ``store_every`` and of the batch.  ``n_rhs`` counts the right-hand-side
    evaluations of the propagation, 12 per attempted step plus one; the 32
    or fewer of the peak's refinement are not counted.  ``h_min``/``h_max``
    are the smallest and largest accepted step (the last step, clipped to
    the window end, included; NaN when no step was accepted).
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


# Stage times, as fractions of h, of the twelve stages evaluated per step and
# of the sixteen that rebuild one step's dense output.
_C_STEP = np.array(_C[1:13])
_C_DENSE = np.array(_C)
_E53 = np.array([_E5, _E3])
_FAC_LO = 1.0 / _MAX_GROW
_FAC_HI = 1.0 / _MAX_SHRINK
_TINY = np.finfo(float).tiny
# Fractions of a step at which the dense output is sampled for the peak.
_PEAK_SAMPLES = np.linspace(0.0, 1.0, 9)


def _generators(tc, omega0, width, delay, d_mat, p_mat, s_mat) -> np.ndarray:
    """-i H at the times ``tc`` (shape (B, m)), shape (m, B, N+2, N+2).

    H(t) = D + omega_p(t) P + omega_s(t) S, with the per-point pulse
    parameters (shape (B, 1)) and matrices stacked along the batch axis.
    """
    wp, ws = gaussian_envelopes(tc, omega0, width, delay)
    h_stack = wp.T[..., None, None] * p_mat + ws.T[..., None, None] * s_mat + d_mat
    return -1j * h_stack


def _rhs(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.add.reduce(g * y[:, None, :], axis=-1)


def _stages(k: np.ndarray, y: np.ndarray, hc, g: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Fill stages ``first..stop-1`` of ``k`` and return the last stage's argument.

    ``g[i - 1]`` is the generator at stage i's time.  The stage sums reduce
    over the stage axis in tableau order with no BLAS call, so each row is
    independent of the other rows of the batch.
    """
    for i in range(first, stop):
        yi = np.add.reduce(_A[i, :i, None, None] * k[:i], axis=0)
        yi *= hc
        yi += y
        k[i] = _rhs(g[i - 1], yi)
    return yi


def _mid_population(states: np.ndarray) -> np.ndarray:
    return np.add.reduce((np.abs(states) ** 2)[:, 1:-1], axis=-1)


def _dense_step(consts: tuple, t0: float, y0: np.ndarray, h: float):
    """Re-take one step of size ``h`` from ``(t0, y0)`` with its dense output.

    ``y0`` is one row, shape (1, N+2), and ``consts`` that row's
    Hamiltonian constants.  Returns the endpoint state and the 7th-order
    interpolant, a function of step fractions ``x`` (shape (m,)) giving the
    states at ``t0 + x h``, shape (m, N+2).
    """
    g = _generators(t0 + _C_DENSE[None, :] * h, *consts)
    k = np.empty((16, *y0.shape), dtype=complex)
    k[0] = _rhs(g[0], y0)
    y1 = _stages(k, y0, h, g[1:], 1, 13)
    _stages(k, y0, h, g[1:], 13, 16)
    dy = (y1 - y0)[0]
    f = np.empty((7, y0.shape[1]), dtype=complex)
    f[0] = dy
    f[1] = h * k[0, 0] - dy
    f[2] = 2 * dy - h * (k[12, 0] + k[0, 0])
    f[3:] = h * np.add.reduce(_D[:, :, None] * k[None, :, 0], axis=1)

    def at(x: np.ndarray) -> np.ndarray:
        x = x[:, None]
        acc = np.zeros((x.shape[0], f.shape[1]), dtype=complex)
        for i, fi in enumerate(f[::-1]):
            acc += fi
            acc *= x if i % 2 == 0 else 1.0 - x
        return acc + y0

    return y1, at


def _refined_peak(
    consts: tuple, t0: float, y0: np.ndarray, h_before: float, h_after: float, node_max: float
) -> float:
    """Intermediate-population maximum around the best accepted node.

    Rebuilds the dense output of the step that ended at the node (from
    ``(t0, y0)``, size ``h_before``) and of the step after it (size
    ``h_after``); a size of 0 stands for a step that does not exist.  The
    interpolant is sampled at nine points per step, and at the vertex of the
    parabola through the best sample and its neighbours.  The result is
    never below ``node_max``.
    """
    steps = []
    for h in (h_before, h_after):
        if h > 0:
            y1, at = _dense_step(consts, t0, y0, h)
            steps.append((t0, h, at))
            t0, y0 = t0 + h, y1
    if not steps:
        return node_max
    times, values = [], []
    for j, (ts, h, at) in enumerate(steps):
        x = _PEAK_SAMPLES[1:] if j else _PEAK_SAMPLES  # the shared node once
        times.append(ts + x * h)
        values.append(_mid_population(at(x)))
    tv, pv = np.concatenate(times), np.concatenate(values)
    i = int(np.argmax(pv))
    best = max(node_max, float(pv[i]))
    if 0 < i < tv.size - 1:
        a, b = tv[i] - tv[i - 1], tv[i] - tv[i + 1]
        da, db = pv[i] - pv[i - 1], pv[i] - pv[i + 1]
        den = a * db - b * da
        if den > 0:
            vertex = tv[i] - 0.5 * (a * a * db - b * b * da) / den
            for ts, h, at in steps:
                if ts <= vertex <= ts + h:
                    x = np.array([(vertex - ts) / h])
                    best = max(best, float(_mid_population(at(x))[0]))
                    break
    return best


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
    consts = (omega0, width, delay, d_mat, p_mat, s_mat)
    t = windows[:, 0].copy()
    t1 = windows[:, 1].copy()
    max_step = np.array(
        [cfg.max_step if cfg.max_step is not None else 0.5 * p.width for _, p in points]
    )
    h = np.minimum(np.minimum(max_step, width[:, 0] / 20.0), (t1 - t) / 50.0)
    h_floor = 16.0 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(t), np.abs(t1)), 1.0)

    size = len(points)
    idx = np.arange(size)
    k0 = _rhs(_generators(t[:, None], *consts)[0], y)
    just_rejected = np.zeros(size, dtype=bool)
    n_acc = np.zeros(size, dtype=int)
    n_rej = np.zeros(size, dtype=int)
    h_lo = np.full(size, np.inf)
    h_hi = np.zeros(size)
    max_mid = _mid_population(y)
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
            n_accepted=accepted,
            n_rejected=rejected,
            n_rhs=12 * (accepted + rejected) + 1,  # FSAL: one at the start, twelve per attempt
            h_min=float(h_lo[b]) if accepted else math.nan,
            h_max=float(h_hi[b]) if accepted else math.nan,
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
            hc = h[:, None]
            g = _generators(t[:, None] + _C_STEP * hc, *consts)
            k = np.empty((13, *y.shape), dtype=complex)
            k[0] = k0
            y_new = _stages(k, y, hc, g, 1, 13)  # stage 12's argument: the 8th-order solution
            # DOP853's error, h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), from
            # the two embedded estimates, each divided by the scale.
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            e53 = np.add.reduce(_E53[:, :, None, None] * k[:12], axis=1) / scale
            s5, s3 = np.add.reduce(np.abs(e53) ** 2, axis=-1)
            err = h * s5 / np.sqrt(np.fmax(s5 + 0.01 * s3, _TINY) * y.shape[1])

            # err == 0 clips to the largest growth factor; no growth right
            # after a rejection.
            accepted = err <= 1.0
            every = bool(accepted.all())
            t_next = np.where(last, t1, t + h) if any_last else t + h
            fac8 = err**_EXPO
            fac = np.minimum(np.maximum(fac8 / _SAFETY, _FAC_LO), _FAC_HI)
            h_next = h / fac
            if rejected_before:
                h_next = np.where(just_rejected, np.minimum(h_next, h), h_next)
            t_old, y_old, h_step = t, y, h
            if every:
                t, y, k0 = t_next, y_new, k[12]
                n_acc += 1
                h_lo = np.minimum(h_lo, h)
                h_hi = np.maximum(h_hi, h)
                if rejected_before:
                    just_rejected = np.zeros(idx.size, dtype=bool)
                h = h_next
            else:
                col = accepted[:, None]
                t = np.where(accepted, t_next, t)
                y = np.where(col, y_new, y)
                k0 = np.where(col, k[12], k0)
                n_acc += accepted
                n_rej += ~accepted
                h_lo = np.where(accepted, np.minimum(h_lo, h), h_lo)
                h_hi = np.where(accepted, np.maximum(h_hi, h), h_hi)
                just_rejected = ~accepted
                h = np.where(accepted, h_next, h / np.fmin(_FAC_HI, fac8 / _SAFETY))
            rejected_before = not every

            # Audits of the accepted steps: norm budget, intermediate
            # population, stored trajectory, finished points.
            pops = np.abs(y) ** 2
            total = np.add.reduce(pops, axis=-1)
            mid = total - pops[:, 0] - pops[:, -1]
            drift = np.abs(np.sqrt(total) - 1.0)
            stored = n_acc % cfg.store_every == 0
            drop = drift > _NORM_BUDGET
            better = mid > max_mid
            if not every:
                better &= accepted
                stored &= accepted
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
            y, k0, just_rejected = (a[keep] for a in (y, k0, just_rejected))
            n_acc, n_rej = n_acc[keep], n_rej[keep]
            h_lo, h_hi, max_mid = (a[keep] for a in (h_lo, h_hi, max_mid))
            peak_t, peak_y, peak_h = (a[keep] for a in (peak_t, peak_y, peak_h))
            after_h, waiting = after_h[keep], waiting[keep]
            consts = tuple(a[keep] for a in consts)

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
