"""Analytic feasibility classification for the multi-state transfer problem.

Everything here is algebra on the coupling amplitudes and detunings; no
propagation is performed.  The central question is whether an instantaneous
eigenstate connects the initial state to the final state across the pulse
sequence (an adiabatic-transfer state), and if so whether it is a dark state
(no intermediate admixture at any time) or a general one.

The answers fall into three regimes by the number of exactly resonant
intermediate states (0, 1, >= 2).  Resonance is bitwise zero detuning:
nearly-resonant systems have huge but finite detuning sums and are treated
as off-resonant on purpose.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoCrossing, PreconditionViolated
from .model import MultiLambdaSystem, PulsePair

__all__ = [
    "Regime",
    "ZeroEigenvalue",
    "AtState",
    "AtClassification",
    "classify",
    "at_window_boundaries",
    "no_at_intervals",
    "reduce_degenerate",
    "adiabatic_eliminate",
    "LzEstimate",
    "lz_estimate",
]

class Regime(Enum):
    OFF_RESONANT = "off-resonant"
    SINGLE_RESONANT = "single-resonant"
    DEGENERATE_RESONANT = "degenerate-resonant"


class ZeroEigenvalue(Enum):
    NONE = "none"
    SIMPLE = "simple"
    DOUBLE = "double"
    STRUCTURAL = "structural"


class AtState(Enum):
    EXISTS_DARK = "dark"
    EXISTS_GENERAL = "general"
    NOT_EXISTS = "none"


@dataclass(frozen=True)
class AtClassification:
    """Outcome of the analytic feasibility test.

    ``reason`` is a stable machine-readable code naming the condition that
    decided ``at_state``.  The sums and the resonant states behind the
    verdict are the system's own ``sums`` and ``resonant_indices()``.
    """

    regime: Regime
    zero_eigenvalue: ZeroEigenvalue
    at_state: AtState
    reason: str


def _classify_off_resonant(system: MultiLambdaSystem) -> AtClassification:
    s = system.sums
    if s.all_zero():
        # The transfer state is degenerate with a second zero-eigenvalue
        # state for the whole pulse sequence; population oscillates between
        # them instead of following either.
        return AtClassification(
            Regime.OFF_RESONANT, ZeroEigenvalue.DOUBLE, AtState.NOT_EXISTS,
            "double-zero-eigenvalue",
        )
    zero = ZeroEigenvalue.SIMPLE if s.residual.is_zero() else ZeroEigenvalue.NONE
    if system.is_proportional():
        return AtClassification(
            Regime.OFF_RESONANT, zero, AtState.EXISTS_DARK, "proportional-dark-state"
        )
    if s.a2.is_zero():
        return AtClassification(Regime.OFF_RESONANT, zero, AtState.NOT_EXISTS, "pump-sum-zero")
    if s.b2.is_zero():
        return AtClassification(Regime.OFF_RESONANT, zero, AtState.NOT_EXISTS, "stokes-sum-zero")

    state = AtState.EXISTS_GENERAL if s.crossing() else AtState.NOT_EXISTS
    if s.crossing_is_marginal():
        # Too close to a window boundary to trust the sign; the adiabatic
        # limit is approached too slowly there for the verdict to matter.
        return AtClassification(Regime.OFF_RESONANT, zero, state, "marginal")
    if state is AtState.NOT_EXISTS:
        reason = "detuning-sums-opposite-sign"
    elif zero is ZeroEigenvalue.SIMPLE:
        reason = "zero-eigenvalue-transfer-state"
    else:
        reason = "detuning-sums-same-sign"
    return AtClassification(Regime.OFF_RESONANT, zero, state, reason)


def _classify_single_resonant(system: MultiLambdaSystem, n: int) -> AtClassification:
    simple = system.sums.bracket(system.alphas[n], system.betas[n]).is_zero()
    zero = ZeroEigenvalue.SIMPLE if simple else ZeroEigenvalue.NONE
    # A transfer path through the resonant state exists unconditionally;
    # it is dark exactly when the couplings are proportional.
    if system.is_proportional():
        return AtClassification(
            Regime.SINGLE_RESONANT, zero, AtState.EXISTS_DARK, "proportional-dark-state"
        )
    return AtClassification(
        Regime.SINGLE_RESONANT, zero, AtState.EXISTS_GENERAL, "single-resonant-channel"
    )


def _classify_degenerate(system: MultiLambdaSystem, resonant: tuple[int, ...]) -> AtClassification:
    n0 = len(resonant)
    proportional_res = system.is_proportional(indices=resonant)
    if not proportional_res:
        # Any zero eigenvector decoupled from the lasers needs two linear
        # constraints satisfied inside the resonant subspace: automatic for
        # dimension >= 3, impossible for dimension 2 without proportionality.
        zero = ZeroEigenvalue.STRUCTURAL if n0 >= 3 else ZeroEigenvalue.NONE
        return AtClassification(
            Regime.DEGENERATE_RESONANT,
            zero,
            AtState.NOT_EXISTS,
            "resonant-subspace-not-proportional",
        )
    reduced, _ = reduce_degenerate(system)
    sub = classify(reduced)
    if n0 >= 3:
        zero = ZeroEigenvalue.STRUCTURAL
    elif sub.zero_eigenvalue is ZeroEigenvalue.SIMPLE:
        # One zero from the decoupled resonant combination plus the reduced
        # system's own.
        zero = ZeroEigenvalue.DOUBLE
    else:
        zero = ZeroEigenvalue.SIMPLE
    if sub.at_state is AtState.EXISTS_DARK:
        reason = "proportional-dark-state"
    else:
        reason = "resonant-subspace-proportional"
    return AtClassification(Regime.DEGENERATE_RESONANT, zero, sub.at_state, reason)


def classify(system: MultiLambdaSystem) -> AtClassification:
    """Decide whether an adiabatic-transfer state exists and of which kind.

    Off-resonant systems transfer iff the two detuning-weighted coupling
    sums are both nonzero with the same sign (:meth:`SSums.crossing`); a
    single resonant state always provides a transfer path; several
    degenerate resonant states do iff their couplings are mutually
    proportional (the problem then reduces to the single-resonant one).  The
    zero-eigenvalue field reports the null structure of the Hamiltonian
    while both fields are on.
    """
    resonant = system.resonant_indices()
    if len(resonant) == 0:
        return _classify_off_resonant(system)
    if len(resonant) == 1:
        return _classify_single_resonant(system, resonant[0])
    return _classify_degenerate(system, resonant)


def _sum_roots(weights: np.ndarray, bases: tuple[float, ...]) -> np.ndarray:
    """All zeros of f(x) = sum w_k/(b_k + x), one in each gap between poles.

    With equal bases merged, f(x) = sum_j z_j^2/(x - p_j) over the distinct
    poles p_j = -b_j.  Its zeros are the eigenvalues of diag(p) compressed to
    the complement of z (Golub, SIAM Rev. 15, 318 (1973)), which interlace
    the poles strictly since every z_j > 0.
    """
    poles, inverse = np.unique(-np.asarray(bases), return_inverse=True)
    z = np.sqrt(np.bincount(inverse, weights=weights))
    q = np.linalg.svd(z[None, :])[2][1:]
    return np.linalg.eigvalsh((q * poles) @ q.T)


def at_window_boundaries(
    system: MultiLambdaSystem, lo: float, hi: float
) -> list[float]:
    """Common-detuning values where an existence window opens or closes.

    The system's detunings are treated as bases shifted by a common value x.
    Returned are all roots of either detuning-weighted coupling sum inside
    [lo, hi], sorted ascending; between consecutive boundaries (and poles)
    the existence verdict is constant.  With proportional couplings the two
    sums share their roots, which are found once: two rounded copies of one
    root would bound a spurious window a few ulps wide.  The range must
    satisfy lo < hi; infinite endpoints are allowed, NaN ones are not.
    """
    if not lo < hi:
        raise ValueError("empty detuning range")
    couplings = (system.alphas,) if system.is_proportional() else (system.alphas, system.betas)
    # Scaling all weights of one sum together leaves its roots unchanged, so
    # each coupling vector is divided by a power of two, exactly, before it
    # is squared: the squares of tiny couplings would underflow.
    roots = np.concatenate([
        _sum_roots(np.square(np.ldexp(c, -math.frexp(max(c))[1])), system.detunings)
        for c in couplings
    ])
    return np.unique(roots[(lo <= roots) & (roots <= hi)]).tolist()


def no_at_intervals(
    system: MultiLambdaSystem, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Sub-intervals of the common-detuning range with no transfer state.

    Breakpoints are the window boundaries plus the sum poles; each open
    piece is probed at its midpoint and adjacent failing pieces are merged,
    so both endpoints must be finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("detuning range must be finite")
    boundaries = at_window_boundaries(system, lo, hi)
    poles = sorted({-d for d in system.detunings if lo <= -d <= hi})
    points = sorted({lo, hi, *boundaries, *poles})
    bad: list[tuple[float, float]] = []
    for x0, x1 in zip(points, points[1:]):
        mid = 0.5 * (x0 + x1)
        shifted = system.with_common_detuning(mid)
        if shifted.resonant_indices():
            continue  # midpoint fell on a pole: zero-width piece
        if not shifted.sums.crossing():
            if bad and bad[-1][1] == x0:
                bad[-1] = (bad[-1][0], x1)
            else:
                bad.append((x0, x1))
    return bad


def reduce_degenerate(system: MultiLambdaSystem) -> tuple[MultiLambdaSystem, float]:
    """Collapse the proportional degenerate resonant states into one.

    Returns the reduced system and the coupling boost factor mu: the
    resonant block is replaced, at the position of its first member, by a
    single resonant state with couplings mu*alpha, mu*beta of that member,
    mu = sqrt(sum of squared resonant pump couplings)/alpha_first.  The
    reduction leaves the initial- and final-state dynamics exactly
    unchanged.  A single resonant state is passed through (mu = 1).
    """
    resonant = system.resonant_indices()
    if len(resonant) == 0:
        raise PreconditionViolated("no resonant states to reduce")
    if not system.is_proportional(indices=resonant):
        raise PreconditionViolated("resonant couplings are not proportional; no reduction exists")
    first = resonant[0]
    a1 = system.alphas[first]
    # The couplings over a power of two near the largest, exactly, so no
    # square under- or overflows.
    e = math.frexp(max(system.alphas[k] for k in resonant))[1]
    norm = math.sqrt(sum(math.ldexp(system.alphas[k], -e) ** 2 for k in resonant))
    mu = norm / math.ldexp(a1, -e)
    drop = set(resonant[1:])
    alphas = []
    betas = []
    detunings = []
    for k in range(system.n_intermediate):
        if k in drop:
            continue
        if k == first:
            alphas.append(mu * system.alphas[k])
            betas.append(mu * system.betas[k])
            detunings.append(0.0)
        else:
            alphas.append(system.alphas[k])
            betas.append(system.betas[k])
            detunings.append(system.detunings[k])
    return MultiLambdaSystem(tuple(alphas), tuple(betas), tuple(detunings)), mu


def adiabatic_eliminate(
    system: MultiLambdaSystem, pulses: PulsePair, t: float
) -> np.ndarray:
    """Effective Hamiltonian after eliminating far-detuned states, at time t.

    With no resonant state the result is the 2x2 two-state model over
    (initial, final), with effective detuning h[1, 1] - h[0, 0] and coupling
    h[0, 1]; with exactly one resonant state n it is the 3x3 matrix over
    (initial, n, final) keeping the bare couplings to n.  Uses the
    conventional sign in which the dressed diagonal entries are the
    envelope-squared detuning sums.
    """
    resonant = system.resonant_indices()
    wp, ws = pulses.values(t)
    sa, sb, sab = float(system.sums.a2), float(system.sums.b2), float(system.sums.ab)
    if len(resonant) == 0:
        return np.array(
            [
                [wp * wp * sa, wp * ws * sab],
                [wp * ws * sab, ws * ws * sb],
            ]
        )
    if len(resonant) == 1:
        n = resonant[0]
        an = system.alphas[n]
        bn = system.betas[n]
        return np.array(
            [
                [wp * wp * sa, an * wp, wp * ws * sab],
                [an * wp, 0.0, bn * ws],
                [wp * ws * sab, bn * ws, ws * ws * sb],
            ]
        )
    raise PreconditionViolated("elimination handles zero or one resonant state")


_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_LN_PI = math.log(math.pi)
_LN_MAX = math.log(sys.float_info.max)


def _ln(x: float, shift: int = 0) -> float:
    """log|x 2**shift|, and -inf at zero."""
    return math.log(abs(x)) + shift * _LN2 if x else -math.inf


def _ln_ratio(a: float, b: float, shift: int = 0) -> float:
    """log(a/b 2**shift) for nonzero a, b of one sign, also where a/b under- or overflows."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    return math.log(ma / mb) + (ea - eb + shift) * _LN2


def _exp(x: float) -> float:
    """exp(x), and inf where math.exp would raise OverflowError."""
    return math.exp(x) if x <= _LN_MAX else math.inf


@dataclass(frozen=True)
class LzEstimate:
    """Avoided-crossing adiabaticity estimate.

    ``t_c`` is the crossing time of the effective two-state detuning, ``xi``
    the dimensionless adiabaticity parameter, and ``pf_estimate`` the
    resulting transfer probability 1 - exp(-pi*(omega0*T)^2*xi).
    """

    t_c: float
    xi: float
    pf_estimate: float


def lz_estimate(system: MultiLambdaSystem, pulses: PulsePair) -> LzEstimate:
    """Estimate how fast the transfer becomes adiabatic.

    The effective detuning crosses zero once when both coupling sums share
    a sign; expanding around that crossing gives a Landau-Zener two-state
    problem whose exponent scales with (omega0*T)^2 * xi.  Larger xi means
    the adiabatic limit is reached at smaller pulse areas.  The estimate is
    rough by construction; use it for ordering, not absolute probabilities.
    A resonant system has no off-resonant crossing and raises NoCrossing too.
    For every system and pulse pair the constructors accept, no field is
    NaN, ``xi`` lies in [0, inf] and ``pf_estimate`` in [0, 1].
    """
    if system.resonant_indices():
        raise NoCrossing("resonant state present")
    if not system.sums.crossing():
        raise NoCrossing("effective detuning does not cross zero")
    # The sums as value * 2**exp, so none has under- or overflowed.
    a2, b2, ab = system.sums.a2, system.sums.b2, system.sums.ab
    T = pulses.width
    tau = pulses.delay
    log_ratio = _ln_ratio(b2.value, a2.value, b2.exp - a2.exp)
    # With equal sums the crossing is at t = 0 however large T/tau is.
    ql = T / tau * log_ratio if log_ratio else 0.0
    r = tau / T
    # xi in logarithms: the sums, T/tau and the pulse area may each under- or
    # overflow where xi and the transfer estimate do not.
    ln_xi = (
        _ln_ratio(T, tau) - _LN4
        + 2.0 * _ln(ab.value, ab.exp) - 0.5 * (_ln(a2.value, a2.exp) + _ln(b2.value, b2.exp))
        - 2.0 * r * r - ql * ql / 32.0
    )
    exponent = _exp(_LN_PI + 2.0 * (_ln(pulses.omega0) + math.log(T)) + ln_xi)
    return LzEstimate(t_c=T * ql / 8.0, xi=_exp(ln_xi), pf_estimate=1.0 - math.exp(-exponent))
