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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoCrossing, NotProportional, PreconditionViolated, WrongResonanceCount
from .model import MultiLambdaSystem, PulsePair, SSums, s_sums

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

_MARGINAL_RTOL = 1e-9


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
    decided ``at_state``.  ``s_sums`` is populated in the off-resonant
    regime only; ``resonant`` lists the indices of exactly resonant states.
    """

    regime: Regime
    zero_eigenvalue: ZeroEigenvalue
    at_state: AtState
    reason: str
    s_sums: SSums | None = None
    resonant: tuple[int, ...] = ()


def _classify_off_resonant(system: MultiLambdaSystem) -> AtClassification:
    s = s_sums(system)
    if s.all_zero():
        # The transfer state is degenerate with a second zero-eigenvalue
        # state for the whole pulse sequence; population oscillates between
        # them instead of following either.
        return AtClassification(
            Regime.OFF_RESONANT, ZeroEigenvalue.DOUBLE, AtState.NOT_EXISTS,
            "double-zero-eigenvalue", s,
        )
    zero = ZeroEigenvalue.SIMPLE if s.residual_is_zero() else ZeroEigenvalue.NONE
    if system.is_proportional():
        return AtClassification(
            Regime.OFF_RESONANT, zero, AtState.EXISTS_DARK, "proportional-dark-state", s
        )
    if s.a2_is_zero():
        return AtClassification(Regime.OFF_RESONANT, zero, AtState.NOT_EXISTS, "pump-sum-zero", s)
    if s.b2_is_zero():
        return AtClassification(Regime.OFF_RESONANT, zero, AtState.NOT_EXISTS, "stokes-sum-zero", s)

    state = AtState.EXISTS_GENERAL if s.crossing() else AtState.NOT_EXISTS
    if abs(s.s_a2 * s.s_b2) < _MARGINAL_RTOL * s.s_a2_scale * s.s_b2_scale:
        # Too close to a window boundary to trust the sign; the adiabatic
        # limit is approached too slowly there for the verdict to matter.
        return AtClassification(Regime.OFF_RESONANT, zero, state, "marginal", s)
    if state is AtState.NOT_EXISTS:
        reason = "detuning-sums-opposite-sign"
    elif zero is ZeroEigenvalue.SIMPLE:
        reason = "zero-eigenvalue-transfer-state"
    else:
        reason = "detuning-sums-same-sign"
    return AtClassification(Regime.OFF_RESONANT, zero, state, reason, s)


def _classify_single_resonant(system: MultiLambdaSystem, n: int) -> AtClassification:
    simple = s_sums(system, excluded=n).bracket_is_zero(system.alphas[n], system.betas[n])
    zero = ZeroEigenvalue.SIMPLE if simple else ZeroEigenvalue.NONE
    # A transfer path through the resonant state exists unconditionally;
    # it is dark exactly when the couplings are proportional.
    if system.is_proportional():
        return AtClassification(
            Regime.SINGLE_RESONANT, zero, AtState.EXISTS_DARK, "proportional-dark-state",
            resonant=(n,),
        )
    return AtClassification(
        Regime.SINGLE_RESONANT, zero, AtState.EXISTS_GENERAL, "single-resonant-channel",
        resonant=(n,),
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
            resonant=resonant,
        )
    reduced, _ = reduce_degenerate(system, resonant)
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
    return AtClassification(
        Regime.DEGENERATE_RESONANT, zero, sub.at_state, reason, resonant=resonant
    )


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


def _sum_roots(weights: tuple[float, ...], bases: tuple[float, ...]) -> list[float]:
    """All zeros of f(x) = sum w_k/(b_k + x).

    f has a pole at -b_k for each distinct base and is strictly decreasing
    between consecutive poles (every term falls), so each inter-pole gap
    holds exactly one root and the outer intervals hold none.
    """
    pole_weight: dict[float, float] = {}
    for w, b in zip(weights, bases):
        pole_weight[-b] = pole_weight.get(-b, 0.0) + w
    poles = sorted(pole_weight)

    def f(x: float) -> float:
        return sum(w / (b + x) for w, b in zip(weights, bases))

    roots: list[float] = []
    for lo_pole, hi_pole in zip(poles, poles[1:]):
        gap = hi_pole - lo_pole
        lo = lo_pole + 1e-12 * gap
        hi = hi_pole - 1e-12 * gap
        flo, fhi = f(lo), f(hi)
        if not (flo > 0 > fhi):
            continue  # offsets swallowed the bracket; gap below resolution
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if fm > 0:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def at_window_boundaries(
    system: MultiLambdaSystem, lo: float, hi: float
) -> list[float]:
    """Common-detuning values where an existence window opens or closes.

    The system's detunings are treated as bases shifted by a common value x.
    Returned are all roots of either detuning-weighted coupling sum inside
    [lo, hi], sorted ascending; between consecutive boundaries (and poles)
    the existence verdict is constant.
    """
    if lo >= hi:
        raise ValueError("empty detuning range")
    al2 = tuple(a * a for a in system.alphas)
    be2 = tuple(b * b for b in system.betas)
    roots = _sum_roots(al2, system.detunings) + _sum_roots(be2, system.detunings)
    out = sorted(r for r in roots if lo <= r <= hi)
    deduped: list[float] = []
    for r in out:
        if not deduped or r != deduped[-1]:
            deduped.append(r)
    return deduped


def no_at_intervals(
    system: MultiLambdaSystem, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Sub-intervals of the common-detuning range with no transfer state.

    Breakpoints are the window boundaries plus the sum poles; each open
    piece is probed at its midpoint and adjacent failing pieces are merged.
    """
    boundaries = at_window_boundaries(system, lo, hi)
    poles = sorted({-d for d in system.detunings if lo <= -d <= hi})
    points = sorted({lo, hi, *boundaries, *poles})
    bad: list[tuple[float, float]] = []
    for x0, x1 in zip(points, points[1:]):
        mid = 0.5 * (x0 + x1)
        shifted = system.with_common_detuning(mid)
        if shifted.resonant_indices():
            continue  # midpoint fell on a pole: zero-width piece
        if not s_sums(shifted).crossing():
            if bad and bad[-1][1] == x0:
                bad[-1] = (bad[-1][0], x1)
            else:
                bad.append((x0, x1))
    return bad


def reduce_degenerate(
    system: MultiLambdaSystem, resonant: tuple[int, ...] | None = None
) -> tuple[MultiLambdaSystem, float]:
    """Collapse proportional degenerate resonant states into one.

    Returns the reduced system and the coupling boost factor mu: the
    resonant block is replaced, at the position of its first member, by a
    single resonant state with couplings mu*alpha, mu*beta of that member,
    mu = sqrt(sum of squared resonant pump couplings)/alpha_first.  The
    reduction leaves the initial- and final-state dynamics exactly
    unchanged.  Passing a single resonant state is allowed (mu = 1).
    """
    if resonant is None:
        resonant = system.resonant_indices()
    if len(resonant) == 0:
        raise PreconditionViolated("no resonant states to reduce")
    for k in resonant:
        if not 0 <= k < system.n_intermediate:
            raise PreconditionViolated(f"index {k} out of range")
        if system.detunings[k] != 0.0:
            raise PreconditionViolated(f"state {k} is not resonant")
    if not system.is_proportional(indices=resonant):
        raise NotProportional(
            "resonant couplings are not proportional; no reduction exists"
        )
    first = resonant[0]
    a1 = system.alphas[first]
    mu = math.sqrt(sum(system.alphas[k] ** 2 for k in resonant)) / a1
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
    reduced = MultiLambdaSystem(
        alphas=tuple(alphas),
        betas=tuple(betas),
        detunings=tuple(detunings),
        enforce_normalization=False,
    )
    return reduced, mu


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
    if len(resonant) == 0:
        s = s_sums(system)
        return np.array(
            [
                [wp * wp * s.s_a2, wp * ws * s.s_ab],
                [wp * ws * s.s_ab, ws * ws * s.s_b2],
            ]
        )
    if len(resonant) == 1:
        n = resonant[0]
        s = s_sums(system, excluded=n)
        an = system.alphas[n]
        bn = system.betas[n]
        return np.array(
            [
                [wp * wp * s.s_a2, an * wp, wp * ws * s.s_ab],
                [an * wp, 0.0, bn * ws],
                [wp * ws * s.s_ab, bn * ws, ws * ws * s.s_b2],
            ]
        )
    raise WrongResonanceCount("elimination handles zero or one resonant state")


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
    """
    s = s_sums(system)
    if not s.crossing():
        raise NoCrossing("effective detuning does not cross zero")
    T = pulses.width
    tau = pulses.delay
    log_ratio = math.log(s.s_b2 / s.s_a2)
    t_c = T * T / (8.0 * tau) * log_ratio
    xi = (
        (T / (4.0 * tau))
        * (s.s_ab * s.s_ab / math.sqrt(s.s_a2 * s.s_b2))
        * math.exp(-2.0 * tau * tau / (T * T) - T * T / (32.0 * tau * tau) * log_ratio**2)
    )
    area = pulses.omega0 * T
    pf = 1.0 - math.exp(-math.pi * area * area * xi)
    return LzEstimate(t_c=t_c, xi=xi, pf_estimate=pf)
