"""Problem definition for population transfer through parallel intermediate states.

The system couples an initial state ``i`` to a final state ``f`` through N
intermediate states arranged in parallel.  Intermediate state ``k`` sees the
pump field with weight ``alpha_k`` and the Stokes field with weight
``beta_k``; its single-photon detuning is ``delta_k``.  The two-photon
resonance between ``i`` and ``f`` is exact, so the rotating-wave Hamiltonian
is real symmetric with zeros in the ``i`` and ``f`` diagonal slots and no
direct ``i``-``f`` coupling.

Units: the peak Rabi frequency of the pulse pair sets the frequency scale.
Detunings are multiples of it, times are multiples of its inverse.

Basis ordering everywhere in this package: ``(i, 1, ..., N, f)``, so a state
is a plain complex array of N+2 amplitudes.  Intermediate-state indices in
function signatures are 0-based positions into ``alphas``/``betas``/
``detunings``.

The detuning sums behind every verdict are :class:`SSums`, each held once in
a scaled form; ``float()`` gives the plain value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PreconditionViolated

__all__ = [
    "PulsePair",
    "MultiLambdaSystem",
    "SSums",
    "build_hamiltonian",
    "gaussian_envelopes",
    "det_closed_form",
    "dark_state",
    "zero_eigvec_amplitudes",
    "PROPORTIONALITY_RTOL",
]

# Relative tolerance for deciding that coupling ratios alpha_k/beta_k agree.
PROPORTIONALITY_RTOL = 1e-12

# Relative tolerance of SSums' zero tests on detuning-sum expressions.
_ZERO_RTOL = 1e-9


def _real(name: str, value) -> float:
    """``float(value)``; a ValueError naming ``name`` if it is not a real number
    or is an integer too large for a float."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None


def gaussian_envelopes(t, omega0, width, delay):
    """Pump and Stokes envelopes ``(omega_p, omega_s)`` of Gaussian pulses.

    The pump peaks at ``+delay`` and the Stokes pulse at ``-delay``.  All
    arguments broadcast, so stacked pulse parameters give stacked envelopes.
    """
    up = (t - delay) / width
    us = (t + delay) / width
    return omega0 * np.exp(-up * up), omega0 * np.exp(-us * us)


@dataclass(frozen=True)
class PulsePair:
    """Counterintuitively ordered pump and Stokes envelopes.

    The Stokes pulse peaks at ``-delay`` and the pump at ``+delay``, so for
    positive delay the Stokes field comes first.  Both share the peak
    amplitude ``omega0`` and 1/e half-width ``width``.
    """

    omega0: float
    width: float
    delay: float

    def __post_init__(self) -> None:
        for name in ("omega0", "width", "delay"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not all(map(math.isfinite, (self.omega0, self.width, self.delay))):
            raise ValueError("pulse parameters must be finite")
        # omega0 == 0 is allowed as the fields-off limit; negative makes no sense.
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if self.width <= 0:
            raise ValueError("pulse width must be positive")
        if self.delay <= 0:
            raise ValueError("pulse delay must be positive")
        if not math.isfinite(self.default_window()[1]):
            raise ValueError("pulse window must be finite")

    def values(self, t):
        """Return ``(omega_p, omega_s)`` at time ``t`` (scalar or array)."""
        return gaussian_envelopes(t, self.omega0, self.width, self.delay)

    def default_window(self) -> tuple[float, float]:
        """Propagation window wide enough that envelopes are below e^-16 of peak."""
        half = 4.0 * self.width + self.delay  # floats: overflows to inf, never warns
        return (-half, half)


@dataclass(frozen=True)
class MultiLambdaSystem:
    """Static couplings and detunings of one N-pathway system.

    ``alphas[k]`` and ``betas[k]`` are the dimensionless pump and Stokes
    weights of intermediate state k and may be any positive numbers: no
    verdict depends on their scale, nor on the detunings' scale.

    ``sums`` holds the detuning sums over the states with nonzero detuning:
    over all states off resonance, and without the resonant state n when n
    is the one resonance, as the single-resonance formulas take them.  It is
    computed at construction and ignored by equality, hashing and ``repr``.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    detunings: tuple[float, ...]
    sums: SSums = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alphas = tuple(_real("alphas", a) for a in self.alphas)
        betas = tuple(_real("betas", b) for b in self.betas)
        detunings = tuple(_real("detunings", d) for d in self.detunings)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "detunings", detunings)
        n = len(alphas)
        if n == 0:
            raise ValueError("need at least one intermediate state")
        if len(betas) != n or len(detunings) != n:
            raise ValueError("alphas, betas and detunings must have equal length")
        if not all(map(math.isfinite, alphas + betas + detunings)):
            raise ValueError("couplings and detunings must be finite")
        if any(a <= 0 for a in alphas) or any(b <= 0 for b in betas):
            raise ValueError("coupling weights must be positive")
        sums = SSums.over([t for t in zip(alphas, betas, detunings) if t[2] != 0.0])
        if not sums.is_finite():
            raise ValueError("detuning sums over the nonzero detunings must be finite")
        object.__setattr__(self, "sums", sums)

    @property
    def n_intermediate(self) -> int:
        return len(self.alphas)

    @property
    def dimension(self) -> int:
        return len(self.alphas) + 2

    def resonant_indices(self) -> tuple[int, ...]:
        """Indices whose detuning is exactly zero.

        The zero test is bitwise on purpose: a resonance is structural
        information, and near-zero detunings are legitimate off-resonant
        inputs.
        """
        return tuple(k for k, d in enumerate(self.detunings) if d == 0.0)

    def is_proportional(self, indices=None) -> bool:
        """True when alpha_k/beta_k agree (over ``indices`` or all states).

        Each coupling vector is first divided by a power of two, which is
        exact, so no ratio under- or overflows however the two scale apart.
        """
        idx = range(self.n_intermediate) if indices is None else tuple(indices)
        ea, eb = math.frexp(max(self.alphas))[1], math.frexp(max(self.betas))[1]
        ratios = [math.ldexp(self.alphas[k], -ea) / math.ldexp(self.betas[k], -eb) for k in idx]
        ref = ratios[0]
        return all(abs(r - ref) <= PROPORTIONALITY_RTOL * abs(ref) for r in ratios)

    def with_common_detuning(self, shift: float) -> "MultiLambdaSystem":
        """Shift every detuning by the same amount (detuning-scan axis)."""
        return MultiLambdaSystem(self.alphas, self.betas, tuple(d + shift for d in self.detunings))


def _ldexp(x: float, e: int) -> float:
    """x 2**e, and an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


class _Scaled(NamedTuple):
    """A sum and the sum of its terms' magnitudes, both times 2**-exp.

    ``exp`` is the largest binary exponent among the terms, so neither number
    under- or overflows however the couplings and detunings scale.
    """

    value: float
    scale: float
    exp: int

    @classmethod
    def of(cls, terms: list[tuple[float, float, int]]) -> "_Scaled":
        """From ``(m, bound, e)`` terms: m 2**e, of magnitude at most bound 2**e."""
        exp = max((e for _, _, e in terms), default=0)
        value = scale = 0.0
        for m, bound, e in terms:
            value += math.ldexp(m, e - exp)
            scale += math.ldexp(bound, e - exp)
        return cls(value, scale, exp)

    def __float__(self) -> float:
        return _ldexp(self.value, self.exp)

    def ratio(self, other: "_Scaled") -> float:
        """This sum over ``other``, also where either alone under- or overflows."""
        return _ldexp(self.value / other.value, self.exp - other.exp)

    def is_finite(self) -> bool:
        """The sum of the terms' magnitudes is a finite float."""
        return math.isfinite(_ldexp(self.scale, self.exp))

    def is_zero(self) -> bool:
        return abs(self.value) <= _ZERO_RTOL * self.scale


@dataclass(frozen=True)
class SSums:
    """Weighted detuning sums S_a2, S_b2, S_ab and the pair residual.

    ``a2`` sums alpha_k^2/delta_k, ``b2`` sums beta_k^2/delta_k, ``ab`` sums
    alpha_k*beta_k/delta_k and ``residual`` is S_a2*S_b2 - S_ab^2; off
    resonance H has a zero eigenvalue iff it vanishes.  Each is held once,
    scaled so that it neither under- nor overflows: ``float()`` gives the
    plain sum, ``is_zero()`` tests it relative to its terms' magnitudes, and
    every zero and sign test is made on the scaled form, so no verdict
    depends on the scale of the couplings or of the detunings.  A system's
    own sums are ``MultiLambdaSystem.sums``.
    """

    a2: _Scaled
    b2: _Scaled
    ab: _Scaled
    residual: _Scaled

    @classmethod
    def over(cls, terms) -> "SSums":
        """The sums over ``(alpha_k, beta_k, delta_k)`` terms, every delta_k nonzero.

        A non-finite term raises ValueError, a zero delta_k PreconditionViolated.
        Power-of-two scaling is exact, so ``float()`` of each sum is the plain
        sum in term order wherever that neither under- nor overflows.  The
        residual sums (alpha_k beta_l - alpha_l beta_k)^2/(delta_k delta_l)
        over pairs k < l (Lagrange's identity), so a near-resonant delta_k
        costs it no precision.
        """
        parts = [math.frexp(a) + math.frexp(b) + math.frexp(d) for a, b, d in terms]
        if not all(map(math.isfinite, (m for p in parts for m in p[::2]))):
            raise ValueError("detuning-sum terms must be finite")
        if any(md == 0.0 for *_, md, _ in parts):
            raise PreconditionViolated("a detuning sum divides by each detuning")
        a2, b2, ab, pairs = [], [], [], []
        for ma, ea, mb, eb, md, ed in parts:
            x, y, z = ma * ma / md, mb * mb / md, ma * mb / md
            a2.append((x, abs(x), 2 * ea - ed))
            b2.append((y, abs(y), 2 * eb - ed))
            ab.append((z, abs(z), ea + eb - ed))
        for k, (mak, eak, mbk, ebk, mdk, edk) in enumerate(parts):
            for mal, eal, mbl, ebl, mdl, edl in parts[k + 1 :]:
                # alpha_k beta_l and alpha_l beta_k, both times 2**-top
                p, q, shift = mak * mbl, mal * mbk, eak + ebl - eal - ebk
                if shift < 0:
                    p, top = math.ldexp(p, shift), eal + ebk
                else:
                    q, top = math.ldexp(q, -shift), eak + ebl
                minor, bound, dd = p - q, p + q, mdk * mdl
                pairs.append((minor * minor / dd, bound * bound / abs(dd), 2 * top - edk - edl))
        return cls(_Scaled.of(a2), _Scaled.of(b2), _Scaled.of(ab), _Scaled.of(pairs))

    def is_finite(self) -> bool:
        """Every term magnitude sum, the pair residual's included, is a finite float.

        The sums are exact up to rounding, so this refuses only magnitudes
        beyond the largest float, not under- or overflowing intermediate
        products such as alpha_k^2 or delta_k delta_l.
        """
        return all(s.is_finite() for s in (self.a2, self.b2, self.ab, self.residual))

    def all_zero(self) -> bool:
        """All three sums vanish: the zero eigenvalue is twofold degenerate."""
        return self.a2.is_zero() and self.b2.is_zero() and self.ab.is_zero()

    def bracket(self, a: float, b: float) -> _Scaled:
        """a^2 S_b2 - 2ab S_ab + b^2 S_a2: with ``a``, ``b`` the couplings of the
        one resonant state and the sums taken without it, the single-resonance
        zero-eigenvalue expression.
        """
        (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
        return _Scaled.of([
            (ma * ma * self.b2.value, ma * ma * self.b2.scale, 2 * ea + self.b2.exp),
            (-2.0 * ma * mb * self.ab.value, 2.0 * abs(ma * mb) * self.ab.scale,
             ea + eb + self.ab.exp),
            (mb * mb * self.a2.value, mb * mb * self.a2.scale, 2 * eb + self.a2.exp),
        ])

    def crossing(self) -> bool:
        """The off-resonant transfer rule: S_a2 and S_b2 nonzero with one sign.

        Exactly then the effective two-state detuning
        S_b2 omega_s^2 - S_a2 omega_p^2 changes sign across the pulse
        sequence, so a transfer state exists and the avoided crossing is
        defined.
        """
        a2, b2 = self.a2, self.b2
        return not a2.is_zero() and not b2.is_zero() and (a2.value > 0) == (b2.value > 0)

    def crossing_is_marginal(self) -> bool:
        """S_a2 S_b2 is too close to zero for the sign behind :meth:`crossing`
        to be trusted: the product of the two sums' sizes relative to their
        scales is below the zero tolerance, so the system sits on an
        existence-window boundary.
        """
        return abs(self.a2.value * self.b2.value) < _ZERO_RTOL * self.a2.scale * self.b2.scale


def build_hamiltonian(system: MultiLambdaSystem, omega_p, omega_s) -> np.ndarray:
    """Rotating-wave Hamiltonian at given instantaneous envelope values.

    Row/column 0 is the initial state, the last row/column the final state.
    The matrix is exactly symmetric by construction and the two-photon
    resonance keeps H[0, 0], H[-1, -1] and H[0, -1] at zero.  Array envelopes
    give the stack of Hamiltonians, shape ``(*envelope shape, N+2, N+2)``.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    omega_s = np.asarray(omega_s, dtype=float)
    if np.any(omega_p < 0) or np.any(omega_s < 0):
        raise ValueError("envelope values must be nonnegative")
    n = system.n_intermediate
    h = np.zeros(np.broadcast_shapes(omega_p.shape, omega_s.shape) + (n + 2, n + 2))
    pump = omega_p[..., None] * np.asarray(system.alphas)
    stokes = omega_s[..., None] * np.asarray(system.betas)
    h[..., 0, 1 : n + 1] = pump
    h[..., 1 : n + 1, 0] = pump
    h[..., n + 1, 1 : n + 1] = stokes
    h[..., 1 : n + 1, n + 1] = stokes
    h[..., np.arange(1, n + 1), np.arange(1, n + 1)] = system.detunings
    return h


def det_closed_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """det H via the pairwise coupling minors, for any number of resonances.

    det H = omega_p^2 omega_s^2 sum_{k<l} (alpha_k beta_l - alpha_l beta_k)^2
    prod_{j != k, l} Delta_j.  Off resonance this is omega_p^2 omega_s^2
    prod_k Delta_k (S_a2 S_b2 - S_ab^2) with each 1/(Delta_k Delta_l)
    multiplied out, so no factor overflows before another scales it down;
    for the same reason omega_p omega_s is formed before it is squared.  A
    value too large to represent is +-inf.  A resonance Delta_n = 0 removes
    every pair without n: one resonance n leaves the pairs (k, n), two
    resonances m, n leave the single pair (m, n), and three or more leave
    nothing, so det H vanishes identically.
    """
    al, be, de = system.alphas, system.betas, system.detunings
    n = system.n_intermediate
    total = 0.0
    for k in range(n):
        for l in range(k + 1, n):
            d_rest = [d for j, d in enumerate(de) if j != k and j != l]
            if 0.0 in d_rest:
                continue
            total += math.prod(d_rest) * (al[k] * be[l] - al[l] * be[k]) ** 2
    fields = omega_p * omega_s
    return fields * fields * total


def _read_only_state(amps: np.ndarray) -> np.ndarray:
    """``amps`` made read-only; an overflow that left a non-finite amplitude is refused."""
    if not np.isfinite(amps).all():
        raise ValueError("state vector amplitudes must be finite")
    amps.setflags(write=False)
    return amps


def dark_state(system: MultiLambdaSystem, pulses: PulsePair, t: float) -> np.ndarray:
    """Two-component trapped state with no intermediate admixture.

    For proportional couplings this is a zero-eigenvalue eigenstate of the
    Hamiltonian at every instant; it connects ``i`` at early times to ``f``
    at late times through the counterintuitive pulse order.  For a system in
    customary normalization it reads (omega_s/Omega, 0, ..., -omega_p/Omega).
    Returns the N+2 amplitudes as a read-only complex array.  Couplings that
    are not proportional have no such state and raise PreconditionViolated;
    an array ``t`` raises ValueError.
    """
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a scalar time, not an array of shape {np.shape(t)}")
    if not system.is_proportional():
        raise PreconditionViolated("couplings must be proportional")
    wp, ws = pulses.values(t)
    x = system.betas[0] * ws
    y = system.alphas[0] * wp
    if x == 0.0 and y == 0.0:
        raise PreconditionViolated(f"both envelopes vanish at t={t}")
    nrm = math.hypot(x, y)
    amps = np.zeros(system.dimension, dtype=complex)
    amps[0] = x / nrm
    amps[-1] = -y / nrm
    return _read_only_state(amps)


def zero_eigvec_amplitudes(
    system: MultiLambdaSystem,
    pulses: PulsePair,
    t: float,
    a_i: float,
    a_f: float,
) -> np.ndarray:
    """Zero-eigenvalue eigenvector extended to the intermediate states.

    Given end-state amplitudes ``(a_i, a_f)`` that solve the zero-eigenvalue
    end-state equations, each intermediate amplitude follows as
    ``-(alpha_k omega_p a_i + beta_k omega_s a_f) / delta_k``.  The result is
    a normalized, read-only complex array.  The caller is responsible for the
    validity of ``(a_i, a_f)``; the vector is exactly a null vector only when
    the zero-eigenvalue condition holds for the system.  An array ``t``
    raises ValueError.
    """
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a scalar time, not an array of shape {np.shape(t)}")
    if any(d == 0.0 for d in system.detunings):
        raise PreconditionViolated("intermediate amplitudes divide by each detuning")
    wp, ws = pulses.values(t)
    al = np.asarray(system.alphas)
    be = np.asarray(system.betas)
    de = np.asarray(system.detunings)
    mid = -(al * wp * a_i + be * ws * a_f) / de
    amps = np.concatenate(([a_i], mid, [a_f]))
    # Scaled by a power of two to a largest magnitude in [1, 2), so the norm
    # cannot overflow; ordinary amplitudes keep every bit.
    amps = np.ldexp(amps, 1 - math.frexp(np.max(np.abs(amps)))[1]).astype(complex)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("zero end-state amplitudes give an empty vector")
    return _read_only_state(amps / nrm)
