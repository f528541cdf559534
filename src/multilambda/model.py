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
vector has N+2 complex amplitudes.  Intermediate-state indices in function
signatures are 0-based positions into ``alphas``/``betas``/``detunings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BothEnvelopesZero, ZeroDetuningInSum

__all__ = [
    "PulsePair",
    "MultiLambdaSystem",
    "StateVector",
    "SSums",
    "build_hamiltonian",
    "gaussian_envelopes",
    "s_sums",
    "det_closed_form",
    "det_offres_sum_form",
    "det_single_res_sum_form",
    "det_pair_form",
    "dark_state",
    "zero_eigvec_amplitudes",
    "PROPORTIONALITY_RTOL",
]

# Relative tolerance for deciding that coupling ratios alpha_k/beta_k agree.
PROPORTIONALITY_RTOL = 1e-12

# Relative tolerance of SSums' zero tests on detuning-sum expressions.
_ZERO_RTOL = 1e-9


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
        if not all(map(math.isfinite, (self.omega0, self.width, self.delay))):
            raise ValueError("pulse parameters must be finite")
        # omega0 == 0 is allowed as the fields-off limit; negative makes no sense.
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if self.width <= 0:
            raise ValueError("pulse width must be positive")
        if self.delay <= 0:
            raise ValueError("pulse delay must be positive")

    def values(self, t):
        """Return ``(omega_p, omega_s)`` at time ``t`` (scalar or array)."""
        return gaussian_envelopes(t, self.omega0, self.width, self.delay)

    def derivatives(self, t):
        """Time derivatives of the two envelopes at ``t``."""
        wp, ws = self.values(t)
        return (
            wp * (-2.0 * (t - self.delay) / self.width**2),
            ws * (-2.0 * (t + self.delay) / self.width**2),
        )

    def default_window(self) -> tuple[float, float]:
        """Propagation window wide enough that envelopes are below e^-16 of peak."""
        half = 4.0 * self.width + self.delay
        return (-half, half)


@dataclass(frozen=True)
class MultiLambdaSystem:
    """Static couplings and detunings of one N-pathway system.

    ``alphas[k]`` and ``betas[k]`` are the dimensionless pump and Stokes
    weights of intermediate state k and must be positive.  The customary
    normalization fixes ``alphas[0] == betas[0] == 1``; systems produced by
    degenerate-manifold reduction carry a rescaled first coupling, and those
    are built with ``enforce_normalization=False``.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    detunings: tuple[float, ...]
    enforce_normalization: bool = field(default=True, repr=False, compare=False, kw_only=True)

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alphas)
        betas = tuple(float(b) for b in self.betas)
        detunings = tuple(float(d) for d in self.detunings)
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
        if self.enforce_normalization and (alphas[0] != 1.0 or betas[0] != 1.0):
            raise ValueError("first coupling pair must be normalized to 1")
        if not SSums.over([t for t in zip(alphas, betas, detunings) if t[2] != 0.0]).is_finite():
            raise ValueError("detuning sums over the nonzero detunings must be finite")

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
        """True when alpha_k/beta_k agree (over ``indices`` or all states)."""
        idx = range(self.n_intermediate) if indices is None else tuple(indices)
        ratios = [self.alphas[k] / self.betas[k] for k in idx]
        ref = ratios[0]
        return all(abs(r - ref) <= PROPORTIONALITY_RTOL * abs(ref) for r in ratios)

    def with_common_detuning(self, shift: float) -> "MultiLambdaSystem":
        """Shift every detuning by the same amount (detuning-scan axis)."""
        return MultiLambdaSystem(
            self.alphas,
            self.betas,
            tuple(d + shift for d in self.detunings),
            enforce_normalization=False,
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable N+2 component amplitude vector in the ``(i, 1..N, f)`` basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("state vector needs at least 3 amplitudes in one dimension")
        if not np.isfinite(arr).all():
            raise ValueError("state vector amplitudes must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def initial(cls, n_intermediate: int) -> "StateVector":
        amps = np.zeros(n_intermediate + 2, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    @property
    def n_intermediate(self) -> int:
        return self.amplitudes.size - 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class SSums:
    """Weighted detuning sums S_a2, S_b2, S_ab, and the one zero test on them.

    ``s_a2`` sums alpha_k^2/delta_k, ``s_b2`` sums beta_k^2/delta_k and
    ``s_ab`` sums alpha_k*beta_k/delta_k.  When ``excluded_index`` is set the
    term of that intermediate state is omitted (used around a resonant state).
    The ``*_scale`` fields hold the corresponding sums of term magnitudes, and
    ``terms`` the ``(alpha_k, beta_k, delta_k)`` summed over.  Every test that
    a sum, the residual or the bracket vanishes is made here, relative to the
    sum of its terms' magnitudes, so no verdict depends on the detuning scale.
    """

    s_a2: float
    s_b2: float
    s_ab: float
    excluded_index: int | None = None
    s_a2_scale: float = 0.0
    s_b2_scale: float = 0.0
    s_ab_scale: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()

    @classmethod
    def over(cls, terms, excluded: int | None = None) -> "SSums":
        """The sums over ``(alpha_k, beta_k, delta_k)`` terms, every delta_k nonzero."""
        sa = sb = sab = 0.0
        sa_m = sb_m = sab_m = 0.0
        for a, b, d in terms:
            sa += a * a / d
            sb += b * b / d
            sab += a * b / d
            sa_m += abs(a * a / d)
            sb_m += abs(b * b / d)
            sab_m += abs(a * b / d)
        return cls(sa, sb, sab, excluded, sa_m, sb_m, sab_m, tuple(terms))

    def is_finite(self) -> bool:
        """Every term magnitude sum, the pair residual's included, is a finite float."""
        try:  # delta_k * delta_l may underflow to zero
            scales = (self.s_a2_scale, self.s_b2_scale, self.s_ab_scale, self._residual_terms()[1])
        except ZeroDivisionError:
            return False
        return all(map(math.isfinite, scales))

    def a2_is_zero(self) -> bool:
        return abs(self.s_a2) <= _ZERO_RTOL * self.s_a2_scale

    def b2_is_zero(self) -> bool:
        return abs(self.s_b2) <= _ZERO_RTOL * self.s_b2_scale

    def ab_is_zero(self) -> bool:
        return abs(self.s_ab) <= _ZERO_RTOL * self.s_ab_scale

    def all_zero(self) -> bool:
        """All three sums vanish: the zero eigenvalue is twofold degenerate."""
        return self.a2_is_zero() and self.b2_is_zero() and self.ab_is_zero()

    def _residual_terms(self) -> tuple[float, float]:
        """Residual and zero-test scale as sums over pairs k < l (Lagrange's
        identity): (alpha_k beta_l - alpha_l beta_k)^2/(delta_k delta_l).  The
        alpha_k^2 beta_k^2/delta_k^2 terms, which cancel exactly in the product
        of sums, never appear, so a near-resonant delta_k costs no precision.
        """
        value = scale = 0.0
        for k, (ak, bk, dk) in enumerate(self.terms):
            for al, bl, dl in self.terms[k + 1 :]:
                minor = ak * bl - al * bk
                value += minor * minor / (dk * dl)
                bound = abs(ak * bl) + abs(al * bk)
                scale += bound * bound / abs(dk * dl)
        return value, scale

    def residual(self) -> float:
        """S_a2*S_b2 - S_ab^2; off resonance H has a zero eigenvalue iff it vanishes."""
        return self._residual_terms()[0]

    def residual_is_zero(self) -> bool:
        value, scale = self._residual_terms()
        return abs(value) <= _ZERO_RTOL * scale

    def bracket(self, a: float, b: float) -> float:
        """a^2 S_b2 - 2ab S_ab + b^2 S_a2: with ``a``, ``b`` the couplings of the
        one resonant state and the sums taken without it, the single-resonance
        zero-eigenvalue expression.
        """
        return a * a * self.s_b2 - 2.0 * a * b * self.s_ab + b * b * self.s_a2

    def bracket_is_zero(self, a: float, b: float) -> bool:
        cross = 2.0 * abs(a * b) * self.s_ab_scale
        scale = a * a * self.s_b2_scale + cross + b * b * self.s_a2_scale
        return abs(self.bracket(a, b)) <= _ZERO_RTOL * scale

    def crossing(self) -> bool:
        """The off-resonant transfer rule: S_a2 and S_b2 nonzero with one sign.

        Exactly then the effective two-state detuning
        S_b2 omega_s^2 - S_a2 omega_p^2 changes sign across the pulse
        sequence, so a transfer state exists and the avoided crossing is
        defined.
        """
        return not self.a2_is_zero() and not self.b2_is_zero() and self.s_a2 * self.s_b2 > 0


def s_sums(system: MultiLambdaSystem, excluded: int | None = None) -> SSums:
    """Compute the three detuning sums, optionally omitting one state.

    Raises ZeroDetuningInSum when a contributing detuning is exactly zero;
    resonant states must be excluded explicitly.
    """
    for k, d in enumerate(system.detunings):
        if d == 0.0 and k != excluded:
            raise ZeroDetuningInSum(
                f"detuning of intermediate state {k} is exactly zero; "
                "exclude it or use the resonant formulas"
            )
    terms = zip(system.alphas, system.betas, system.detunings)
    return SSums.over([t for k, t in enumerate(terms) if k != excluded], excluded)


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


def det_offres_sum_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """det H for no resonant state, via the detuning sums."""
    residual = s_sums(system).residual()
    return omega_p**2 * omega_s**2 * math.prod(system.detunings) * residual


def det_single_res_sum_form(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, n: int
) -> float:
    """det H with state ``n`` resonant, via the excluded detuning sums."""
    bracket = s_sums(system, excluded=n).bracket(system.alphas[n], system.betas[n])
    d_rest = math.prod(d for k, d in enumerate(system.detunings) if k != n)
    return omega_p**2 * omega_s**2 * d_rest * bracket


def det_pair_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """det H via the pairwise coupling minors, for any number of resonances.

    det H = omega_p^2 omega_s^2 sum_{k<l} (alpha_k beta_l - alpha_l beta_k)^2
    prod_{j != k, l} Delta_j.  A resonance Delta_n = 0 removes every pair
    without n: one resonance n leaves the pairs (k, n), two resonances m, n
    leave the single pair (m, n), and three or more leave nothing, so det H
    vanishes identically.
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
    return omega_p**2 * omega_s**2 * total


def det_closed_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """Closed form of det H, dispatching on the number of exact resonances.

    No resonance and one resonance use the detuning-sum forms; two or more
    use the pair form, which keeps only the pair of the two resonant states
    and is identically zero from three on.
    """
    res = system.resonant_indices()
    if len(res) == 0:
        return det_offres_sum_form(system, omega_p, omega_s)
    if len(res) == 1:
        return det_single_res_sum_form(system, omega_p, omega_s, res[0])
    return det_pair_form(system, omega_p, omega_s)


def dark_state(system: MultiLambdaSystem, pulses: PulsePair, t: float) -> StateVector:
    """Two-component trapped state with no intermediate admixture.

    For proportional couplings this is a zero-eigenvalue eigenstate of the
    Hamiltonian at every instant; it connects ``i`` at early times to ``f``
    at late times through the counterintuitive pulse order.  For a system in
    customary normalization it reads (omega_s/Omega, 0, ..., -omega_p/Omega).
    """
    wp, ws = pulses.values(t)
    x = system.betas[0] * ws
    y = system.alphas[0] * wp
    if x == 0.0 and y == 0.0:
        raise BothEnvelopesZero(f"both envelopes vanish at t={t}")
    nrm = math.hypot(x, y)
    amps = np.zeros(system.dimension, dtype=complex)
    amps[0] = x / nrm
    amps[-1] = -y / nrm
    return StateVector(amps)


def zero_eigvec_amplitudes(
    system: MultiLambdaSystem,
    pulses: PulsePair,
    t: float,
    a_i: float,
    a_f: float,
) -> StateVector:
    """Zero-eigenvalue eigenvector extended to the intermediate states.

    Given end-state amplitudes ``(a_i, a_f)`` that solve the zero-eigenvalue
    end-state equations, each intermediate amplitude follows as
    ``-(alpha_k omega_p a_i + beta_k omega_s a_f) / delta_k``.  The result is
    normalized.  The caller is responsible for the validity of ``(a_i, a_f)``;
    the vector is exactly a null vector only when the zero-eigenvalue
    condition holds for the system.
    """
    if any(d == 0.0 for d in system.detunings):
        raise ZeroDetuningInSum("intermediate amplitudes divide by each detuning")
    wp, ws = pulses.values(t)
    al = np.asarray(system.alphas)
    be = np.asarray(system.betas)
    de = np.asarray(system.detunings)
    mid = -(al * wp * a_i + be * ws * a_f) / de
    amps = np.concatenate(([a_i], mid, [a_f])).astype(complex)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("zero end-state amplitudes give an empty vector")
    return StateVector(amps / nrm)
