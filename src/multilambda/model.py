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
from enum import Enum

import numpy as np

from .errors import BothEnvelopesZero, ZeroDetuningInSum

__all__ = [
    "PulseShape",
    "PulsePair",
    "MultiLambdaSystem",
    "StateVector",
    "SSums",
    "DetuningProducts",
    "build_hamiltonian",
    "gaussian_envelopes",
    "s_sums",
    "detuning_products",
    "det_closed_form",
    "det_offres_sum_form",
    "det_offres_pair_form",
    "det_single_res_sum_form",
    "det_single_res_pair_form",
    "det_double_res",
    "dark_state",
    "zero_eigvec_amplitudes",
    "PROPORTIONALITY_RTOL",
]

# Relative tolerance for deciding that coupling ratios alpha_k/beta_k agree.
PROPORTIONALITY_RTOL = 1e-12


class PulseShape(str, Enum):
    GAUSSIAN = "gaussian"


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
    shape: PulseShape = PulseShape.GAUSSIAN

    def __post_init__(self) -> None:
        # omega0 == 0 is allowed as the fields-off limit; negative makes no sense.
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if self.width <= 0:
            raise ValueError("pulse width must be positive")
        if self.delay <= 0:
            raise ValueError("pulse delay must be positive")
        if not isinstance(self.shape, PulseShape):
            object.__setattr__(self, "shape", PulseShape(self.shape))

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

    def combined(self, t):
        """Root-sum-square Rabi frequency sqrt(omega_p^2 + omega_s^2)."""
        wp, ws = self.values(t)
        return np.hypot(wp, ws)

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
        if any(a <= 0 for a in alphas) or any(b <= 0 for b in betas):
            raise ValueError("coupling weights must be positive")
        if self.enforce_normalization and (alphas[0] != 1.0 or betas[0] != 1.0):
            raise ValueError("first coupling pair must be normalized to 1")

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

    def coupling_ratios(self) -> tuple[float, ...]:
        return tuple(a / b for a, b in zip(self.alphas, self.betas))

    def is_proportional(self, indices=None, rtol: float = PROPORTIONALITY_RTOL) -> bool:
        """True when alpha_k/beta_k agree (over ``indices`` or all states)."""
        idx = range(self.n_intermediate) if indices is None else tuple(indices)
        ratios = [self.alphas[k] / self.betas[k] for k in idx]
        ref = ratios[0]
        return all(abs(r - ref) <= rtol * abs(ref) for r in ratios)

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
    """Weighted detuning sums S_a2, S_b2, S_ab.

    ``s_a2`` sums alpha_k^2/delta_k, ``s_b2`` sums beta_k^2/delta_k and
    ``s_ab`` sums alpha_k*beta_k/delta_k.  When ``excluded_index`` is set the
    term of that intermediate state is omitted (used around a resonant state).
    The ``*_scale`` fields hold the corresponding sums of term magnitudes;
    zero tests on the sums are made relative to them.
    """

    s_a2: float
    s_b2: float
    s_ab: float
    excluded_index: int | None = None
    s_a2_scale: float = 0.0
    s_b2_scale: float = 0.0
    s_ab_scale: float = 0.0

    def a2_is_zero(self, rtol: float = 1e-9) -> bool:
        return abs(self.s_a2) <= rtol * self.s_a2_scale

    def b2_is_zero(self, rtol: float = 1e-9) -> bool:
        return abs(self.s_b2) <= rtol * self.s_b2_scale

    def ab_is_zero(self, rtol: float = 1e-9) -> bool:
        return abs(self.s_ab) <= rtol * self.s_ab_scale


def s_sums(system: MultiLambdaSystem, excluded: int | None = None) -> SSums:
    """Compute the three detuning sums, optionally omitting one state.

    Raises ZeroDetuningInSum when a contributing detuning is exactly zero;
    resonant states must be excluded explicitly.
    """
    sa = sb = sab = 0.0
    sa_m = sb_m = sab_m = 0.0
    for k, (a, b, d) in enumerate(zip(system.alphas, system.betas, system.detunings)):
        if k == excluded:
            continue
        if d == 0.0:
            raise ZeroDetuningInSum(
                f"detuning of intermediate state {k} is exactly zero; "
                "exclude it or use the resonant formulas"
            )
        sa += a * a / d
        sb += b * b / d
        sab += a * b / d
        sa_m += abs(a * a / d)
        sb_m += abs(b * b / d)
        sab_m += abs(a * b / d)
    return SSums(sa, sb, sab, excluded, sa_m, sb_m, sab_m)


@dataclass(frozen=True)
class DetuningProducts:
    """Products of detunings with zero, one or two factors left out."""

    detunings: tuple[float, ...]

    @property
    def d_full(self) -> float:
        return math.prod(self.detunings)

    def d_excl_one(self, n: int) -> float:
        return math.prod(d for k, d in enumerate(self.detunings) if k != n)

    def d_excl_two(self, m: int, n: int) -> float:
        if m == n:
            raise ValueError("the two excluded indices must differ")
        return math.prod(d for k, d in enumerate(self.detunings) if k != m and k != n)


def detuning_products(system: MultiLambdaSystem) -> DetuningProducts:
    return DetuningProducts(system.detunings)


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
    s = s_sums(system)
    d = detuning_products(system).d_full
    return omega_p**2 * omega_s**2 * d * (s.s_a2 * s.s_b2 - s.s_ab**2)


def det_offres_pair_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """det H for no resonant state, via the pairwise coupling minors."""
    prods = detuning_products(system)
    al, be = system.alphas, system.betas
    n = system.n_intermediate
    total = 0.0
    for k in range(n):
        for l in range(k + 1, n):
            total += prods.d_excl_two(k, l) * (al[k] * be[l] - al[l] * be[k]) ** 2
    return omega_p**2 * omega_s**2 * total


def det_single_res_sum_form(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, n: int
) -> float:
    """det H with state ``n`` resonant, via the excluded detuning sums."""
    s = s_sums(system, excluded=n)
    dn = detuning_products(system).d_excl_one(n)
    an, bn = system.alphas[n], system.betas[n]
    bracket = an * an * s.s_b2 - 2.0 * an * bn * s.s_ab + bn * bn * s.s_a2
    return omega_p**2 * omega_s**2 * dn * bracket


def det_single_res_pair_form(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, n: int
) -> float:
    """det H with state ``n`` resonant, via pairwise minors against state n."""
    prods = detuning_products(system)
    al, be = system.alphas, system.betas
    total = 0.0
    for k in range(system.n_intermediate):
        if k == n:
            continue
        total += prods.d_excl_two(n, k) * (al[k] * be[n] - al[n] * be[k]) ** 2
    return omega_p**2 * omega_s**2 * total


def det_double_res(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, m: int, n: int
) -> float:
    """det H with exactly states ``m`` and ``n`` resonant."""
    al, be = system.alphas, system.betas
    dmn = detuning_products(system).d_excl_two(m, n)
    return omega_p**2 * omega_s**2 * dmn * (al[m] * be[n] - al[n] * be[m]) ** 2


def det_closed_form(system: MultiLambdaSystem, omega_p: float, omega_s: float) -> float:
    """Closed form of det H, dispatching on the number of exact resonances.

    Three or more resonant intermediate states force the determinant to
    vanish identically, so 0.0 is returned without further arithmetic.
    """
    res = system.resonant_indices()
    if len(res) == 0:
        return det_offres_sum_form(system, omega_p, omega_s)
    if len(res) == 1:
        return det_single_res_sum_form(system, omega_p, omega_s, res[0])
    if len(res) == 2:
        return det_double_res(system, omega_p, omega_s, res[0], res[1])
    return 0.0


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
