"""Instantaneous spectrum of the transfer Hamiltonian and its continuation in time.

Eigenpairs come from LAPACK (``numpy.linalg.eigh``).  A tracked time grid is
solved in one batched call on the stacked ``(K, N+2, N+2)`` Hamiltonians,
behind the same exact-symmetry check that single matrices get.

Eigenvalue curves are continued through time by greedy eigenvector-overlap
matching between consecutive snapshots.  That is reliable exactly when the
time grid is fine enough that consecutive eigenbases barely rotate; if the
best available overlap for some state drops below 0.5 the continuation is
refused rather than guessed.  Inside a cluster of equal eigenvalues (equal
degenerate detunings give one at every time) the solver's basis is arbitrary,
so before matching each cluster's columns are rotated onto the previous
snapshot's basis by an orthogonal Procrustes step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AmbiguousTracking,
    DegenerateSums,
    NonSymmetricInput,
    NotSingleResonance,
)
from .model import MultiLambdaSystem, PulsePair, build_hamiltonian, s_sums

__all__ = [
    "eigendecompose",
    "SpectralSnapshot",
    "track_spectrum",
    "track_curve",
    "track_vectors",
    "Side",
    "AsymptoticEigenvalues",
    "asymptotic_eigenvalues_offres",
    "asymptotic_eigenvalues_res",
    "asymptotics_valid",
]

# Continuation is refused when the best overlap drops below this.
_MIN_OVERLAP = 0.5

# Adjacent eigenvalues closer than this fraction of the spectral radius form a
# cluster whose eigenbasis the solver may pick arbitrarily.
_CLUSTER_RTOL = 1e-9


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a real
    symmetric matrix, or of each matrix in a ``(..., n, n)`` stack, by LAPACK.

    Returns ``(w, v)`` with ``h @ v[..., :, j] == w[..., j] * v[..., :, j]``.
    """
    a = np.asarray(h, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSymmetricInput("matrix must be square")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise NonSymmetricInput("matrix must be exactly symmetric")
    return np.linalg.eigh(a)


@dataclass(frozen=True, eq=False)
class SpectralSnapshot:
    """Spectrum of H(t) at one time, with continuation labels.

    ``eigenvalues`` are ascending and ``eigenvectors[:, j]`` belongs to
    ``eigenvalues[j]``.  ``track_ids[j]`` is the persistent label of that
    curve: labels are assigned by ascending order in the first snapshot and
    carried forward by overlap matching.  Inside a cluster of equal
    eigenvalues the columns are the cluster basis nearest the previous
    snapshot's, eigenvectors to within the cluster's width.
    """

    t: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    track_ids: np.ndarray


def _fix_initial_signs(v: np.ndarray) -> None:
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]


def _greedy_match(prev_v: np.ndarray, cur_v: np.ndarray, t: float) -> np.ndarray:
    """Pair previous columns with current ones by descending |overlap|.

    Returns ``match[j] = i`` meaning current column j continues previous
    column i.  Flips current column signs so every matched overlap is
    positive.  Raises AmbiguousTracking when a pair has |overlap| < 0.5.
    """
    n = prev_v.shape[1]
    overlap = prev_v.T @ cur_v
    score = np.abs(overlap)
    match = np.full(n, -1)
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        best = score[i, j]
        if best < _MIN_OVERLAP:
            raise AmbiguousTracking(
                f"best eigenvector overlap {best:.3f} < {_MIN_OVERLAP} at t={t}; "
                "refine the time grid"
            )
        if overlap[i, j] < 0:
            cur_v[:, j] = -cur_v[:, j]
        match[j] = i
        score[i, :] = -1.0
        score[:, j] = -1.0
    return match


def _align_clusters(prev_v: np.ndarray, cur_v: np.ndarray, close: np.ndarray) -> None:
    """Rotate each cluster of equal eigenvalues in ``cur_v`` onto ``prev_v``.

    ``close[j]`` marks eigenvalues j and j+1 as equal.  Any orthonormal basis
    of a cluster's eigenspace is a valid answer, so the one nearest the
    previous columns is taken (orthogonal Procrustes, one SVD per cluster).
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close.astype(int), [0]))))
    for lo, hi in zip(edges[::2], edges[1::2] + 1):
        u, _, vt = np.linalg.svd(cur_v[:, lo:hi].T @ prev_v[:, lo:hi])
        cur_v[:, lo:hi] = cur_v[:, lo:hi] @ (u @ vt)


def track_spectrum(
    system: MultiLambdaSystem, pulses: PulsePair, time_grid
) -> list[SpectralSnapshot]:
    """Diagonalize H(t) over a time grid and link the curves by continuity."""
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    w, v = eigendecompose(build_hamiltonian(system, *pulses.values(grid)))
    close = np.diff(w, axis=1) <= _CLUSTER_RTOL * np.max(np.abs(w), axis=1, keepdims=True)
    clustered = np.any(close, axis=1)
    ids = np.empty(w.shape, dtype=int)
    ids[0] = np.arange(w.shape[1])
    _fix_initial_signs(v[0])
    for k in range(1, grid.size):
        if clustered[k]:
            _align_clusters(v[k - 1], v[k], close[k])
        ids[k] = ids[k - 1][_greedy_match(v[k - 1], v[k], float(grid[k]))]
    for arr in (w, v, ids):
        arr.setflags(write=False)
    return [SpectralSnapshot(float(t), w[k], v[k], ids[k]) for k, t in enumerate(grid)]


def _track_columns(snapshots: list[SpectralSnapshot], track_id: int) -> np.ndarray:
    """Column of the labelled curve in each snapshot, found in one pass."""
    hit = np.array([snap.track_ids for snap in snapshots]) == track_id
    if not np.all(np.count_nonzero(hit, axis=1) == 1):
        raise ValueError(f"track {track_id} is not labelled exactly once in every snapshot")
    return np.argmax(hit, axis=1)


def track_curve(snapshots: list[SpectralSnapshot], track_id: int) -> np.ndarray:
    """Eigenvalue of one labelled curve across all snapshots."""
    cols = _track_columns(snapshots, track_id)
    w = np.array([snap.eigenvalues for snap in snapshots])
    return w[np.arange(len(snapshots)), cols]


def track_vectors(snapshots: list[SpectralSnapshot], track_id: int) -> np.ndarray:
    """Eigenvector of one labelled curve, rows indexed like the snapshots."""
    cols = _track_columns(snapshots, track_id)
    v = np.array([snap.eigenvectors for snap in snapshots])
    return v[np.arange(len(snapshots)), :, cols]


class Side(Enum):
    """Which tail of the pulse sequence an asymptotic formula describes."""

    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True)
class AsymptoticEigenvalues:
    """Leading-order small and large vanishing eigenvalues on one side."""

    side: Side
    small: float
    large: tuple[float, ...]


def asymptotics_valid(
    pulses: PulsePair,
    t: float,
    side: Side,
    ratio: float = 0.1,
    system: MultiLambdaSystem | None = None,
) -> bool:
    """Whether ``t`` is far enough into the requested tail for the expansions.

    Early means the pump is still negligible against the Stokes field
    (omega_p/omega_s < ratio), late the reverse.  Given ``system``, the
    dominant envelope omega must also be small against every nonzero
    detuning: omega * max(alpha_k, beta_k)/|Delta_k| < ratio over the
    non-resonant k, the parameter of the neglected next-order terms.  The
    formulas extrapolate smoothly outside this domain but lose accuracy;
    callers decide.
    """
    wp, ws = pulses.values(t)
    weak, strong = (wp, ws) if side is Side.EARLY else (ws, wp)
    if not (strong > 0 and weak / strong < ratio):
        return False
    if system is None:
        return True
    coupling = max(
        (
            max(a, b) / abs(d)
            for a, b, d in zip(system.alphas, system.betas, system.detunings)
            if d != 0.0
        ),
        default=0.0,
    )
    return bool(strong * coupling < ratio)


def asymptotic_eigenvalues_offres(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, side: Side
) -> AsymptoticEigenvalues:
    """Leading-order vanishing eigenvalues with no resonant state.

    Early in the sequence the two curves that vanish asymptotically behave as
    ``-res/S_b2 * omega_p^2`` (small) and ``-S_b2 * omega_s^2`` (large) with
    ``res = S_a2 S_b2 - S_ab^2``; late, the roles of the sums and envelopes
    swap.  The denominator sum must not vanish.
    """
    s = s_sums(system)
    res = s.s_a2 * s.s_b2 - s.s_ab**2
    if side is Side.EARLY:
        if s.b2_is_zero():
            raise DegenerateSums("S_b2 vanishes; early asymptotics undefined")
        return AsymptoticEigenvalues(
            side, -res / s.s_b2 * omega_p**2, (-s.s_b2 * omega_s**2,)
        )
    if s.a2_is_zero():
        raise DegenerateSums("S_a2 vanishes; late asymptotics undefined")
    return AsymptoticEigenvalues(side, -res / s.s_a2 * omega_s**2, (-s.s_a2 * omega_p**2,))


def asymptotic_eigenvalues_res(
    system: MultiLambdaSystem, n: int, omega_p: float, omega_s: float, side: Side
) -> AsymptoticEigenvalues:
    """Leading-order vanishing eigenvalues with exactly state ``n`` resonant.

    Three curves vanish in each tail: a small one quadratic in the weak
    envelope and a symmetric pair linear in the strong one.  The bracket
    combines the detuning sums taken without the resonant state.
    """
    res = system.resonant_indices()
    if res != (n,):
        raise NotSingleResonance(
            f"need detuning {n} exactly zero and all others nonzero, got zeros at {res}"
        )
    s = s_sums(system, excluded=n)
    an, bn = system.alphas[n], system.betas[n]
    bracket = an * an * s.s_b2 - 2.0 * an * bn * s.s_ab + bn * bn * s.s_a2
    if side is Side.EARLY:
        return AsymptoticEigenvalues(
            side,
            -bracket / (bn * bn) * omega_p**2,
            (-bn * omega_s, bn * omega_s),
        )
    return AsymptoticEigenvalues(
        side,
        -bracket / (an * an) * omega_s**2,
        (-an * omega_p, an * omega_p),
    )
