"""Instantaneous spectrum of the transfer Hamiltonian and its continuation in time.

Eigenpairs come from LAPACK (``numpy.linalg.eigh``).  A tracked time grid is
solved in one batched call on the stacked ``(K, N+2, N+2)`` Hamiltonians,
behind the same finiteness and exact-symmetry checks that single matrices get.

``track_spectrum`` returns one read-only ``numpy.recarray`` with a row per
grid time and the fields ``t``, ``eigenvalues`` (n,), ``eigenvectors``
(n, n) and ``track_ids`` (n,), n = N+2.  The fields are the stacked arrays
(``spec.eigenvalues`` is ``(K, n)``); a row reads ``spec[k].eigenvalues``,
and iterating yields the rows.  Every array is read-only.  The basis follows
one convention: labels ascend at the first snapshot, where each column's
largest component is positive; clusters of equal eigenvalues are
Procrustes-aligned onto the previous snapshot's aligned basis; every matched
overlap is positive.

Eigenvalue curves are continued through time by greedy eigenvector-overlap
matching between consecutive snapshots.  That is reliable exactly when the
time grid is fine enough that consecutive eigenbases barely rotate; if the
best available overlap for some state drops below 0.5 the continuation is
refused rather than guessed.

Inside a cluster of equal eigenvalues the solver's basis is arbitrary.  Equal
degenerate detunings give a cluster at every time, and in the pulse tails,
where both fields vanish, the initial and final states share the zero
eigenvalue.  So before any matching each cluster's columns are rotated onto
the same columns of the previous snapshot, as rotated, by the orthogonal
Procrustes rotation polar(X) of their overlap X.  Along a run of snapshots
with the same cluster spans the rotations chain: with X_k the overlap of the
solver's own columns, the rotation is Q_k = polar(X_k) Q_{k-1}, exactly the
Procrustes rotation since polar(X Q) = polar(X) Q for orthogonal Q.  All
polar(X_k) of a grid come from one stacked SVD per cluster size.  The chain
is taken only where every X_k of the step has its smallest singular value
above 0.75; there chaining moves the eigenvectors by rounding only (at most
1.1e-13 on the test systems against rotating each snapshot onto the last).
Run entries, span changes and steps below the bound take one SVD per
cluster against the rotated previous basis.  The first snapshot keeps the
solver's basis.

Most steps need no greedy matching.  The overlap matrix of two orthonormal
bases is orthogonal, so each of its rows and columns holds at most one entry
with |overlap| above 1/sqrt(2).  Where every column has such an entry, the
greedy match is the per-column argmax and the 0.5 refusal cannot fire; with
the bound at 0.75, rounding cannot move the argmax or its sign either.  So
the diagonals of all consecutive overlaps of the aligned bases are formed in
one pass, and a run of steps whose every diagonal entry is above 0.75 keeps
its labels and takes its column signs from one cumulative product; this
includes the chained steps, whose aligned cluster overlaps are symmetric
positive definite.  Only the steps below the bound, including those whose
labels permute, are matched one at a time, by ``_greedy_match`` against the
previous continued basis.  The labels, eigenvectors and refusals are bit for
bit those of aligning and greedy matching one step at a time.  A debug log
record gives the grid size, the number of clustered snapshots and the
number of steps matched one at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AmbiguousTracking, PreconditionViolated
from .model import MultiLambdaSystem, PulsePair, _Scaled, build_hamiltonian

_log = logging.getLogger(__name__)

__all__ = [
    "eigendecompose",
    "track_spectrum",
    "Side",
    "AsymptoticEigenvalues",
    "asymptotic_eigenvalues",
    "asymptotics_valid",
]

# Continuation is refused when the best overlap drops below this.
_MIN_OVERLAP = 0.5

# Above this |overlap| (a margin over 1/sqrt(2) for rounding) an entry is the
# only one of its row and column that large, so a step whose every diagonal
# overlap is above it is the identity match the greedy matcher would make.
_SURE_OVERLAP = 0.75

# asymptotics_valid bounds omega_weak/omega_strong, and omega_strong times
# max(alpha_k, beta_k)/|Delta_k|, by this.
_ASYMPTOTIC_RATIO = 0.1

# Adjacent eigenvalues closer than this fraction of the spectral radius form a
# cluster whose eigenbasis the solver may pick arbitrarily.
_CLUSTER_RTOL = 1e-9


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a real
    symmetric matrix, or of each matrix in a ``(..., n, n)`` stack, by LAPACK.

    Returns ``(w, v)`` with ``h @ v[..., :, j] == w[..., j] * v[..., :, j]``.
    Raises PreconditionViolated unless every matrix is real, square, finite and
    exactly symmetric.  Input that is not of a real numeric dtype (complex,
    object, text) is refused whatever its values, rather than cast: casting
    would drop imaginary parts.
    """
    a = np.asarray(h)
    if a.dtype.kind not in "biuf":
        raise PreconditionViolated("matrix must be real")
    a = a.astype(float, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise PreconditionViolated("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise PreconditionViolated("matrix entries must be finite")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise PreconditionViolated("matrix must be exactly symmetric")
    return np.linalg.eigh(a)


def _greedy_match(overlap: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair previous columns (rows of ``overlap``) with current ones (its
    columns) by descending |overlap|.

    Returns ``(match, sign)``: current column j continues previous column
    ``match[j]``, and multiplying it by ``sign[j]`` (+1 or -1) makes the
    matched overlap positive.  Raises AmbiguousTracking when a pair has
    |overlap| < 0.5.
    """
    n = overlap.shape[1]
    score = np.abs(overlap)
    match = np.full(n, -1)
    sign = np.ones(n)
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        best = score[i, j]
        if best < _MIN_OVERLAP:
            raise AmbiguousTracking(
                f"best eigenvector overlap {best:.3f} < {_MIN_OVERLAP} at t={t}; "
                "refine the time grid"
            )
        if overlap[i, j] < 0:
            sign[j] = -1.0
        match[j] = i
        score[i, :] = -1.0
        score[:, j] = -1.0
    return match, sign


def _cluster_spans(w: np.ndarray) -> dict[int, tuple[tuple[int, int], ...]]:
    """Column ranges ``[a, b)`` of equal eigenvalues, keyed by the clustered
    snapshots of the stacked eigenvalues ``w`` (K, n), in grid order."""
    size = w.shape[0]
    close = np.diff(w, axis=1) <= _CLUSTER_RTOL * np.max(np.abs(w), axis=1, keepdims=True)
    pad = np.zeros((size, 1), dtype=np.int8)
    edge = np.diff(np.hstack((pad, close.astype(np.int8), pad)), axis=1)
    ks, lo = np.nonzero(edge > 0)
    hi = np.nonzero(edge < 0)[1] + 1
    spans: dict[int, tuple[tuple[int, int], ...]] = {}
    for k, a, b in zip(ks.tolist(), lo.tolist(), hi.tolist()):
        spans[k] = (*spans.get(k, ()), (a, b))
    return spans


def _align_clusters(v: np.ndarray, spans: dict[int, tuple[tuple[int, int], ...]]) -> None:
    """Rotate each cluster's columns of the stacked eigenvectors ``v`` in
    place onto the same columns of the previous snapshot, as rotated here.

    The rotation of a cluster is the orthogonal Procrustes solution, polar(X)
    for the overlap X of its columns with the previous snapshot's.  Where a
    snapshot repeats the previous one's spans and every raw overlap
    X_k = v[k][:, a:b].T @ v[k-1][:, a:b] has its smallest singular value
    above ``_SURE_OVERLAP``, the rotation is chained instead: Q_k = polar(X_k)
    Q_{k-1}, since polar(X Q) = polar(X) Q for orthogonal Q.  Those polar
    factors come from one stacked SVD per cluster size; the first snapshot's
    clusters keep the solver's basis (Q = I).  Every other clustered
    snapshot takes one SVD per cluster against the rotated previous basis.
    """
    # Raw overlaps of the steps that repeat the previous snapshot's spans,
    # stacked by cluster size, before anything is rotated.
    by_size: dict[int, list[tuple[int, int]]] = {}
    for k, ranges in spans.items():
        if k and spans.get(k - 1) == ranges:
            for a, b in ranges:
                by_size.setdefault(b - a, []).append((k, a))
    chained = {k for steps in by_size.values() for k, _ in steps}
    polar: dict[tuple[int, int], np.ndarray] = {}
    rows = np.arange(v.shape[1])[:, None]
    for m, steps in by_size.items():
        ks, lo = np.array(steps).T
        cols = (lo[:, None] + np.arange(m))[:, None, :]
        cur = v[ks[:, None, None], rows, cols]
        prev = v[ks[:, None, None] - 1, rows, cols]
        u, s, vt = np.linalg.svd(np.swapaxes(cur, 1, 2) @ prev)
        polar.update(zip(steps, u @ vt))
        chained.difference_update(ks[s[:, -1] <= _SURE_OVERLAP].tolist())
    rotation: dict[tuple[int, int], np.ndarray] = {}
    for k, ranges in spans.items():
        if k == 0:
            rotation = {(a, b): np.eye(b - a) for a, b in ranges}
            continue
        if k in chained:
            rotation = {(a, b): polar[k, a] @ rotation[a, b] for a, b in ranges}
        else:
            rotation = {}
            for a, b in ranges:
                u, _, vt = np.linalg.svd(v[k][:, a:b].T @ v[k - 1][:, a:b])
                rotation[a, b] = u @ vt
        for (a, b), q in rotation.items():
            v[k][:, a:b] = v[k][:, a:b] @ q


def _continue_eigenbasis(
    w: np.ndarray, v: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Continue the stacked eigenpairs ``w`` (K, n) and ``v`` (K, n, n),
    taken at the times ``grid``, by the module's basis convention.

    Returns ``(ids, sign)``, both (K, n): column j of snapshot k carries the
    label ``ids[k, j]``, and ``v[k] * sign[k]`` is the continued basis.  The
    clusters of equal eigenvalues in ``v`` are first rotated in place by
    ``_align_clusters``.  Raises AmbiguousTracking where the best overlap
    drops below 0.5.
    """
    size, n = w.shape
    spans = _cluster_spans(w)
    _align_clusters(v, spans)
    # Step k-1 -> k is fast when each column's overlap with its own
    # predecessor column is above _SURE_OVERLAP: the match is then the
    # identity and only the column signs can change.
    diag = np.einsum("kij,kij->kj", v[:-1], v[1:])
    slow = np.flatnonzero(~np.all(np.abs(diag) > _SURE_OVERLAP, axis=1)) + 1
    # Snapshot k's continued basis is v[k] * sign[k].  The first snapshot's
    # signs make each column's largest component positive.
    sign = np.ones(w.shape)
    sign[0][v[0][np.argmax(np.abs(v[0]), axis=0), np.arange(n)] < 0] = -1.0
    ids = np.empty(w.shape, dtype=int)
    ids[0] = np.arange(n)
    done = 0
    for k in [*slow.tolist(), size]:
        if k > done + 1:
            ids[done + 1 : k] = ids[done]
            sign[done + 1 : k] = sign[done] * np.cumprod(np.sign(diag[done : k - 1]), axis=0)
        if k == size:
            break
        match, sign[k] = _greedy_match((v[k - 1] * sign[k - 1]).T @ v[k], float(grid[k]))
        ids[k] = ids[k - 1][match]
        done = k
    _log.debug(
        "track_spectrum: %d points, %d clustered, %d sequential steps",
        size, len(spans), slow.size,
    )
    return ids, sign


def track_spectrum(system: MultiLambdaSystem, pulses: PulsePair, time_grid) -> np.recarray:
    """Diagonalize H(t) over a time grid and link the curves by continuity.

    Returns a read-only record array with one row per grid time and the
    fields ``t``, ``eigenvalues`` (n,), ``eigenvectors`` (n, n) and
    ``track_ids`` (n,), n = N+2.  ``spec.eigenvalues`` is the stacked
    ``(K, n)`` array and ``spec[k].eigenvalues`` row k.  Eigenvalues ascend;
    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]`` and carries the
    curve label ``track_ids[j]``.  Labels ascend at the first snapshot, where
    each column's largest component is positive; afterwards each column has
    a positive overlap with the column of the same label before it.  Inside
    a cluster of equal eigenvalues the columns are the cluster basis nearest
    the previous snapshot's aligned one (orthogonal Procrustes, chained along
    runs of equal cluster spans), eigenvectors to within the cluster's width.
    Logs one debug record: points, clustered snapshots, and the steps matched
    one at a time because some column's overlap with its predecessor is at
    most 0.75; clustered steps are not counted for being clustered.
    """
    grid = np.asarray(time_grid)
    if grid.dtype.kind not in "biuf":  # a cast would drop imaginary parts
        raise ValueError("time grid must be real")
    grid = grid.astype(float, copy=False)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("time grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    w, v = eigendecompose(build_hamiltonian(system, *pulses.values(grid)))
    ids, sign = _continue_eigenbasis(w, v, grid)
    n = w.shape[1]
    spec = np.recarray(grid.size, dtype=[
        ("t", float), ("eigenvalues", float, (n,)),
        ("eigenvectors", float, (n, n)), ("track_ids", int, (n,)),
    ])
    spec.t, spec.eigenvalues, spec.track_ids = grid, w, ids
    spec.eigenvectors = v * sign[:, None, :]
    spec.setflags(write=False)
    return spec


class Side(Enum):
    """Which tail of the pulse sequence an asymptotic formula describes."""

    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True)
class AsymptoticEigenvalues:
    """Leading-order small and large vanishing eigenvalues on one side."""

    small: float
    large: tuple[float, ...]


def asymptotics_valid(
    system: MultiLambdaSystem, pulses: PulsePair, t: float, side: Side
) -> bool:
    """Whether ``t`` is far enough into the requested tail for the expansions.

    Early means the pump is still negligible against the Stokes field
    (omega_p/omega_s < 0.1), late the reverse.  The dominant envelope omega
    must also be small against every nonzero detuning:
    omega * max(alpha_k, beta_k)/|Delta_k| < 0.1 over the non-resonant k,
    the parameter of the neglected next-order terms.  The formulas
    extrapolate smoothly outside this domain but lose accuracy; callers
    decide.  A ``side`` that is not a :class:`Side` raises ValueError.
    """
    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, not {side!r}")
    wp, ws = pulses.values(t)
    weak, strong = (wp, ws) if side is Side.EARLY else (ws, wp)
    if not (strong > 0 and weak / strong < _ASYMPTOTIC_RATIO):
        return False
    coupling = max(
        (
            max(a, b) / abs(d)
            for a, b, d in zip(system.alphas, system.betas, system.detunings)
            if d != 0.0
        ),
        default=0.0,
    )
    return bool(strong * coupling < _ASYMPTOTIC_RATIO)


def asymptotic_eigenvalues(
    system: MultiLambdaSystem, omega_p: float, omega_s: float, side: Side
) -> AsymptoticEigenvalues:
    """Leading-order vanishing eigenvalues in one tail of the sequence.

    With no resonant state two curves vanish asymptotically.  Early they
    behave as ``-res/S_b2 * omega_p^2`` (small) and ``-S_b2 * omega_s^2``
    (large) with ``res = S_a2 S_b2 - S_ab^2``; late, the roles of the sums
    and envelopes swap.  The denominator sum must not vanish
    (PreconditionViolated).  With exactly one resonant state n three curves
    vanish: a small one quadratic in the weak envelope and the symmetric
    pair ``-/+ beta_n omega_s`` early, ``-/+ alpha_n omega_p`` late; the
    bracket combines the detuning sums taken without n.  Two or more
    resonant states raise PreconditionViolated.  The small eigenvalue is a
    ratio of scaled sums, so it survives a residual or bracket that underflows;
    an envelope whose square overflows gives an infinite large eigenvalue.
    A ``side`` that is not a :class:`Side` raises ValueError.
    """
    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, not {side!r}")
    resonant = system.resonant_indices()
    if len(resonant) > 1:
        raise PreconditionViolated("asymptotics handle zero or one resonant state")
    s = system.sums
    early = side is Side.EARLY
    weak, strong = (omega_p, omega_s) if early else (omega_s, omega_p)
    if not resonant:
        den = s.b2 if early else s.a2
        if den.is_zero():
            name = "S_b2" if early else "S_a2"
            raise PreconditionViolated(f"{name} vanishes; {side.value} asymptotics undefined")
        large = -float(den) * (strong * strong)
        return AsymptoticEigenvalues(_small(s.residual, den, weak), (large,))
    n = resonant[0]
    an, bn = system.alphas[n], system.betas[n]
    c = bn if early else an
    m, e = math.frexp(c)
    small = _small(s.bracket(an, bn), _Scaled(m * m, m * m, 2 * e), weak)
    return AsymptoticEigenvalues(small, (-c * strong, c * strong))


def _small(num: _Scaled, den: _Scaled, weak: float) -> float:
    """The small vanishing eigenvalue -num/den weak^2."""
    return -num.ratio(den) * (weak * weak)
