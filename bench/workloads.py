"""Seeded inputs for the benchmark workloads, and the rule that paces passes.

Every system is drawn from ``numpy.random.default_rng(seed)``: couplings from
U[0.5, 1.5] with the first pair fixed at 1, detunings from [-2, 2].  The
detunings are drawn stratified (one uniform draw per equal slice of [-2, 2])
and stretched so that the outermost two sit at exactly -2 and 2, then
shuffled.  The outermost detunings set the step count of a propagation;
pinning them keeps the cost of a workload from swinging with the seed, and a
benchmark whose cost swings with the seed cannot resolve a change of a few
percent.

Draws that would put a scan point on or next to a resonance or a
transfer-window boundary, or that the spectrum tracker could only follow with
a marginal eigenvector overlap, are redrawn from the same generator before
anything is measured.  The correctness checks then never depend on a
tolerance choice at a boundary, and no seed has to be avoided.

This module never imports the package: it writes config files and the
program under test sees only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A scan point whose detuning sums are this close (relative to their term
# magnitudes) to zero, or whose detuning is this close to resonance, is redrawn.
_MARGIN = 1e-6
# Smallest eigenvector overlap, in the benchmark's own continuation, that a
# tracked system may need; the package refuses below 0.5.
_MIN_TRACK_OVERLAP = 0.7
_MAX_DRAWS = 1000
NO_AT_RANGE = (-4.0, 4.0)


@dataclass(frozen=True)
class System:
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    detunings: tuple[float, ...]

    def shifted(self, shift: float) -> "System":
        # Same float operation as MultiLambdaSystem.with_common_detuning.
        return System(self.alphas, self.betas, tuple(d + shift for d in self.detunings))

    def sums(self) -> tuple[float, float, float, float]:
        """(S_a2, S_b2, scale_a2, scale_b2): sums of alpha^2/delta, beta^2/delta
        and of their term magnitudes."""
        a2 = np.square(self.alphas)
        b2 = np.square(self.betas)
        d = np.asarray(self.detunings)
        return (
            float(np.sum(a2 / d)),
            float(np.sum(b2 / d)),
            float(np.sum(np.abs(a2 / d))),
            float(np.sum(np.abs(b2 / d))),
        )

    def transfer_state_exists(self) -> bool:
        """Off-resonant, non-proportional rule: both sums share a sign."""
        sa, sb, _, _ = self.sums()
        return sa * sb > 0

    def well_conditioned(self) -> bool:
        """Away from resonance, window boundaries and proportional couplings."""
        if min(abs(d) for d in self.detunings) < _MARGIN:
            return False
        sa, sb, ma, mb = self.sums()
        ratios = np.asarray(self.alphas) / np.asarray(self.betas)
        return (
            abs(sa) > _MARGIN * ma
            and abs(sb) > _MARGIN * mb
            and np.ptp(ratios) > _MARGIN
        )

    def as_dict(self) -> dict:
        return {"alphas": self.alphas, "betas": self.betas, "detunings": self.detunings}

    def config_lines(self) -> list[str]:
        # repr() round-trips a float exactly, so the parsed system is this one.
        def row(values):
            return ", ".join(repr(v) for v in values)

        return [
            "[system]",
            f"alphas = {row(self.alphas)}",
            f"betas = {row(self.betas)}",
            f"detunings = {row(self.detunings)}",
        ]


@dataclass(frozen=True)
class Pulses:
    omega0: float
    width: float
    delay: float

    def values(self, t):
        up = (t - self.delay) / self.width
        us = (t + self.delay) / self.width
        return self.omega0 * np.exp(-up * up), self.omega0 * np.exp(-us * us)

    def window(self) -> tuple[float, float]:
        half = 4.0 * self.width + self.delay
        return (-half, half)

    def config_lines(self) -> list[str]:
        return [
            "[pulses]",
            f"omega0 = {self.omega0!r}",
            f"width = {self.width!r}",
            f"delay = {self.delay!r}",
        ]


def hamiltonians(system: System, pulses: Pulses, times) -> np.ndarray:
    """Stacked H(t), shape (len(times), N+2, N+2), basis (i, 1..N, f)."""
    t = np.asarray(times, dtype=float)
    n = len(system.alphas)
    wp, ws = pulses.values(t)
    h = np.zeros((t.size, n + 2, n + 2))
    pump = wp[:, None] * np.asarray(system.alphas)
    stokes = ws[:, None] * np.asarray(system.betas)
    h[:, 0, 1 : n + 1] = pump
    h[:, 1 : n + 1, 0] = pump
    h[:, n + 1, 1 : n + 1] = stokes
    h[:, 1 : n + 1, n + 1] = stokes
    idx = np.arange(1, n + 1)
    h[:, idx, idx] = system.detunings
    return h


@dataclass(frozen=True)
class ScanInput:
    """One ``multilambda scan`` config: a system, a pulse pair and an axis."""

    system: System
    pulses: Pulses
    axis: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def point(self, value: float) -> tuple[System, Pulses]:
        """System and pulses of one scan point, as the scan runner builds them."""
        if self.axis == "pulse_width":
            ratio = self.pulses.delay / self.pulses.width
            return self.system, Pulses(self.pulses.omega0, value, ratio * value)
        return self.system.shifted(value), self.pulses

    def config_text(self, csv_name: str) -> str:
        lines = self.system.config_lines() + [""] + self.pulses.config_lines()
        lines += [
            "",
            "[scan]",
            f"axis = {self.axis}",
            f"start = {self.start!r}",
            f"stop = {self.stop!r}",
            f"points = {self.points}",
            "",
            "[output]",
            f"csv = {csv_name}",
        ]
        return "\n".join(lines) + "\n"

    def describe(self) -> dict:
        return {
            "system": self.system.as_dict(),
            "pulses": vars(self.pulses),
            "scan": {"axis": self.axis, "start": self.start, "stop": self.stop,
                     "points": self.points},
        }


@dataclass(frozen=True)
class SpectrumInput:
    """Systems tracked in-process over one time grid with one pulse pair."""

    systems: tuple[System, ...]
    pulses: Pulses
    grid_points: int

    def grid(self) -> np.ndarray:
        lo, hi = self.pulses.window()
        return np.linspace(lo, hi, self.grid_points)

    def config_text(self, k: int) -> str:
        return "\n".join(self.systems[k].config_lines() + [""] + self.pulses.config_lines()) + "\n"

    def describe(self) -> dict:
        lo, hi = self.pulses.window()
        return {
            "systems": [s.as_dict() for s in self.systems],
            "pulses": vars(self.pulses),
            "grid": {"start": lo, "stop": hi, "points": self.grid_points},
            "no_at_range": NO_AT_RANGE,
        }


def _draw(rng: np.random.Generator, n: int) -> System:
    alphas = rng.uniform(0.5, 1.5, n)
    betas = rng.uniform(0.5, 1.5, n)
    alphas[0] = betas[0] = 1.0
    edges = np.linspace(-2.0, 2.0, n + 1)
    draws = rng.uniform(edges[:-1], edges[1:])
    # Stretch onto [-2, 2] so that the outermost detunings sit at -2 and 2.
    draws = -2.0 + 4.0 * (draws - draws[0]) / (draws[-1] - draws[0])
    detunings = rng.permutation(draws)
    return System(
        tuple(float(a) for a in alphas),
        tuple(float(b) for b in betas),
        tuple(float(d) for d in detunings),
    )


def _draw_until(rng: np.random.Generator, n: int, accept) -> System:
    for _ in range(_MAX_DRAWS):
        system = _draw(rng, n)
        if accept(system):
            return system
    raise RuntimeError(f"no acceptable N={n} system in {_MAX_DRAWS} draws")


def _min_track_overlap(system: System, pulses: Pulses, grid) -> float:
    """Worst overlap of greedy eigenvector continuation along the grid,
    computed with LAPACK and independent of the package's tracker."""
    _, v = np.linalg.eigh(hamiltonians(system, pulses, grid))
    worst = 1.0
    for k in range(1, len(grid)):
        score = np.abs(v[k - 1].T @ v[k])
        for _ in range(score.shape[0]):
            i, j = np.unravel_index(int(np.argmax(score)), score.shape)
            worst = min(worst, float(score[i, j]))
            score[i, :] = -1.0
            score[:, j] = -1.0
    return worst


def scan_input(seed: int, axis: str, smoke: bool = False) -> ScanInput:
    rng = np.random.default_rng([seed, 0 if axis == "common_detuning" else 1])
    if axis == "common_detuning":
        n, width, start, stop, points = 4, 30.0, -3.0, 3.0, 24
        if smoke:
            width, points = 8.0, 3
    else:
        n, width, start, stop, points = 3, 30.0, 4.0, 64.0, 20
        if smoke:
            stop, points = 8.0, 3
    pulses = Pulses(1.0, width, 0.5 * width)

    def accept(system: System) -> bool:
        scan = ScanInput(system, pulses, axis, start, stop, points)
        return all(scan.point(v)[0].well_conditioned() for v in scan.values())

    return ScanInput(_draw_until(rng, n, accept), pulses, axis, start, stop, points)


SPECTRUM_SIZES = (2, 3, 4, 5, 6, 8)


def spectrum_input(seed: int, smoke: bool = False) -> SpectrumInput:
    rng = np.random.default_rng([seed, 2])
    pulses = Pulses(1.0, 30.0, 15.0)
    sizes, grid_points = ((2, 3), 201) if smoke else (SPECTRUM_SIZES, 1001)
    grid = SpectrumInput((), pulses, grid_points).grid()

    def accept(system: System) -> bool:
        return (
            system.well_conditioned()
            and _min_track_overlap(system, pulses, grid) >= _MIN_TRACK_OVERLAP
        )

    systems = tuple(_draw_until(rng, n, accept) for n in sizes)
    return SpectrumInput(systems, pulses, grid_points)


def next_pass_fits(elapsed: float, last_pass: float, seconds: float) -> bool:
    """Closed-loop pacing: start another pass only if one more of the last
    pass's length still ends within the measuring time."""
    return elapsed + last_pass <= seconds


def read_csv_rows(path) -> list[list]:
    """Rows of a scan CSV as ``[scan_value, pf, at_verdict, xi or None]``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            value, pf, _, verdict, xi, _ = line.split(",")
            rows.append([float(value), float(pf), verdict, float(xi) if xi else None])
    return rows
