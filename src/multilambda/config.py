"""Run configuration: a small sectioned key-value text format.

A config file drives one simulation or one scan.  Sections are bracketed
headers; entries are `key = value` lines; `#` starts a comment.  Unknown
sections or keys are parse errors so that typos cannot silently fall back
to defaults.  Values may be numbers, fractions like -2/3 (kept exact to
double precision, which matters for constructing exactly-vanishing
detuning sums), booleans, or comma-separated number lists.

Each section's keys are the fields of the dataclass it builds, and every
value rule lives on that dataclass: ``MultiLambdaSystem``, ``PulsePair``,
``IntegratorConfig`` and ``ScanSpec`` refuse non-finite numbers and values
outside their domain, for library callers and config files alike.  A value
that is not a number is a ``ParseError`` carrying its line; a refused value
or a missing key is a ``ValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .dynamics import IntegratorConfig
from .errors import ParseError, ValidationError
from .model import MultiLambdaSystem, PulsePair

__all__ = [
    "ScanAxis",
    "ScanSpec",
    "OutputSpec",
    "RunConfig",
    "parse_config",
    "load_config",
]


class ScanAxis(Enum):
    PULSE_WIDTH = "pulse_width"
    COMMON_DETUNING = "common_detuning"


@dataclass(frozen=True)
class ScanSpec:
    """``points`` values from ``start`` to ``stop`` along one axis.

    ``axis`` may be given as its string value.
    """

    axis: ScanAxis
    start: float
    stop: float
    points: int
    log_scale: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", ScanAxis(self.axis))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("scan endpoints must be finite")
        if self.points < 2:
            raise ValueError("scan needs points >= 2")
        if self.log_scale and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log-scale scan needs positive endpoints")
        if self.axis is ScanAxis.PULSE_WIDTH and (self.start <= 0 or self.stop <= 0):
            raise ValueError("pulse-width scan needs positive widths")

    def values(self) -> np.ndarray:
        if self.log_scale:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class OutputSpec:
    csv_path: Path | None = None
    report_path: Path | None = None


@dataclass(frozen=True)
class RunConfig:
    system: MultiLambdaSystem
    pulses: PulsePair
    integrator: IntegratorConfig
    scan: ScanSpec | None
    output: OutputSpec


def _number(text: str) -> float:
    """Float literal, allowing a/b fractions for exact rational detunings."""
    num, slash, den = text.strip().partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text.strip()!r}") from None


def _numbers(text: str) -> tuple[float, ...]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_number(piece) for piece in items)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Section -> key -> value parser.  A parser raises ValueError on text that
# is not a value of its kind; enum values stay strings for the dataclass.
_SECTIONS = {
    "system": {"n": _integer, "alphas": _numbers, "betas": _numbers, "detunings": _numbers},
    "pulses": {"omega0": _number, "width": _number, "delay": _number},
    "integrator": {"rel_tol": _number, "abs_tol": _number, "t_start": _number,
                   "t_end": _number, "max_step": _number, "store_every": _integer},
    "scan": {"axis": str, "start": _number, "stop": _number, "points": _integer,
             "log_scale": _boolean},
    "output": {"csv": Path, "report": Path},
}


def _read_sections(text: str, source: str) -> dict[str, dict[str, object]]:
    """Section -> key -> parsed value, with syntax and value errors by line."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", line=lineno, source=source)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno, source=source)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno, source=source)
        if current is None:
            raise ParseError("entry before any section header", line=lineno, source=source)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[current]:
            raise ParseError(f"unknown key {key!r} in [{current}]", line=lineno, source=source)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", line=lineno, source=source)
        try:
            sections[current][key] = _SECTIONS[current][key](value.strip())
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno, source=source) from None
    return sections


def _build(cls, section: str, values: dict[str, object]):
    """``cls(**values)``; a missing key or a refused value is a ValidationError."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ValidationError(f"[{section}] needs key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def parse_config(text: str, source: str = "<string>", base_dir: Path | None = None) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Relative output paths are resolved against ``base_dir`` (the config
    file's directory when loaded from disk).
    """
    sections = _read_sections(text, source)
    if "system" not in sections:
        raise ValidationError("missing [system] section")
    n = sections["system"].pop("n", None)
    system = _build(MultiLambdaSystem, "system", sections["system"])
    if n is not None and n != system.n_intermediate:
        raise ValidationError(f"n = {n}, but the lists have {system.n_intermediate} entries")

    pulses = {"omega0": 1.0, "width": 30.0, **sections.get("pulses", {})}
    pulses.setdefault("delay", 0.5 * pulses["width"])
    if pulses["omega0"] <= 0:
        raise ValidationError("omega0 must be positive")

    scan = sections.get("scan")
    root = base_dir if base_dir is not None else Path.cwd()
    output = {key: root / path for key, path in sections.get("output", {}).items()}
    return RunConfig(
        system=system,
        pulses=_build(PulsePair, "pulses", pulses),
        integrator=_build(IntegratorConfig, "integrator", sections.get("integrator", {})),
        scan=None if scan is None else _build(ScanSpec, "scan", scan),
        output=OutputSpec(csv_path=output.get("csv"), report_path=output.get("report")),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a config file; parse errors carry the file name."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {p}: {exc.strerror}") from None
    return parse_config(text, source=str(p), base_dir=p.parent)
