"""Run configuration: a small sectioned key-value text format.

A config file drives one simulation or one scan.  It has four sections,
``[system]``, ``[pulses]``, ``[scan]`` and ``[output]``, as bracketed
headers; entries are `key = value` lines; `#` starts a comment.  Unknown
sections or keys are parse errors so that typos cannot silently fall back
to defaults.  Values may be numbers, fractions like -2/3 (kept exact to
double precision, which matters for constructing exactly-vanishing
detuning sums), or comma-separated number lists.  Every piece of a list
must be a number, so an empty item or a trailing comma is an error.

The keys of the first three are the fields of the dataclass each builds,
and the value rules live on that dataclass: ``MultiLambdaSystem``,
``PulsePair`` and ``ScanSpec`` refuse non-finite numbers and values outside
their domain, for library callers and config files alike.  ``[output]``
names the CSV and report files, ``RunConfig.csv_path`` and ``report_path``.
Two conventions hold for config files only and are checked here:
``omega0`` is positive, and the first coupling pair is normalized,
alphas[0] == betas[0] == 1.  Every problem is a ``ConfigError``; one found
while reading the text, such as a value that is not a number, has its
message prefixed with ``<source>:<line>: ``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import MultiLambdaSystem, PulsePair, _real

__all__ = [
    "ScanAxis",
    "ScanSpec",
    "RunConfig",
    "parse_config",
    "load_config",
]


# The most float64 values one NumPy array can describe; np.linspace refuses
# more with "Maximum allowed size exceeded".
_MAX_POINTS = np.iinfo(np.intp).max // 8


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", ScanAxis(self.axis))
        _real("scan start", self.start)
        _real("scan stop", self.stop)
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("scan endpoints must be finite")
        if self.start == self.stop:
            raise ValueError("scan endpoints must differ")
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValueError("scan span must be finite")
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise ValueError("scan points must be an integer")
        if self.points < 2:
            raise ValueError("scan needs points >= 2")
        if self.points > _MAX_POINTS:
            raise ValueError(f"scan points must be at most {_MAX_POINTS}")
        if self.axis is ScanAxis.PULSE_WIDTH and (self.start <= 0 or self.stop <= 0):
            raise ValueError("pulse-width scan needs positive widths")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    system: MultiLambdaSystem
    pulses: PulsePair
    scan: ScanSpec | None
    csv_path: Path | None
    report_path: Path | None


def _number(text: str) -> float:
    """Float literal, allowing a/b fractions for exact rational detunings."""
    num, slash, den = text.strip().partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text.strip()!r}") from None


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_number(piece) for piece in text.split(","))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


# Section -> key -> value parser.  A parser raises ValueError on text that
# is not a value of its kind; enum values stay strings for the dataclass.
_SECTIONS = {
    "system": {"alphas": _numbers, "betas": _numbers, "detunings": _numbers},
    "pulses": {"omega0": _number, "width": _number, "delay": _number},
    "scan": {"axis": str, "start": _number, "stop": _number, "points": _integer},
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
        at = f"{source}:{lineno}: "
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(at + f"unknown section [{name}]")
            if name in sections:
                raise ConfigError(at + f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(at + "expected key = value")
        if current is None:
            raise ConfigError(at + "entry before any section header")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[current]:
            raise ConfigError(at + f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(at + f"duplicate key {key!r}")
        try:
            sections[current][key] = _SECTIONS[current][key](value.strip())
        except ValueError as exc:
            raise ConfigError(at + str(exc)) from None
    return sections


def _build(cls, section: str, values: dict[str, object]):
    """``cls(**values)``; a missing key or a refused value is a ConfigError."""
    for f in fields(cls):
        if f.init and f.default is MISSING and f.name not in values:
            raise ConfigError(f"[{section}] needs key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str, source: str = "<string>", base_dir: Path | None = None) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Relative output paths are resolved against ``base_dir`` (the config
    file's directory when loaded from disk).
    """
    sections = _read_sections(text, source)
    if "system" not in sections:
        raise ConfigError("missing [system] section")
    system = _build(MultiLambdaSystem, "system", sections["system"])
    if system.alphas[0] != 1.0 or system.betas[0] != 1.0:
        raise ConfigError("first coupling pair must be normalized to 1")

    pulses = {"omega0": 1.0, "width": 30.0, **sections.get("pulses", {})}
    pulses.setdefault("delay", 0.5 * pulses["width"])
    if pulses["omega0"] <= 0:
        raise ConfigError("omega0 must be positive")

    scan = sections.get("scan")
    root = base_dir if base_dir is not None else Path.cwd()
    output = {key: root / path for key, path in sections.get("output", {}).items()}
    return RunConfig(
        system=system,
        pulses=_build(PulsePair, "pulses", pulses),
        scan=None if scan is None else _build(ScanSpec, "scan", scan),
        csv_path=output.get("csv"),
        report_path=output.get("report"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a config file; parse errors carry the file name."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, source=str(p), base_dir=p.parent)
