"""Ready-made run configurations covering the package's canonical scenarios.

Each preset is a complete config file text.  Width scans sweep the pulse
duration at fixed parameters; detuning scans shift all detunings by a
common offset; time presets are single runs whose CSV row summarizes the
transfer.  The N=5 coupling constants were drawn once from a seeded
uniform generator on [0.5, 1.5] and frozen here as literals.
"""

from __future__ import annotations

from .errors import ConfigError

__all__ = ["PRESETS", "preset_names", "preset_text"]


def _preset(name: str, comment: str, system: str, width: float | None, scan: tuple | None) -> str:
    """Config text of one preset; ``scan`` is ``(axis, start, stop, points)``."""
    pulses = "omega0 = 1" if width is None else f"omega0 = 1\nwidth = {width:g}"
    scan_section = ""
    if scan is not None:
        axis, start, stop, points = scan
        scan_section = (
            f"[scan]\naxis = {axis}\nstart = {start:g}\nstop = {stop:g}\npoints = {points}\n\n"
        )
    return f"""# {comment}
[system]
{system}

[pulses]
{pulses}

{scan_section}[output]
csv = {name}.csv
report = {name}.txt
"""


_N3_DARK = """alphas = 1, 1, 1
betas = 1, 1, 1
detunings = 1, 2, 3"""

_N3_TRANSFER = """alphas = 1, 1, 1
betas = 1, 2, 1
detunings = 1, 2, -1"""

_N3_DOUBLE_ZERO = """alphas = 1, 1, 1
betas = 1, 1, 1
detunings = 1, 2, -2/3"""

_N3_BLOCKED = """alphas = 1, 4, 2
betas = 1, 1, 1
detunings = 1, 2, -2/3"""

_N2_LINKED = """alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5"""

_N2_BROKEN = """alphas = 1, 2
betas = 1, 0.5
detunings = -0.5, 0.5"""

_RES_DARK = """alphas = 1, 0.5
betas = 1, 0.5
detunings = 0, 1"""

_RES_GENERAL = """alphas = 1, 2
betas = 1, 0.5
detunings = 0, 1"""

_N5_RANDOM = """alphas = 1, 0.8270, 1.4873, 0.8187, 1.2885
betas = 1, 1.3699, 0.8911, 0.9379, 0.8727
detunings = 0, 1, 2, 3, 4"""

_LZ_COUPLINGS = "alphas = 1, 0.6, 1.2\nbetas = 1, 1, 0.6"

_WIDTHS = ("pulse_width", 2, 80, 40)
_LZ_WIDTHS = ("pulse_width", 2, 40, 39)
_N2_DETUNINGS = ("common_detuning", -2, 1, 301)
_N5_DETUNINGS = ("common_detuning", -6, 2, 241)

# name, comment, [system] body, pulse width (None on width scans), scan
_ROWS = (
    ("n3_dark_widths", "Proportional N=3 couplings: dark state carries the transfer.",
     _N3_DARK, None, _WIDTHS),
    ("n3_transfer_state_widths",
     "N=3 with vanishing zero-eigenvalue residual: general transfer state.",
     _N3_TRANSFER, None, _WIDTHS),
    ("n3_double_zero_widths",
     "Proportional N=3 with all detuning sums zero: doubly degenerate"
     " trapped state, transfer saturates below one.",
     _N3_DOUBLE_ZERO, None, _WIDTHS),
    ("n3_blocked_widths", "N=3 with a vanishing Stokes detuning sum: no transfer state.",
     _N3_BLOCKED, None, _WIDTHS),
    ("n2_linked_widths", "N=2 off-resonant, detuning sums share a sign: transfer converges.",
     _N2_LINKED, None, _WIDTHS),
    ("n2_broken_widths", "N=2 off-resonant, detuning sums of opposite sign: transfer dies off.",
     _N2_BROKEN, None, _WIDTHS),
    ("resonant_dark_widths", "One resonant state, proportional couplings: dark-state transfer.",
     _RES_DARK, None, _WIDTHS),
    ("resonant_general_widths",
     "One resonant state, non-proportional couplings: general transfer state.",
     _RES_GENERAL, None, _WIDTHS),
    ("lz_xi_zero_widths", "Cross detuning sum exactly zero: slowest approach to adiabaticity.",
     _LZ_COUPLINGS + "\ndetunings = -25/24, 1, 2", None, _LZ_WIDTHS),
    ("lz_xi_small_widths", "Small avoided-crossing parameter: slow approach to adiabaticity.",
     _LZ_COUPLINGS + "\ndetunings = -2, 1, 2", None, _LZ_WIDTHS),
    ("lz_xi_large_widths", "Large avoided-crossing parameter: fast approach to adiabaticity.",
     _LZ_COUPLINGS + "\ndetunings = -0.5, -1.5, -2.5", None, _LZ_WIDTHS),
    ("n3_dark_time", "Single adiabatic run of the proportional N=3 system.",
     _N3_DARK, 30, None),
    ("n3_transfer_state_time", "Single adiabatic run of the N=3 general-transfer-state system.",
     _N3_TRANSFER, 30, None),
    ("n2_linked_time", "Single run of the N=2 system whose eigenvalue curve links i to f.",
     _N2_LINKED, 30, None),
    ("n2_broken_time", "Single run of the N=2 system whose eigenvalue curve returns to i.",
     _N2_BROKEN, 30, None),
    ("resonant_dark_time",
     "Single resonant run, proportional couplings: intermediate states stay empty.",
     _RES_DARK, 80, None),
    ("resonant_general_time",
     "Single resonant run, non-proportional couplings: transient intermediate population.",
     _RES_GENERAL, 80, None),
    ("n2_detuning_scan_t20", "Common-detuning sweep of the N=2 system, moderate pulse area.",
     _RES_GENERAL, 20, _N2_DETUNINGS),
    ("n2_detuning_scan_t80", "Common-detuning sweep of the N=2 system, large pulse area.",
     _RES_GENERAL, 80, _N2_DETUNINGS),
    ("n5_detuning_scan_t20", "Common-detuning sweep across an N=5 manifold, moderate pulse area.",
     _N5_RANDOM, 20, _N5_DETUNINGS),
    ("n5_detuning_scan_t80", "Common-detuning sweep across an N=5 manifold, large pulse area.",
     _N5_RANDOM, 80, _N5_DETUNINGS),
)

PRESETS: dict[str, str] = {row[0]: _preset(*row) for row in _ROWS}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_text(name: str) -> str:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
