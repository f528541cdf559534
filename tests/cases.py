"""Shared parameter sets and pinned reference values.

Every constant marked pinned was computed before the tests were written,
through a route independent of the code under test (hand algebra on the
closed forms, scipy quadrature, or a high-order reference integrator), and
is frozen here so a regression cannot silently move it.
"""

from __future__ import annotations

from hypothesis import strategies as st

from multilambda import MultiLambdaSystem, PulsePair
from multilambda.presets import preset_names, preset_text


def pulses(width: float, omega0: float = 1.0) -> PulsePair:
    """Standard pulse pair: delay locked to half the width."""
    return PulsePair(omega0=omega0, width=width, delay=0.5 * width)


# Two-pathway systems.  LINKED has both detuning sums positive (transfer
# works); BROKEN is the same system shifted to where the sums have opposite
# signs (transfer blocked).  SCAN_BASE is the base point of the
# common-detuning scan; shifting it by -0.5 gives BROKEN, by +0.5 LINKED.
LINKED = MultiLambdaSystem((1, 2), (1, 0.5), (0.5, 1.5))
BROKEN = MultiLambdaSystem((1, 2), (1, 0.5), (-0.5, 0.5))
SCAN_BASE = MultiLambdaSystem((1, 2), (1, 0.5), (0, 1))
# LINKED with its first detuning moved next to resonance: the sums are about
# 1e9, and S_a2 S_b2 - S_ab^2 = 1.5e9 is a tiny fraction of the products
# of order 1e18 that cancel in it.  Yet det H(1, 1) = 2.25 and the smallest
# |eigenvalue| is 0.42: there is no zero eigenvalue.
NEAR_RES = MultiLambdaSystem((1, 2), (1, 0.5), (1e-9, 1.5))

# One exactly resonant pathway: proportional couplings give a dark transfer
# state, non-proportional ones a general transfer state.
RES_DARK = MultiLambdaSystem((1, 0.5), (1, 0.5), (0, 1))
RES_GENERAL = MultiLambdaSystem((1, 2), (1, 0.5), (0, 1))

# Three-pathway constructions.
DARK3 = MultiLambdaSystem((1, 1, 1), (1, 1, 1), (1, 2, 3))
TRANSFER = MultiLambdaSystem((1, 1, 1), (1, 2, 1), (1, 2, -1))
# detunings (1, 2, -2/3) make every detuning sum vanish for unit couplings
DOUBLE_ZERO = MultiLambdaSystem((1, 1, 1), (1, 1, 1), (1, 2, -2 / 3))
# same detunings, pump weights chosen so only the Stokes sum vanishes
BLOCKED = MultiLambdaSystem((1, 4, 2), (1, 1, 1), (1, 2, -2 / 3))
PUMP_BLOCKED = MultiLambdaSystem((1, 1, 1), (1, 4, 2), (1, 2, -2 / 3))

# Neither sum is individually zero but their product falls below the
# relative classification threshold: the verdict must be flagged marginal.
MARGINAL = MultiLambdaSystem((1, 1), (1, 2), (1.0, -1.0000000026))

# Degenerate-resonance variants.
DEGEN_PROP = MultiLambdaSystem((1, 0.5, 2), (1, 0.5, 2), (0.0, 0.0, 1.0))
DEGEN_PROP_RES_ONLY = MultiLambdaSystem((1, 0.5, 2), (1, 0.5, 0.7), (0.0, 0.0, 1.0))
DEGEN_NONPROP_2 = MultiLambdaSystem((1, 0.5), (1, 0.7), (0.0, 0.0))
DEGEN_NONPROP_3 = MultiLambdaSystem((1, 0.5, 0.7), (1, 0.3, 0.9), (0.0, 0.0, 0.0))

# Four pathways, three of them resonant with proportional couplings: the
# reduction to a single boosted resonant pathway must be exact.
DEGEN_REDUCIBLE = MultiLambdaSystem(
    (1, 0.7, 1.3, 1.5), (1, 0.7, 1.3, 0.6), (0.0, 0.0, 0.0, 2.0)
)

# Fixed couplings with three detuning sets of increasing crossing-speed
# parameter xi.  The first set has S_ab = 0 exactly by construction
# (-24/25 + 0.6 + 0.36 = 0), so xi = 0.
LZ_ALPHAS = (1, 0.6, 1.2)
LZ_BETAS = (1, 1, 0.6)
LZ_ZERO = MultiLambdaSystem(LZ_ALPHAS, LZ_BETAS, (-25 / 24, 1, 2))
LZ_SMALL = MultiLambdaSystem(LZ_ALPHAS, LZ_BETAS, (-2, 1, 2))
LZ_LARGE = MultiLambdaSystem(LZ_ALPHAS, LZ_BETAS, (-0.5, -1.5, -2.5))

# Eight pathways with identical detunings: mid-pulse the Hamiltonian holds a
# six-fold degenerate eigenspace, so a two-point time grid cannot follow the
# eigenvectors and continuation must be refused.
AMBIGUOUS = MultiLambdaSystem(
    (1.0, 0.585649, 0.736811, 1.301274, 1.082162, 0.594129, 0.933127, 0.979051),
    (1.0, 0.659739, 1.234577, 0.613672, 0.891228, 1.01674, 0.930628, 1.086799),
    (1.0,) * 8,
)

# Pinned: detuning sums of LINKED are (14/3, 13/6, 8/3) by hand algebra;
# the crossing-speed parameters follow from them in closed form.
XI_LINKED = 0.630090891
TC_OVER_T_LINKED = -0.191813788

# Pinned: closed-form xi and t_c (at width 20, delay 10) of the three sets.
LZ_XI = {"zero": 0.0, "small": 0.101858302, "large": 0.778861255}
LZ_TC_W20 = {"zero": 3.03067902, "small": 0.795323473, "large": -0.00947867582}

# Pinned: scipy quadrature of the two-level oscillation integral for
# DOUBLE_ZERO; independent of the pulse width when delay/width is fixed.
PF_PREDICTION_DOUBLE_ZERO = 0.488469973

# Pinned: largest transient intermediate population at width 30.  SciPy
# solve_ivp (DOP853, rtol 1e-13, atol 1e-14) with dense output over the
# default window; the argmax on a 1e-3 grid is refined by a bounded
# minimize_scalar between its two grid neighbours.
PEAK_MID_W30 = {
    "linked": 0.18031827800559028,
    "res_general": 0.35154665264354834,
    "dark3": 0.0014698789406470338,
    "transfer": 0.2184523748559571,
    "broken": 0.9144172898546171,
}

# Pinned: the same at width 4, computed the same way.  At this width an
# accepted step is a larger share of the pulse than at width 30.
PEAK_MID_W4 = {
    "linked": 0.28024652782906584,
    "res_general": 0.5383796409223427,
    "dark3": 0.02338225910870067,
    "transfer": 0.35636273955522724,
    "broken": 0.9202313030241787,
}

# Pinned: boundaries of the no-transfer window of SCAN_BASE, exact roots of
# 1/x + 4/(1+x) = 0 and 1/x + 0.25/(1+x) = 0.
WINDOW_BOUNDS = (-0.8, -0.2)


# Malformed-config fuzzing: edits of the bundled preset texts.
_NUMERIC_KEYS = ("alphas", "betas", "detunings", "omega0", "width", "start", "stop", "points")
# Values no numeric key accepts, whichever section it sits in: text that is
# not a number, and numbers that are not finite (1e400 overflows to inf,
# inf/inf is nan).
NOT_NUMBERS = (
    "x", "1.2.3", "1/0", "--1", "2e", "0x1p3", "1/2/3", "nan", "inf", "-inf", "1e400", "inf/inf"
)
# Non-finite floats, which every run-input dataclass refuses.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _numeric(line: str) -> bool:
    return line.partition("=")[0].strip() in _NUMERIC_KEYS


@st.composite
def mutated_presets(draw, malformed: bool = False) -> str:
    """A preset text with lines dropped or duplicated or a number corrupted.

    A corrupted number has one list item replaced by arbitrary text.  With
    ``malformed`` a last edit makes the text invalid for certain: it
    duplicates a key or section line, or replaces a numeric value with one
    of ``NOT_NUMBERS``.
    """
    lines = preset_text(draw(st.sampled_from(preset_names()))).splitlines()
    for _ in range(draw(st.integers(0 if malformed else 1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "corrupt")))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif _numeric(lines[i]):
            key, _, value = lines[i].partition("=")
            items = value.split(",")
            items[draw(st.integers(0, len(items) - 1))] = draw(st.text(max_size=8))
            lines[i] = key + "=" + ",".join(items)
    if malformed:
        edit = draw(st.sampled_from(("key", "section", "number")))
        if edit == "number":
            i = draw(st.sampled_from([k for k, line in enumerate(lines) if _numeric(line)]))
            lines[i] = lines[i].partition("=")[0] + "= " + draw(st.sampled_from(NOT_NUMBERS))
        else:
            if edit == "key":
                pick = [k for k, line in enumerate(lines) if "=" in line and line[0] != "#"]
            else:
                pick = [k for k, line in enumerate(lines) if line.startswith("[")]
            lines.insert(draw(st.integers(0, len(lines))), lines[draw(st.sampled_from(pick))])
    return "\n".join(lines) + "\n"
