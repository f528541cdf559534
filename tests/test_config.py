from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from multilambda import (
    ConfigError,
    IntegratorConfig,
    MultiLambdaSystem,
    PulsePair,
    ScanAxis,
    ScanSpec,
    load_config,
    parse_config,
    report_text,
)
from multilambda import config
from multilambda.presets import preset_names, preset_text

from cases import NON_FINITE, mutated_presets

FULL_TEXT = """\
# two-pathway benchmark
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 30
delay = 15

[scan]
axis = common_detuning
start = -2
stop = 1
points = 61

[output]
csv = out/result.csv
report = out/result.txt
"""


def _init_fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls) if f.init}


def test_section_keys_are_dataclass_fields():
    # a section is built as cls(**values): a key that is no field would be
    # a TypeError, exit 1
    sections = config._SECTIONS
    assert set(sections) == {"system", "pulses", "scan", "output"}
    assert set(sections["system"]) == _init_fields(MultiLambdaSystem)
    assert set(sections["pulses"]) == _init_fields(PulsePair)
    assert set(sections["scan"]) == _init_fields(ScanSpec)
    assert [f.name for f in dataclasses.fields(ScanSpec)] == ["axis", "start", "stop", "points"]
    # [output] names two paths; the tolerances are a library argument only
    assert [f.name for f in dataclasses.fields(config.RunConfig)] == [
        "system", "pulses", "scan", "csv_path", "report_path"
    ]


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: PulsePair("1", 30, 15), "omega0 must be a real number, not str"),
        (lambda: PulsePair(None, 30, 15), "omega0 must be a real number, not NoneType"),
        (lambda: PulsePair(1, 30, [15]), "delay must be a real number, not list"),
        (lambda: IntegratorConfig(rel_tol="1e-10"), "rel_tol must be a real number, not str"),
        (lambda: IntegratorConfig(abs_tol=1e-12 + 0j),
         "abs_tol must be a real number, not complex"),
        (lambda: ScanSpec("pulse_width", "1", 2, 3), "scan start must be a real number, not str"),
        (lambda: ScanSpec("pulse_width", 1, None, 3),
         "scan stop must be a real number, not NoneType"),
        (lambda: MultiLambdaSystem((None,), (1,), (1,)),
         "alphas must be a real number, not NoneType"),
        (lambda: MultiLambdaSystem((1, 1), (1, 1j), (1, 2)),
         "betas must be a real number, not complex"),
        (lambda: MultiLambdaSystem((1,), (1,), ("2",)),
         "detunings must be a real number, not str"),
        # integers too large for a float: an OverflowError from float()
        (lambda: PulsePair(1, 10**400, 15), "width must be finite"),
        (lambda: MultiLambdaSystem((1,), (1,), (10**400,)), "detunings must be finite"),
    ],
    ids=["str", "none", "list", "str-tol", "complex-tol", "str-start", "none-stop",
         "none-alpha", "complex-beta", "str-detuning", "huge-int-width", "huge-int-detuning"],
)
def test_wrong_kind_is_value_error(build, message):
    # each was a TypeError or an OverflowError
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class TestParsing:
    def test_full_round_trip(self, tmp_path):
        cfg = parse_config(FULL_TEXT, source="full.conf", base_dir=tmp_path)
        assert cfg.system.alphas == (1.0, 2.0)
        assert cfg.system.betas == (1.0, 0.5)
        assert cfg.system.detunings == (0.5, 1.5)
        assert cfg.pulses.omega0 == 1.0
        assert cfg.pulses.width == 30.0
        assert cfg.pulses.delay == 15.0
        assert cfg.scan.axis is ScanAxis.COMMON_DETUNING
        assert cfg.scan.points == 61
        assert cfg.csv_path == tmp_path / "out" / "result.csv"
        assert cfg.report_path == tmp_path / "out" / "result.txt"

    def test_defaults(self):
        cfg = parse_config(
            "[system]\nalphas = 1\nbetas = 1\ndetunings = 2\n"
            "\n[pulses]\nwidth = 40\n"
        )
        assert cfg.pulses.omega0 == 1.0
        assert cfg.pulses.delay == 20.0  # locked to half the width
        assert cfg.scan is None
        assert cfg.csv_path is None
        assert cfg.report_path is None

    def test_fractions_parse_exactly(self):
        cfg = parse_config(
            "[system]\nalphas = 1, 1, 1\nbetas = 1, 1, 1\ndetunings = 1, 2, -2/3\n"
            "\n[pulses]\nwidth = 30\nomega0 = 1/4\n"
        )
        assert cfg.system.detunings[2] == -2.0 / 3.0
        assert cfg.pulses.omega0 == 0.25

    def test_scan_values(self):
        cfg = parse_config(
            "[system]\nalphas = 1\nbetas = 1\ndetunings = 1\n"
            "\n[pulses]\nwidth = 30\n"
            "\n[scan]\naxis = pulse_width\nstart = 2\nstop = 80\npoints = 5\n"
        )
        values = cfg.scan.values()
        assert len(values) == 5
        assert values[0] == 2.0 and values[-1] == 80.0
        assert np.allclose(np.diff(values), 19.5, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "alphas", ["1,, 2", "1, 2,", ""], ids=["empty-item", "trailing", "empty"]
    )
    def test_every_list_piece_is_a_number(self, alphas):
        # an empty piece was dropped, so "1,, 2" ran a two-state system
        with pytest.raises(ConfigError) as err:
            parse_config(f"[system]\nalphas = {alphas}\nbetas = 1, 1\ndetunings = 1, 2\n")
        assert str(err.value) == "<string>:2: not a number: ''"


class TestParseErrors:
    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[system]\nalphas = 1\n\n[pulse]\nwidth = 1\n", source="x.conf")
        assert str(err.value) == "x.conf:4: unknown section [pulse]"

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[system]\nalphas = 1\ntypo = 3\n")
        assert str(err.value) == "<string>:3: unknown key 'typo' in [system]"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("[system]\nalphas = 1\nalphas = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError):
            parse_config("[system]\nalphas = 1\n[system]\nbetas = 1\n")

    def test_entry_before_section(self):
        with pytest.raises(ConfigError):
            parse_config("alphas = 1\n")

    def test_bad_number(self):
        # a value its key's parser refuses is an error prefixed with its line
        for text, line in (("[system]\nalphas = zebra\nbetas = 1\ndetunings = 1\n", 2),
                           ("[system]\nalphas = 1\n[scan]\npoints = many\n", 4)):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value).startswith(f"<string>:{line}: ")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("[system]\nalphas\n")


class TestValidationErrors:
    def _conf(self, system="alphas = 1, 2\nbetas = 1, 0.5\ndetunings = 0.5, 1.5",
              pulses="width = 30", scan=""):
        text = f"[system]\n{system}\n\n[pulses]\n{pulses}\n"
        if scan:
            text += f"\n[scan]\n{scan}\n"
        return text

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(self._conf(system="alphas = 1, 2\nbetas = 1\ndetunings = 1, 2"))

    def test_normalization_enforced(self):
        with pytest.raises(ConfigError):
            parse_config(self._conf(system="alphas = 2, 1\nbetas = 1, 1\ndetunings = 1, 2"))

    def test_pulse_validation(self):
        with pytest.raises(ConfigError):
            parse_config(self._conf(pulses="width = -5"))
        with pytest.raises(ConfigError):
            parse_config(self._conf(pulses="width = 30\nomega0 = 0"))

    def test_scan_validation(self):
        with pytest.raises(ConfigError):
            parse_config(self._conf(scan="axis = pulse_width\nstart = 2\nstop = 80\npoints = 1"))
        with pytest.raises(ConfigError):
            parse_config(self._conf(
                scan="axis = pulse_width\nstart = -2\nstop = 80\npoints = 5"))
        with pytest.raises(ConfigError):
            parse_config(self._conf(scan="axis = sideways\nstart = 0\nstop = 1\npoints = 5"))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "inf/inf"])
    def test_non_finite_refused(self, text):
        for conf in (
            self._conf(system=f"alphas = 1, 2\nbetas = 1, 0.5\ndetunings = {text}, 1.5"),
            self._conf(pulses=f"width = {text}"),
            self._conf(pulses=f"width = 30\ndelay = {text}"),
            self._conf(scan=f"axis = common_detuning\nstart = -2\nstop = {text}\npoints = 5"),
        ):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(conf)

    def test_missing_system(self):
        with pytest.raises(ConfigError):
            parse_config("[pulses]\nwidth = 30\n")


class TestScanSpec:
    """The scan rules hold for library-built specs, not only parsed ones."""

    def test_axis_coerced_from_string(self):
        spec = ScanSpec(axis="pulse_width", start=2.0, stop=80.0, points=5)
        assert spec.axis is ScanAxis.PULSE_WIDTH
        with pytest.raises(ValueError):
            ScanSpec(axis="sideways", start=0.0, stop=1.0, points=5)

    def test_rules(self):
        with pytest.raises(ValueError, match="points"):
            ScanSpec(ScanAxis.COMMON_DETUNING, start=-1.0, stop=1.0, points=1)
        for bad in (3.0, 2.5, True, "5"):
            with pytest.raises(ValueError, match="integer"):
                ScanSpec(ScanAxis.COMMON_DETUNING, start=-1.0, stop=1.0, points=bad)
        assert ScanSpec(ScanAxis.COMMON_DETUNING, -1.0, 1.0, np.int32(3)).values().size == 3
        with pytest.raises(ValueError, match="widths"):
            ScanSpec(ScanAxis.PULSE_WIDTH, start=0.0, stop=10.0, points=5)
        with pytest.raises(ValueError, match="differ"):
            ScanSpec(ScanAxis.COMMON_DETUNING, start=1.0, stop=1.0, points=3)

    def test_overflowing_span_refused(self):
        # np.linspace warned twice and returned nan, inf, 1e308
        for start, stop in ((-1e308, 1e308), (1e308, -1e308)):
            with pytest.raises(ValueError, match="^scan span must be finite$"):
                ScanSpec(ScanAxis.COMMON_DETUNING, start=start, stop=stop, points=3)
        assert ScanSpec(ScanAxis.COMMON_DETUNING, -8e307, 8e307, 3).values()[1] == 0.0

    @pytest.mark.parametrize("points", [10**23, 2**60])
    def test_point_count_beyond_numpy_refused(self, points):
        # np.linspace once raised "Maximum allowed size exceeded" at scan time;
        # no count at or below the bound is tried, which NumPy would allocate
        with pytest.raises(ValueError, match="at most"):
            ScanSpec(ScanAxis.COMMON_DETUNING, start=-1.0, stop=1.0, points=points)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_refused(self, bad):
        for start, stop in ((bad, 1.0), (-1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                ScanSpec(ScanAxis.COMMON_DETUNING, start=start, stop=stop, points=5)


class TestFiles:
    def test_load_config(self, tmp_path: Path):
        p = tmp_path / "run.conf"
        p.write_text(FULL_TEXT)
        cfg = load_config(p)
        assert cfg.system.n_intermediate == 2
        assert cfg.csv_path == tmp_path / "out" / "result.csv"
        assert cfg.report_path == tmp_path / "out" / "result.txt"

    def test_byte_order_mark_is_dropped(self, tmp_path: Path):
        # an editor's UTF-8 byte-order mark once stayed in front of the first
        # line: "run.conf:1: expected key = value"; only one mark is dropped
        p = tmp_path / "run.conf"
        p.write_text("\ufeff" + FULL_TEXT, encoding="utf-8")
        assert load_config(p) == parse_config(FULL_TEXT, base_dir=tmp_path)
        p.write_text("\ufeff\ufeff" + FULL_TEXT, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert str(err.value) == f"{p}:1: expected key = value"

    def test_missing_file(self, tmp_path: Path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.conf")


class TestPresets:
    def test_catalog_is_complete(self):
        names = preset_names()
        assert len(names) == 21
        assert names == sorted(names)
        assert "n3_dark_widths" in names
        assert "n2_detuning_scan_t80" in names

    def test_every_preset_parses(self):
        for name in preset_names():
            cfg = parse_config(preset_text(name), source=name)
            assert cfg.system.n_intermediate >= 1
            assert cfg.csv_path is not None and cfg.report_path is not None

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_text("does_not_exist")

    def test_reports_match_pinned(self):
        # preset_reports.txt holds report_text of every preset, each under a
        # "== name ==" header; regenerate it only for an intended change.
        pinned = (Path(__file__).parent / "preset_reports.txt").read_text()
        reports = "".join(
            f"== {name} ==\n" + report_text(parse_config(preset_text(name)))
            for name in preset_names()
        )
        assert reports == pinned


class TestMalformedPresets:
    @settings(max_examples=300, deadline=None)
    @given(text=mutated_presets())
    def test_edits_raise_only_config_errors(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(text=mutated_presets(malformed=True))
    def test_malformed_edits_are_refused(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)
