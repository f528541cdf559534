from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from multilambda import (
    ConfigError,
    ParseError,
    ScanAxis,
    ScanSpec,
    ValidationError,
    load_config,
    parse_config,
)
from multilambda.presets import preset_names, preset_text

from cases import NON_FINITE, mutated_presets

FULL_TEXT = """\
# two-pathway benchmark
[system]
n = 2
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 30
delay = 15

[integrator]
rel_tol = 1e-9
abs_tol = 1e-11
store_every = 5

[scan]
axis = common_detuning
start = -2
stop = 1
points = 61

[output]
csv = out/result.csv
report = out/result.txt
"""


class TestParsing:
    def test_full_round_trip(self, tmp_path):
        cfg = parse_config(FULL_TEXT, source="full.conf", base_dir=tmp_path)
        assert cfg.system.alphas == (1.0, 2.0)
        assert cfg.system.betas == (1.0, 0.5)
        assert cfg.system.detunings == (0.5, 1.5)
        assert cfg.pulses.omega0 == 1.0
        assert cfg.pulses.width == 30.0
        assert cfg.pulses.delay == 15.0
        assert cfg.integrator.rel_tol == 1e-9
        assert cfg.integrator.abs_tol == 1e-11
        assert cfg.integrator.store_every == 5
        assert cfg.scan.axis is ScanAxis.COMMON_DETUNING
        assert cfg.scan.points == 61
        assert cfg.output.csv_path == tmp_path / "out" / "result.csv"
        assert cfg.output.report_path == tmp_path / "out" / "result.txt"

    def test_defaults(self):
        cfg = parse_config(
            "[system]\nalphas = 1\nbetas = 1\ndetunings = 2\n"
            "\n[pulses]\nwidth = 40\n"
        )
        assert cfg.pulses.omega0 == 1.0
        assert cfg.pulses.delay == 20.0  # locked to half the width
        assert cfg.scan is None
        assert cfg.output.csv_path is None
        assert cfg.integrator.rel_tol == 1e-10

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
            "\n[scan]\naxis = pulse_width\nstart = 2\nstop = 80\npoints = 5\nlog_scale = true\n"
        )
        values = cfg.scan.values()
        assert len(values) == 5
        assert values[0] == pytest.approx(2.0)
        assert values[-1] == pytest.approx(80.0)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert ratios[0] == pytest.approx(ratios[-1], rel=1e-12)


class TestParseErrors:
    def test_unknown_section_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("[system]\nalphas = 1\n\n[pulse]\nwidth = 1\n", source="x.conf")
        assert err.value.line == 4
        assert "pulse" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_config("[system]\nalphas = 1\ntypo = 3\n")
        assert err.value.line == 3

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("[system]\nalphas = 1\nalphas = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError):
            parse_config("[system]\nalphas = 1\n[system]\nbetas = 1\n")

    def test_entry_before_section(self):
        with pytest.raises(ParseError):
            parse_config("alphas = 1\n")

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_config("[system]\nalphas = zebra\nbetas = 1\ndetunings = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("[system]\nalphas\n")


class TestValidationErrors:
    def _conf(self, system="alphas = 1, 2\nbetas = 1, 0.5\ndetunings = 0.5, 1.5",
              pulses="width = 30", scan=""):
        text = f"[system]\n{system}\n\n[pulses]\n{pulses}\n"
        if scan:
            text += f"\n[scan]\n{scan}\n"
        return text

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            parse_config(self._conf(system="alphas = 1, 2\nbetas = 1\ndetunings = 1, 2"))

    def test_n_cross_check(self):
        with pytest.raises(ValidationError):
            parse_config(self._conf(system="n = 3\nalphas = 1, 2\nbetas = 1, 1\ndetunings = 1, 2"))

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError):
            parse_config(self._conf(system="alphas = 2, 1\nbetas = 1, 1\ndetunings = 1, 2"))

    def test_pulse_validation(self):
        with pytest.raises(ValidationError):
            parse_config(self._conf(pulses="width = -5"))
        with pytest.raises(ValidationError):
            parse_config(self._conf(pulses="width = 30\nomega0 = 0"))

    def test_scan_validation(self):
        with pytest.raises(ValidationError):
            parse_config(self._conf(scan="axis = pulse_width\nstart = 2\nstop = 80\npoints = 1"))
        with pytest.raises(ValidationError):
            parse_config(self._conf(
                scan="axis = pulse_width\nstart = -2\nstop = 80\npoints = 5"))
        with pytest.raises(ValidationError):
            parse_config(self._conf(
                scan="axis = common_detuning\nstart = -2\nstop = 1\npoints = 5\nlog_scale = true"))
        with pytest.raises(ValidationError):
            parse_config(self._conf(scan="axis = sideways\nstart = 0\nstop = 1\npoints = 5"))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "inf/inf"])
    def test_non_finite_refused(self, text):
        for conf in (
            self._conf(system=f"alphas = 1, 2\nbetas = 1, 0.5\ndetunings = {text}, 1.5"),
            self._conf(pulses=f"width = {text}"),
            self._conf(pulses=f"width = 30\ndelay = {text}"),
            self._conf(scan=f"axis = common_detuning\nstart = -2\nstop = {text}\npoints = 5"),
            self._conf() + f"\n[integrator]\nmax_step = {text}\n",
        ):
            with pytest.raises(ValidationError, match="finite"):
                parse_config(conf)

    def test_missing_system(self):
        with pytest.raises(ValidationError):
            parse_config("[pulses]\nwidth = 30\n")

    def test_integrator_validation(self):
        text = ("[system]\nalphas = 1\nbetas = 1\ndetunings = 1\n"
                "\n[pulses]\nwidth = 30\n\n[integrator]\nrel_tol = 0\n")
        with pytest.raises(ValidationError):
            parse_config(text)


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
        with pytest.raises(ValueError, match="log-scale"):
            ScanSpec(ScanAxis.COMMON_DETUNING, start=-1.0, stop=1.0, points=5, log_scale=True)
        with pytest.raises(ValueError, match="widths"):
            ScanSpec(ScanAxis.PULSE_WIDTH, start=0.0, stop=10.0, points=5)

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
        assert cfg.output.csv_path == tmp_path / "out" / "result.csv"

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
            assert cfg.output.csv_path is not None

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_text("does_not_exist")


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
