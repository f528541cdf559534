"""``run_scan`` in-process: the values it scans, the order of its rows and the
points it refuses."""
from __future__ import annotations

import numpy as np
import pytest

from multilambda import ConfigError, parse_config, run_scan

WIDTH_SCAN = """\
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 10

[scan]
axis = pulse_width
start = 2
stop = 16
points = 4
"""


def test_linear_width_scan():
    cfg = parse_config(WIDTH_SCAN)
    values = cfg.scan.values()
    assert values[0] == 2.0 and values[-1] == 16.0
    assert np.allclose(values, [2.0, 20 / 3, 34 / 3, 16.0], rtol=1e-12, atol=0.0)
    rows = run_scan(cfg)
    assert [row.scan_value for row in rows] == values.tolist()
    assert all(0.0 <= row.pf <= 1.0 for row in rows)


def test_refused_scan_point_names_its_value():
    # delta_1 delta_2 at the middle value underflows: the constructor refuses
    # that point, which once escaped as a bare ValueError
    cfg = parse_config(
        "[system]\nalphas = 1, 2\nbetas = 1, 1\ndetunings = 1e-150, 1e-150\n"
        "\n[scan]\naxis = common_detuning\nstart = -1e-150\nstop = -0.99999e-150\npoints = 3\n"
    )
    with pytest.raises(ConfigError, match=r"^at scan value -9\.99995e-151: detuning sums"):
        run_scan(cfg)
