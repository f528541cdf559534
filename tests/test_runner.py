"""``run_scan`` in-process: the values it scans and the order of its rows."""
from __future__ import annotations

import numpy as np

from multilambda import parse_config, run_scan

WIDTH_SCAN = """\
[system]
alphas = 1, 2
betas = 1, 0.5
detunings = 0.5, 1.5

[pulses]
omega0 = 1
width = 10

[integrator]
rel_tol = 1e-7
abs_tol = 1e-9

[scan]
axis = pulse_width
start = 2
stop = 16
points = {points}
log_scale = {log_scale}
"""


def test_log_scale_width_scan():
    cfg = parse_config(WIDTH_SCAN.format(points=4, log_scale="true"))
    values = cfg.scan.values()
    assert values[0] == 2.0 and values[-1] == 16.0
    assert np.allclose(values, [2.0, 4.0, 8.0, 16.0], rtol=1e-12, atol=0.0)
    rows = run_scan(cfg)
    assert [row.scan_value for row in rows] == values.tolist()
    assert all(0.0 <= row.pf <= 1.0 for row in rows)
