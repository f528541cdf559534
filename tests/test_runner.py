"""``run_scan`` in-process: the values it scans and the processes it starts."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from multilambda import parse_config, run_scan, runner

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


def _without_seconds(rows):
    return [dataclasses.replace(row, seconds=0.0) for row in rows]


def test_log_scale_width_scan():
    cfg = parse_config(WIDTH_SCAN.format(points=4, log_scale="true"))
    values = cfg.scan.values()
    assert values[0] == 2.0 and values[-1] == 16.0
    assert np.allclose(values, [2.0, 4.0, 8.0, 16.0], rtol=1e-12, atol=0.0)
    rows = run_scan(cfg)
    assert [row.scan_value for row in rows] == values.tolist()
    assert all(0.0 <= row.pf <= 1.0 for row in rows)


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (8, [5]), (1, []), (None, [])])
def test_threads_capped_at_cpu_count(monkeypatch, cpus, pools):
    # five points asked for on 500 threads: one chunk per CPU, never more
    # chunks than points, and no pool at all when one chunk remains
    cfg = parse_config(WIDTH_SCAN.format(points=5, log_scale="false"))
    serial = run_scan(cfg)
    started = []

    class SerialPool:
        """Records its ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
    rows = run_scan(cfg, threads=500)
    assert started == pools
    assert _without_seconds(rows) == _without_seconds(serial)
