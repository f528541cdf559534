"""tools/bench_record.py: summaries of paired benchmark records."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def _record(workload: str, rate: float, rss: float, failed: int = 0, trace: bool = False) -> dict:
    return {
        "workload": workload, "seed": 301, "trace": trace, "seconds": 25.0,
        "attempted": 100, "failed": failed,
        "metrics": {
            "points_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def _write(tmp_path: Path, records: list[tuple[str, dict]]) -> list[str]:
    args = []
    for k, (side, record) in enumerate(records):
        path = tmp_path / f"r{k}.json"
        path.write_text(json.dumps(record))
        args.append(f"{side}={path}")
    return args


def test_summary_of_paired_runs(tmp_path):
    parent_rates = [10.0, 12.0, 11.0, 13.0, 9.0]
    change_rates = [14.0, 15.0, 10.0, 16.0, 14.5]
    records = []
    for k, (p, c) in enumerate(zip(parent_rates, change_rates)):
        pair = [("parent", _record("spectrum_track", p, 80.0)),
                ("change", _record("spectrum_track", c, 80.0 + k))]
        records += pair if k % 2 == 0 else pair[::-1]
    records.append(("parent", _record("spectrum_track", 1.0, 1.0, trace=True)))
    records.append(("change", _record("spectrum_track", 2.0, 1.0, failed=1, trace=True)))
    out = tmp_path / "BENCH_x.json"
    args = ["--pr", "x", "--parent-commit", "abc", "--what", "test", "--out", str(out)]
    assert bench_record.main(args + _write(tmp_path, records)) == 0
    bench = json.loads(out.read_text())
    assert bench["parent_commit"] == "abc"
    assert "--seconds 25 " in bench["command"]
    rate = bench["summary"]["spectrum_track@seed301"]["points_per_s"]
    assert rate["parent"] == parent_rates and rate["change"] == change_rates
    assert rate["parent_median"] == 11.0 and rate["change_median"] == 14.5
    assert rate["parent_quartiles"] == [10.0, 12.0] and rate["parent_iqr"] == 2.0
    # the third pair is lost; 4/5 wins is below nine tenths
    assert rate["change_wins"] == 4 and rate["pairs"] == 5 and not rate["gain"]
    assert rate["within_bound"] and rate["bound"] == 0.25
    # memory: lower is better, every change run is worse or tied; 82/80 is within 0.1
    rss = bench["summary"]["spectrum_track@seed301"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["within_bound"] and not rss["gain"]
    traced = bench["summary"]["spectrum_track@seed301/trace"]
    assert traced["failed"] == {"parent": 0, "change": 1} and not traced["all_correct"]
    assert traced["points_per_s"]["gain"]
    pairs = [(r["side"], r["pair"]) for r in bench["runs"][:4]]
    assert pairs == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]


def test_verdict_rules():
    gain = bench_record.metric_summary([10.0] * 9 + [12.0], [12.0] * 10, "higher", 0.25)
    assert gain["change_wins"] == 9 and gain["gain"]
    slower = bench_record.metric_summary([1.0] * 4, [1.3] * 4, "lower", 0.25)
    assert slower["change_wins"] == 0 and not slower["within_bound"]


@pytest.mark.parametrize("labels", [["parent", "parent", "change"], ["parent"], ["base", "change"]])
def test_refuses_unpaired_or_unlabelled_records(tmp_path, labels, capsys):
    records = [(side, _record("width_scan", 1.0, 1.0)) for side in labels]
    args = ["--pr", "x", "--parent-commit", "abc", "--what", "test",
            "--out", str(tmp_path / "out.json")]
    assert bench_record.main(args + _write(tmp_path, records)) == 2
    assert "bench_record:" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
