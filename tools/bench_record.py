"""Collect benchmark run records of a parent and a change into one BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 13 --parent-commit <hash> --what "<text>" \\
        parent=runs/p1.json change=runs/c1.json change=runs/c2.json parent=runs/p2.json ...

Each positional argument labels one ``result.json`` record, as ``bench/run.py``
writes it under ``.bench_work/`` of the checkout it ran in, as a ``parent`` or
a ``change`` run.  Records are grouped by workload, seed and trace setting; in
each group the i-th parent and the i-th change record, in argument order, form
pair i, and both sides must have the same number of records.

For each group and each metric of ``BENCHMARK.json`` found in its records the
summary gives both sides' values, medians and quartiles (linear
interpolation), the parent's interquartile range, and the pairs the change
wins, ties counting for neither.  ``gain`` is true when the change wins at
least nine tenths of the pairs and its median is better than the parent's by
more than the parent's interquartile range.  For the end-to-end metrics
``within_bound`` is true when the change's median is worse than the parent's
by no more than the metric's bound, as a fraction of the parent's median.
The output file (``BENCH_<pr>.json`` in the repository root unless ``--out``
says otherwise) also keeps every record with its side and pair number.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Share of the pairs the change must win before a gain may be claimed.
WIN_SHARE = 0.9


def load_labelled(args: list[str]) -> list[tuple[str, dict]]:
    """``side=path`` arguments as (side, record) in argument order."""
    labelled = []
    for arg in args:
        side, sep, path = arg.partition("=")
        if not sep or side not in SIDES:
            raise ValueError(f"expected parent=PATH or change=PATH, got {arg!r}")
        labelled.append((side, json.loads(Path(path).read_text(encoding="utf-8"))))
    return labelled


def group_name(record: dict) -> str:
    name = f"{record['workload']}@seed{record['seed']}"
    return f"{name}/trace" if record["trace"] else name


def metric_summary(parent: list[float], change: list[float], better: str,
                   bound: float | None) -> dict:
    """Medians, quartiles, pair wins and verdicts of one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75]).tolist()
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75]).tolist()
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    summary = {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": [p_q1, p_q3],
        "change_quartiles": [c_q1, c_q3],
        "parent_iqr": p_q3 - p_q1,
        "change_wins": wins,
        "pairs": len(parent),
        "gain": bool(wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1),
    }
    if bound is not None:
        worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
        summary["bound"] = bound
        summary["within_bound"] = bool(worse <= bound)
    return summary


def collect(labelled: list[tuple[str, dict]], manifest: dict) -> tuple[dict, list[dict]]:
    """Summary by group and the runs with their side and pair number."""
    groups: dict[str, dict[str, list[dict]]] = {}
    runs = []
    for side, record in labelled:
        sides = groups.setdefault(group_name(record), {s: [] for s in SIDES})
        sides[side].append(record)
        runs.append({"side": side, "pair": len(sides[side]), "record": record})
    metrics = [(m, m.get("bound")) for m in manifest["end_to_end"]]
    metrics += [(m, None) for m in manifest["per_layer"]]
    summary = {}
    for name, sides in groups.items():
        parent, change = sides["parent"], sides["change"]
        if len(parent) != len(change) or not parent:
            raise ValueError(
                f"{name}: {len(parent)} parent and {len(change)} change records; need equal, nonzero"
            )
        entry: dict = {}
        for metric, bound in metrics:
            key = metric["name"]
            if all(key in r["metrics"] for r in parent + change):
                entry[key] = metric_summary(
                    [r["metrics"][key]["value"] for r in parent],
                    [r["metrics"][key]["value"] for r in change],
                    metric["better"], bound,
                )
        entry["failed"] = {s: sum(r["failed"] for r in sides[s]) for s in SIDES}
        entry["attempted"] = {s: sum(r["attempted"] for r in sides[s]) for s in SIDES}
        entry["all_correct"] = all(r["failed"] == 0 for r in parent + change)
        summary[name] = entry
    return summary, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--what", required=True, help="one line on what the runs compare")
    parser.add_argument("--note", default="", help="how the runs were made, appended to method")
    parser.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json in the repo)")
    parser.add_argument("records", nargs="+", metavar="SIDE=PATH")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        summary, runs = collect(load_labelled(args.records), manifest)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    seconds = sorted({run["record"]["seconds"] for run in runs})
    method = ("pairs of one parent and one change run of bench/run.py; in each workload, "
              "seed and trace group the i-th parent and i-th change record form pair i; "
              "quartiles by linear interpolation")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "what": args.what,
        "command": "python3 bench/run.py --workload <w> --seed <s> --seconds "
                   f"{'/'.join(f'{s:g}' for s in seconds)} --trace <t>",
        "parent_commit": args.parent_commit,
        "method": f"{method}. {args.note}".strip() if args.note else method,
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        for key, metric in entry.items():
            if isinstance(metric, dict) and "pairs" in metric:
                print(f"{name} {key}: parent {metric['parent_median']:.6g} "
                      f"change {metric['change_median']:.6g} "
                      f"wins {metric['change_wins']}/{metric['pairs']} "
                      f"iqr {metric['parent_iqr']:.3g} gain {metric['gain']}"
                      + (f" within_bound {metric['within_bound']}"
                         if "within_bound" in metric else ""))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
