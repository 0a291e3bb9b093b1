"""Compare benchmark results of a change against its parent.

    python3 perf/compare.py A.json [B.json ...] --against P.json [Q.json ...]

``A..`` are results of the change and ``P..`` of the parent, as written
by ``perf/run.py --out``.  The runs of one side are pooled: every
repetition recorded in every file of that side is one run.  For each
workload and end-to-end metric, with the metric's bound from
``BENCHMARK.json``:

``regressed``   the change's median is worse than the parent's by more
                than the bound, and the spread does not hide it (or every
                change run is worse than every parent run);
``improved``    the change wins at least nine tenths of all (change,
                parent) run pairs, ties counting for neither, and the
                medians differ by more than the parent's quartile distance;
``unresolved``  the run-to-run spread of either side, its quartile
                distance over its median, is wider than the bound, unless
                every change run is better than every parent run;
``unchanged``   otherwise.

``error_rate`` (failed over attempted cells) regresses on any rise.  The
exit status is 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: Sequence[float]):
    """First and third quartile by linear interpolation between runs.
    (The default ``exclusive`` method returns the minimum and maximum
    of three runs, one full-mode result file's worth.)"""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(change: Sequence[float], parent: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """The verdict on one metric, with the numbers behind it."""
    sign = 1.0 if better == "lower" else -1.0
    med_c, med_p = statistics.median(change), statistics.median(parent)
    q1_c, q3_c = _quartiles(change)
    q1_p, q3_p = _quartiles(parent)
    spread = max(
        (q3_c - q1_c) / abs(med_c) if med_c else 0.0,
        (q3_p - q1_p) / abs(med_p) if med_p else 0.0,
    )
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    pairs = [(c, p) for c in change for p in parent]
    wins = sum(1 for c, p in pairs if sign * (c - p) < 0) / len(pairs)
    all_better = wins == 1.0
    all_worse = all(sign * (c - p) > 0 for c, p in pairs)
    if worse > bound:
        result = "regressed" if spread <= bound or all_worse else "unresolved"
    elif wins >= 0.9 and abs(med_c - med_p) > q3_p - q1_p:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "verdict": result, "change": med_c, "parent": med_p,
        "delta": sign * worse, "wins": wins,
        "spread": spread,
    }


def _pool(documents: List[dict], workload: str, metric: str) -> List[float]:
    values: List[float] = []
    for doc in documents:
        entry = doc["workloads"].get(workload, {}).get("end_to_end", {})
        if metric in entry:
            values.extend(entry[metric].get("samples", [entry[metric]["value"]]))
    return values


def _error_rate(documents: List[dict], workload: str) -> float:
    failed = attempted = 0
    for doc in documents:
        summary = doc["workloads"].get(workload)
        if summary:
            failed += summary["failed"]
            attempted += summary["attempted"]
    return failed / attempted if attempted else 0.0


def compare(change: List[dict], parent: List[dict], spec: dict) -> List[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if not all(workload in doc["workloads"] for doc in change + parent):
            continue
        for metric in spec["end_to_end"]:
            c = _pool(change, workload, metric["name"])
            p = _pool(parent, workload, metric["name"])
            if not c or not p:
                continue
            row = verdict(c, p, metric["better"], metric["bound"])
            row.update(workload=workload, metric=metric["name"],
                       bound=metric["bound"])
            rows.append(row)
        c_err, p_err = _error_rate(change, workload), _error_rate(parent, workload)
        rows.append({
            "workload": workload, "metric": "error_rate", "bound": 0.0,
            "change": c_err, "parent": p_err, "delta": c_err - p_err,
            "wins": float(c_err < p_err), "spread": 0.0,
            "verdict": (
                "regressed" if c_err > p_err
                else "improved" if c_err < p_err else "unchanged"
            ),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("change", nargs="+", help="result files of the change")
    parser.add_argument("--against", nargs="+", required=True,
                        help="result files of the parent")
    args = parser.parse_args(argv)

    def load(paths):
        docs = []
        for path in paths:
            with open(path) as handle:
                docs.append(json.load(handle))
        return docs

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    rows = compare(load(args.change), load(args.against), spec)
    print(f"{'workload':12s} {'metric':12s} {'parent':>11s} {'change':>11s} "
          f"{'delta':>8s} {'wins':>5s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:12s} {row['metric']:12s} "
            f"{row['parent']:11.5g} {row['change']:11.5g} "
            f"{100 * row['delta']:+7.2f}% {100 * row['wins']:4.0f}% "
            f"{100 * row['spread']:6.2f}% {100 * row['bound']:5.1f}%  "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
