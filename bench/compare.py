#!/usr/bin/env python3
"""Compare two benchmark reports, one row per (workload, metric).

    python3 bench/compare.py A.json B.json

``A`` and ``B`` are reports written by ``bench/run.py`` (the parent's
first).  Each end-to-end metric is marked with its bound from
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (quartile distance over median,
  the wider of the two sets) exceeds the bound, unless every run of B
  beats every run of A, which reads ``better``;
* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — otherwise.

Outcome digests, which depend only on the seed, must be equal.  Exits 1
when any row is ``worse``, ``unresolved`` or a digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import SPEC_PATH, spread


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    """How B's runs of one metric compare with A's."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    beats_all = max(b) < min(a) if lower else min(b) > max(a)
    if max(spread(a), spread(b)) > bound:
        return "better" if beats_all else "unresolved"
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a if median_a else 0.0
    gain = -change if lower else change
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def _values(report: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in report["workloads"].get(workload, {}).get("runs", [])
            if metric in run["metrics"]]


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values_a = _values(a, workload, metric["name"])
            values_b = _values(b, workload, metric["name"])
            if not values_a or not values_b:
                rows.append((workload, metric["name"], None, None, None, "missing"))
                continue
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            change = (median_b - median_a) / median_a if median_a else 0.0
            rows.append((workload, metric["name"], median_a, median_b, change,
                         verdict(values_a, values_b, metric)))
        digests = [
            {run["context"]["outcome_digest"]
             for run in report["workloads"].get(workload, {}).get("runs", [])}
            for report in (a, b)
        ]
        if digests[0] != digests[1]:
            rows.append((workload, "outcome_digest", None, None, None, "differs"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a.get("trace") or b.get("trace"):
        print("compare untraced reports: per-layer metrics have no bound",
              file=sys.stderr)
        return 2
    rows = compare(a, b, json.loads(SPEC_PATH.read_text()))
    for workload, metric, median_a, median_b, change, mark in rows:
        if median_a is None:
            print(f"{workload:12s} {metric:18s} {'':>14s} {'':>14s} {'':>8s}  {mark}")
        else:
            print(f"{workload:12s} {metric:18s} {median_a:>14.6g} {median_b:>14.6g} "
                  f"{change:>+8.2%}  {mark}")
    bad = [row for row in rows if row[5] in ("worse", "unresolved", "differs", "missing")]
    print(f"{len(rows)} rows, {len(bad)} worse, unresolved, missing or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
