#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: the medians of A (the parent) and
B (the change), each side's spread — the distance between the first and
third quartile of its runs as a share of their median — and a verdict
against the metric's bound from ``catalog.py``:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  a side's spread is wider than the bound, so the runs
  cannot tell (fewer than two runs per side also reads ``unresolved``);
* ``ok``          otherwise.

Exits 1 when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from catalog import END_TO_END, WORKLOADS


def _values(document: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in document["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if len(a) < 2 or len(b) < 2 or max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    return "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    paths = argv if argv is not None else sys.argv[1:]
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in paths
    )
    status = 0
    print(f"{'workload':<14} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'A spread':>9} {'B spread':>9} {'bound':>6}  verdict")
    for workload, _ in WORKLOADS:
        for metric, _, better, bound in END_TO_END:
            a = _values(a_doc, workload, metric)
            b = _values(b_doc, workload, metric)
            if not a or not b:
                continue
            result = verdict(a, b, better, bound)
            status |= result != "ok"
            spreads = [f"{spread(v):9.4f}" if len(v) > 1 else f"{'-':>9}"
                       for v in (a, b)]
            print(f"{workload:<14} {metric:<16} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {spreads[0]} {spreads[1]} "
                  f"{bound:>6.2f}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
