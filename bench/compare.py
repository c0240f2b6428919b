#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records ``bench/run.py --out`` appends, one per run
(untraced records only are compared).  For every workload in both sets
and every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, the change of the medians, and a verdict:

* ``regression`` -- the new median is worse than the old by more than
  the metric's bound;
* ``unresolved`` -- a side's run-to-run spread (quartile distance over
  median) is wider than the bound, so a change that size cannot be told
  from noise.  When the two sets do not overlap, the spread does not
  hide the change: every new run better than every old run is ``ok``,
  every new run worse is a ``regression`` if the medians differ by more
  than the bound;
* ``ok`` -- otherwise.

Then it prints the same columns, plus both sides' spreads, for the
latency and throughput diagnostics the records carry.  They have no
bound and no verdict: their spread on a noisy host is wider than any
useful bound (see README).  It also compares each workload's failed
share of requests.  The exit
code is 1 on any regression or higher failed share, and 2 when the two
sets were made with different run sizes, which it refuses to compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    """Untraced run records grouped by workload."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: dict, old: list[float], new: list[float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    old_median, new_median = summary(old)[0], summary(new)[0]
    worse = sign * (new_median - old_median) / abs(old_median)
    regressed = worse > metric["bound"]
    if max(spread(old), spread(new)) <= metric["bound"]:
        return "regression" if regressed else "ok"
    if all(sign * n < sign * o for n in new for o in old):
        return "ok"
    if regressed and all(sign * n > sign * o for n in new for o in old):
        return "regression"
    return "unresolved"


def row(workload: str, name: str, old: list[float], new: list[float],
        result: str) -> None:
    (ma, qa1, qa3), (mb, qb1, qb3) = summary(old), summary(new)
    print(f"{workload:<13} {name:<16} "
          f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':>30} "
          f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':>30} "
          f"{(mb - ma) / abs(ma):>+8.1%}  {result}")


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(old_path: str, new_path: str) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load(old_path), load(new_path)
    common = [w for w in old if w in new]
    for workload in common:
        sizes = {json.dumps(r["header"]["sizes"], sort_keys=True)
                 for r in old[workload] + new[workload]}
        if len(sizes) > 1:
            print(f"error: {workload} runs were made with different run "
                  f"sizes: {sorted(sizes)}", file=sys.stderr)
            return 2
    rc = 0
    print(f"{'workload':<13} {'metric':<16} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in common:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            result = verdict(metric, a, b)
            rc = max(rc, result == "regression")
            row(workload, name, a, b, result)
        diagnostics = [n for n in old[workload][0].get("diagnostics", {})
                       if all(n in r.get("diagnostics", {})
                              for r in old[workload] + new[workload])]
        for name in diagnostics:
            a = [r["diagnostics"][name]["value"] for r in old[workload]]
            b = [r["diagnostics"][name]["value"] for r in new[workload]]
            row(workload, name, a, b,
                f"not gated (spread {spread(a):.2f} / {spread(b):.2f})")
        fa, fb = failed_share(old[workload]), failed_share(new[workload])
        more_failures = fb > fa
        rc = max(rc, more_failures)
        print(f"{workload:<13} {'failed share':<16} {fa:>30.4g} {fb:>30.4g}"
              f" {'':>8}  {'more failures' if more_failures else 'ok'}")
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:<13} only in {'OLD' if workload in old else 'NEW'}")
    return int(rc)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(compare(sys.argv[1], sys.argv[2]))
