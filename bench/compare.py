"""``python -m bench.compare A.json B.json`` — is B worse than A?

Both files are ``python -m bench.run --out`` results (any number of
seeds).  One row per end-to-end metric x workload: the two medians, the
change, the metric's bound from ``BENCHMARK.json`` and each side's
run-to-run spread (distance between quartiles over the median).

* ``ok`` — B's median is within the bound of A's (or every run of B
  beats every run of A).
* ``worse`` — B's median is worse than A's by more than the bound.
* ``unresolved`` — a side's spread is wider than the bound, so the
  medians cannot tell (unless the runs do not even overlap).

Exits non-zero on any ``worse`` row, or when B failed a larger share of
its requests than A on some workload.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench.spec import load_spec, workload_names


def load_runs(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [run for run in json.load(handle)["runs"] if not run["traced"]]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse means sign * value grows
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "ok"
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    apart = min(sign * x for x in b) > max(sign * x for x in a)
    if (spread(a) > bound or spread(b) > bound) and not (apart and worse_by > bound):
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(spec: dict, runs_a: list[dict], runs_b: list[dict]) -> tuple[list[dict], bool]:
    """Rows for every metric x workload both files cover, and whether B
    must be refused."""
    rows, refused = [], False
    for workload in workload_names(spec):
        side_a = [run for run in runs_a if run["workload"] == workload]
        side_b = [run for run in runs_b if run["workload"] == workload]
        if not side_a or not side_b:
            continue
        for metric in spec["end_to_end"]:
            a = [run["metrics"][metric["name"]]["value"] for run in side_a]
            b = [run["metrics"][metric["name"]]["value"] for run in side_b]
            result = verdict(a, b, metric["better"], metric["bound"])
            refused |= result == "worse"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": statistics.median(a), "b": statistics.median(b),
                "bound": metric["bound"], "spread_a": spread(a), "spread_b": spread(b),
                "verdict": result,
            })
        shares = [
            sum(run["failed"] for run in side) / max(1, sum(run["attempted"] for run in side))
            for side in (side_a, side_b)
        ]
        result = "worse" if shares[1] > shares[0] else "ok"
        refused |= result == "worse"
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": shares[0], "b": shares[1], "bound": 0.0,
            "spread_a": 0.0, "spread_b": 0.0, "verdict": result,
        })
    return rows, refused


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write("usage: python -m bench.compare A.json B.json\n")
        return 2
    rows, refused = compare(load_spec(), load_runs(args[0]), load_runs(args[1]))
    print(f"{'workload':<20} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for row in rows:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0.0
        print(f"{row['workload']:<20} {row['metric']:<20} {row['a']:>12.5g} {row['b']:>12.5g} "
              f"{change:>+8.1%} {row['bound']:>6.2f} {row['spread_a']:>9.3f} "
              f"{row['spread_b']:>9.3f}  {row['verdict']}")
    if not rows:
        sys.stderr.write("no workload is covered by both files\n")
        return 2
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
