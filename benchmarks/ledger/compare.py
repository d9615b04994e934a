#!/usr/bin/env python3
"""Compare two ``run.py --out`` files, metric by metric.

    python3 benchmarks/ledger/compare.py PARENT.json CHANGE.json

Each file is a list of runs (any mix of workloads and seeds).  For every
workload x end-to-end metric the table gives both sides' medians and
quartiles, the ratio with its base, and one verdict:

* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound (BENCHMARK.json);
* ``improved``   — better by more than the bound;
* ``unresolved`` — the parent's own inter-quartile spread exceeds the
  bound, so this benchmark cannot tell at this bound;
* ``unchanged``  — otherwise.

Exit status is non-zero when anything regressed.  This is the
no-regression half of a claim; a *gain* additionally needs >= 10
alternating pairs won nine times in ten (README.md, "Running an A/B").
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run.get("trace"):
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _second, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    p_first, p_median, p_third = quartiles(parent)
    c_median = statistics.median(change)
    ratio = c_median / p_median
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if (p_third - p_first) / p_median > bound:
        return "unresolved", ratio
    if worse > bound:
        return "regressed", ratio
    if worse < -bound:
        return "improved", ratio
    return "unchanged", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[1]), load(argv[2])
    regressed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        p_runs, c_runs = parent.get(workload), change.get(workload)
        if not p_runs or not c_runs:
            print(f"{workload}: missing on one side "
                  f"({len(p_runs or [])} vs {len(c_runs or [])} runs)")
            continue
        disturbed = [sum(1 for run in runs if run["host"]["disturbed"])
                     for runs in (p_runs, c_runs)]
        print(f"{workload}: parent {len(p_runs)} runs "
              f"({disturbed[0]} disturbed), change {len(c_runs)} runs "
              f"({disturbed[1]} disturbed)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [run["metrics"][name]["value"] for run in p_runs]
            c_values = [run["metrics"][name]["value"] for run in c_runs]
            outcome, ratio = verdict(p_values, c_values, metric["better"],
                                     metric["bound"])
            regressed = regressed or outcome == "regressed"
            p_q, c_q = quartiles(p_values), quartiles(c_values)
            print(f"  {name:<13} parent {p_q[1]:>10.4g} "
                  f"[{p_q[0]:.4g}, {p_q[2]:.4g}]  change {c_q[1]:>10.4g} "
                  f"[{c_q[0]:.4g}, {c_q[2]:.4g}] {metric['unit']:<4} "
                  f"change/parent {ratio:.3f} of {p_q[1]:.4g}  "
                  f"{metric['better']} is better, bound "
                  f"{metric['bound']:.0%}: {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
