#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the engine).

    python3 benchmarks/ledger/selftest.py

Not named ``test_*`` / ``bench_*``: neither the tier-1 suite nor
``pytest benchmarks/`` collects it.  Checks, at ``--scale 0.1``:

1. all four workloads finish a smoke run in under 30 s in total;
2. a corrupted oracle answer makes ``run.py`` exit non-zero;
3. the names ``run.py`` prints equal the names in ``BENCHMARK.json``
   for both metric kinds, all match ``[A-Za-z0-9_.-]+``, and there are
   at most 16 end-to-end and 128 per-layer metrics;
4. per-sweep counts are identical across two runs with the same seed
   and differ for another seed.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCALE = "0.1"


def run(*arguments: str) -> tuple[int, list[dict]]:
    """Exit status and the full per-workload results (via ``--out``)."""
    out = HERE / "out" / f"selftest-{time.monotonic_ns()}.json"
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", SCALE,
         "--out", str(out), *arguments], stdout=subprocess.DEVNULL)
    try:
        results = json.loads(out.read_text(encoding="utf-8"))
    except FileNotFoundError:
        results = []
    finally:
        out.unlink(missing_ok=True)
    return finished.returncode, results


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        check.failed = True


check.failed = False


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]

    started = time.perf_counter()
    status, smoke = run("--workload", "all", "--seconds", "0.5",
                        "--seed", "11")
    elapsed = time.perf_counter() - started
    check(status == 0 and len(smoke) == len(workloads),
          f"smoke run of {len(workloads)} workloads exits 0")
    check(elapsed < 30.0, f"smoke run took {elapsed:.1f} s (< 30 s)")
    check(all(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1 for result in smoke),
          "every smoke statement matched the index-free oracle")
    check(all(result["info"]["sweeps_with_other_counts"] == 0
              for result in smoke),
          "per-sweep counts are identical across the sweeps of a run")

    status, _results = run("--workload", "probe", "--seconds", "0.5",
                           "--corrupt-oracle")
    check(status != 0, "a corrupted oracle answer makes run.py exit non-zero")

    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    check(all(list(result["metrics"]) == end_to_end for result in smoke),
          "--trace 0 prints exactly BENCHMARK.json's end_to_end names")
    status, traced = run("--workload", "scan", "--seconds", "1.5",
                         "--trace", "1", "--seed", "11")
    check(status == 0 and list(traced[0]["metrics"]) == per_layer,
          "--trace 1 prints exactly BENCHMARK.json's per_layer names")
    names = end_to_end + per_layer
    check(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
              for name in names) and len(set(names)) == len(names),
          "metric names are well-formed and unique")
    check(len(end_to_end) <= 16 and len(per_layer) <= 128,
          f"{len(end_to_end)} end-to-end (<= 16) and {len(per_layer)} "
          f"per-layer (<= 128) metrics")

    counts = {}
    for label, seed in (("a", "11"), ("b", "11"), ("c", "12")):
        _status, runs = run("--workload", "all", "--seconds", "0.3",
                            "--seed", seed)
        counts[label] = {
            entry["workload"]: {key: value
                                for key, value in entry["info"].items()
                                if key.startswith("per_sweep.")}
            for entry in runs}
    check(counts["a"] == counts["b"],
          "per-sweep counts repeat exactly for the same seed")
    check(all(counts["a"][name] != counts["c"][name]
              for name in ("probe", "scan")),
          "per-sweep counts differ for another seed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
