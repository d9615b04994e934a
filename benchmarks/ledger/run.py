#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, one command.

    python3 benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--scale F] [--out FILE]

Each workload runs in a fresh subprocess with ``PYTHONHASHSEED``
pinned.  ``--trace 0`` measures the end-to-end metrics with every
instrument off; ``--trace 1`` is a separate run that exists only for
the per-layer table.  Every metric is printed by name with its unit,
then one JSON object per workload as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when any answer differs from the index-free oracle.

The metric catalogue is ``BENCHMARK.json`` at the repository root; this
program reads names and units from it and refuses to report anything
else, so the two cannot drift.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
DEFAULT_SECONDS = 24.0


def catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every collection (selftest only; "
                             "results at other scales are not comparable)")
    parser.add_argument("--out", help="append this run's results to a "
                                      "JSON list (input of compare.py)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Parent: one subprocess per workload
# ---------------------------------------------------------------------------

def main() -> int:
    args = parse_args()
    if args.child:
        return child(args)
    spec = catalogue()
    names = [workload["name"] for workload in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        if name not in names:
            print(f"unknown workload {name!r}; expected one of "
                  f"{', '.join(names)} or all", file=sys.stderr)
            return 2
    status = 0
    results = []
    for name in chosen:
        scratch = OUT / f"run-{os.getpid()}-{name}"
        scratch.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(HERE / "run.py"), "--child",
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.corrupt_oracle:
            command.append("--corrupt-oracle")
        environment = dict(os.environ, PYTHONHASHSEED="0",
                           LEDGER_SCRATCH=str(scratch))
        try:
            finished = subprocess.run(command, env=environment,
                                      stdout=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if finished.returncode not in (0, 1) or not finished.stdout:
            print(f"{name}: benchmark process failed "
                  f"(exit {finished.returncode})", file=sys.stderr)
            return finished.returncode or 3
        result = json.loads(finished.stdout.splitlines()[-1])
        results.append(result)
        report(result, spec, args)
        status = status or finished.returncode
    if args.out:
        append_results(pathlib.Path(args.out), results)
    return status


def report(result: dict, spec: dict, args) -> None:
    """Human-readable table, then the driver's JSON line."""
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"== {result['workload']}  seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"scale={args.scale:g}")
    for metric in spec[kind]:
        entry = result["metrics"][metric["name"]]
        raw = result["raw"].get(metric["name"])
        suffix = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {metric['name']:<42} {entry['value']:>14.6g} "
              f"{entry['unit']}{suffix}")
    host = result["host"]
    flag = "  DISTURBED" if host["disturbed"] else ""
    print(f"  host: ref_loop_ms={host['ref_loop_ms']:.3f} "
          f"slowdown_max={host['slowdown_max']:.3f} "
          f"spread={host['spread']:.3f} "
          f"ref_loops={host['ref_loops']}{flag}")
    for key, value in result["info"].items():
        print(f"  info: {key}={value}")
    print(f"  statements: attempted={result['attempted']} "
          f"failed={result['failed']}"
          + (f" first failures: {result['failures']}"
             if result["failures"] else ""))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def append_results(path: pathlib.Path, results: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = []
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(existing + results, indent=1),
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Child: one workload, one process
# ---------------------------------------------------------------------------

def child(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    spec = catalogue()
    scratch = pathlib.Path(os.environ["LEDGER_SCRATCH"])
    workload = workloads.make(args.workload, args.seed, args.scale,
                              scratch)
    workload.build_oracle()
    if args.corrupt_oracle:
        corrupt(workload)
    if args.trace:
        import tracing
        values, raw, info, clock = tracing.traced_run(
            workload, args, scratch, OUT)
        kind = "per_layer"
    else:
        values, raw, info, clock = harness.plain_run(
            workload, args.seconds, args.scale)
        kind = "end_to_end"
    workload.close()

    names = [metric["name"] for metric in spec[kind]]
    if set(names) != set(values):
        raise SystemExit(
            f"metric catalogue drift: BENCHMARK.json[{kind}] and the "
            f"run disagree on {sorted(set(names) ^ set(values))}")
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "correct": clock.failed == 0,
        "attempted": clock.attempted, "failed": clock.failed,
        "failures": clock.failures,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
        "raw": raw, "info": info, "host": clock.host_summary(),
    }
    print(json.dumps(result))
    return 0 if clock.failed == 0 else 1


def corrupt(workload) -> None:
    """Selftest hook: flip one oracle answer so the run must fail."""
    oracle = workload.oracle
    if isinstance(oracle[0], list):
        oracle = oracle[0]
    oracle[0] = oracle[0] + "<!-- corrupted -->"


if __name__ == "__main__":
    sys.exit(main())
