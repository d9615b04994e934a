"""Process-parallel execution vs serial: does escaping the GIL pay?

The removed thread-based partition executor measured **0.62x** on
this workload — on a GIL-bound interpreter, fan-out overhead with zero
added compute.  This suite measures the process backend, which holds
the paper's serving-layer promise only when real cores exist:

* ``test_serial_descendant_filter`` / ``test_process_pool_*`` — the
  same descendant-heavy predicate query, serial on the primary vs
  fanned across 2 log-shipped replica processes.  Indexes are
  disabled for the pair so both sides evaluate every document — the
  honest GIL-escape comparison (an index prefilter would shrink the
  work until IPC dominates either way).
* ``test_pool_bootstrap_and_shutdown`` — the one-time cost a pool
  amortizes: checkpoint encode + ship + replica recovery × 2 workers.
* ``test_speedup_process_pool_vs_serial`` — the headline ratio,
  measured with raw perf_counter medians and recorded in
  BENCH_results.json under ``notes``.  On hosts with >= 2 CPUs the
  pool must be >= 2x the serial median; on a single-core host (CI
  containers included) the same measurement documents the *overhead*
  instead — processes cannot beat serial without cores, and
  pretending otherwise would be the Section 2 pitfall all over again.

Worker count is pinned to 2 everywhere so results are comparable
across hosts.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from conftest import build_db, register_bench_note

PROCESSES = 2

#: Descendant-heavy, low-selectivity: every document does real
#: per-document evaluation work, the shape process partitioning is for.
QUERY = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
         "//order[lineitem/@price > 100] "
         "return <m>{$o/custid/text()}</m>")


@pytest.fixture(scope="module")
def repl_db():
    return build_db(orders=300)


@pytest.fixture(scope="module")
def repl_pool(repl_db):
    with repl_db.process_pool(processes=PROCESSES) as pool:
        pool.xquery(QUERY, use_indexes=False)  # warm worker caches
        yield pool


def test_serial_descendant_filter(benchmark, repl_db):
    result = benchmark(lambda: repl_db.xquery(QUERY, use_indexes=False))
    assert len(result) > 0


def test_process_pool_descendant_filter(benchmark, repl_db, repl_pool):
    result = benchmark(
        lambda: repl_pool.xquery(QUERY, use_indexes=False))
    assert result.serialized() == \
        repl_db.xquery(QUERY, use_indexes=False).serialized()


def test_pool_bootstrap_and_shutdown(benchmark, repl_db):
    def bootstrap():
        with repl_db.process_pool(processes=PROCESSES) as pool:
            return pool.workers_alive()

    alive = benchmark.pedantic(bootstrap, rounds=3, iterations=1)
    assert alive == PROCESSES


def _median(callable_, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_speedup_process_pool_vs_serial(repl_db, repl_pool):
    """The headline number, with the single-core truth told."""
    cpus = os.cpu_count() or 1
    serial = _median(
        lambda: repl_db.xquery(QUERY, use_indexes=False), rounds=7)
    pooled = _median(
        lambda: repl_pool.xquery(QUERY, use_indexes=False), rounds=7)
    speedup = serial / pooled
    register_bench_note("replication.host_cpus", cpus)
    register_bench_note("replication.speedup_vs_serial",
                        round(speedup, 2))
    if cpus >= 2:
        register_bench_note(
            "replication.note",
            f"{PROCESSES}-process pool vs serial on {cpus} CPUs: "
            f"{speedup:.2f}x (gate: >= 2x)")
        assert speedup >= 2.0, (
            f"process pool must be >= 2x serial on a {cpus}-CPU host, "
            f"measured {speedup:.2f}x")
    else:
        register_bench_note(
            "replication.note",
            f"single-core host: {speedup:.2f}x — process fan-out "
            f"cannot beat serial without a second CPU; the number "
            f"records IPC+serialization overhead, not a win. The "
            f">= 2x gate applies only on multi-core hosts.")
        # Sanity floor: even paying full IPC overhead on one core,
        # the pool must stay within an order of magnitude of serial.
        assert speedup > 0.1, (
            f"pool overhead pathological: {speedup:.3f}x of serial")
