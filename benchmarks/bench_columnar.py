"""Benchmarks for the columnar node store and the buffer pool.

Three questions, answered with numbers in BENCH_results.json:

* how much faster is a descendant-axis sweep over the (pre, post,
  level) columns than the recursive object-graph walk it replaced
  (``columnar.axis_scan_speedup`` note);
* what does re-materializing an evicted document from its column
  segment cost relative to re-parsing its canonical text (the buffer
  pool's reload from the log, the segment adopted under the resident
  node ids — ``columnar.materialize_vs_reparse`` note);
* how much peak RSS does a capped buffer pool actually save on an
  ingest-and-query workload that overflows the budget
  (``bufferpool.peak_rss_reduction`` note, measured in subprocesses so
  each configuration owns its high-water mark).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.storage.columnar import ColumnStore
from repro.storage.segment import Segment, SegmentTables
from repro.xmlio import parse_document
from repro.xmlio.serializer import serialize

from conftest import build_db, register_bench_note

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _big_document():
    # Deterministic ~900-node order: 150 lineitems with price and
    # quantity attributes, product ids, and text content.
    body = "".join(
        f"<lineitem price=\"{(i * 7) % 200}\" quantity=\"{i % 9 + 1}\">"
        f"<product><id>P{i:05d}</id></product></lineitem>"
        for i in range(150))
    return parse_document(
        f"<order><custid>1001</custid>{body}</order>")


def _median(callable_, rounds: int = 9) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def test_columnar_descendant_scan(benchmark):
    document = _big_document()
    store = ColumnStore.from_document(document)

    nodes = benchmark(lambda: store.descendants_or_self(document))
    assert len(nodes) > 200


def test_object_graph_descendant_walk(benchmark):
    document = _big_document()

    nodes = benchmark(lambda: list(document.descendants_or_self()))
    assert len(nodes) > 200


def test_axis_scan_speedup_note():
    """Record the columnar-vs-object-walk ratio the two medians imply."""
    document = _big_document()
    store = ColumnStore.from_document(document)
    walk = _median(lambda: list(document.descendants_or_self()))
    scan = _median(lambda: store.descendants_or_self(document))
    speedup = walk / scan
    register_bench_note("columnar.axis_scan_speedup", round(speedup, 2))
    register_bench_note(
        "columnar.note",
        f"descendant sweep over (pre, post) columns vs recursive "
        f"object walk on a {len(store.post)}-node order document: "
        f"{speedup:.2f}x")
    # The range scan must never lose to the recursive walk.
    assert speedup > 1.0, (
        f"columnar descendant scan slower than the object walk "
        f"({speedup:.2f}x)")


def _spilled(document):
    """What a cold document's reload reads: a function that adopts the
    document's segment bytes (which carry no node ids) under the ids
    its resident document keeps, as ``SegmentRef.load`` does after its
    ``pread``."""
    store = ColumnStore.from_document(document)
    tables = SegmentTables()
    data = Segment.of(store, tables).to_bytes()
    return lambda: Segment.from_bytes(data, "bench").adopt(
        tables, "bench", node_ids=store.node_ids)


def test_materialize_from_columns(benchmark):
    document = _big_document()
    reload = _spilled(document)

    rebuilt = benchmark(lambda: reload().materialize())
    assert serialize(rebuilt) == serialize(document)


def test_materialize_vs_reparse_note():
    """The buffer pool's reload path against naive re-parsing."""
    document = _big_document()
    text = serialize(document)
    reload = _spilled(document)
    reparse = _median(lambda: parse_document(text))
    materialize = _median(lambda: reload().materialize())
    register_bench_note("columnar.materialize_vs_reparse",
                        round(reparse / materialize, 2))


_RSS_SCRIPT = """
import resource, sys
from repro import Database
from repro.workload import OrderProfile, populate_paper_schema

database = Database()
populate_paper_schema(
    database, orders=150, customers=15, products=20,
    profile=OrderProfile(max_lineitems=80, price_low=1, price_high=200),
    seed=3, with_indexes=True)
# Documents rest as columns until a read builds their trees: one
# indexed query per customer reads every order over the loop, a working
# set the cap must bound, while each query's own stays small.
for custid in range(1, 16):
    result = database.xquery(
        f"count(db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid = {custid}])")
    assert len(result) == 1
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kb(budget: int | None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if budget is None:
        env.pop("REPRO_BUFFER_POOL_BYTES", None)
    else:
        env["REPRO_BUFFER_POOL_BYTES"] = str(budget)
    output = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT], env=env, check=True,
        capture_output=True, text=True, cwd=str(REPO_ROOT)).stdout
    return int(output.strip().splitlines()[-1])


def test_peak_rss_reduction_under_cap():
    """Ingest 150 wide orders and query each customer's, with and
    without a 256 KiB budget; the capped run must hold a lower
    high-water mark."""
    uncapped = _peak_rss_kb(None)
    capped = _peak_rss_kb(256 * 1024)
    reduction = 1.0 - capped / uncapped
    register_bench_note("bufferpool.peak_rss_uncapped_kb", uncapped)
    register_bench_note("bufferpool.peak_rss_capped_kb", capped)
    register_bench_note("bufferpool.peak_rss_reduction",
                        round(reduction, 3))
    register_bench_note(
        "bufferpool.note",
        f"150-wide-order ingest+query: peak RSS {uncapped} KB uncapped "
        f"vs {capped} KB with a 256 KiB budget "
        f"({reduction * 100:.1f}% lower high-water mark)")
    assert capped < uncapped, (
        f"capped pool did not lower peak RSS "
        f"({capped} KB vs {uncapped} KB)")


def test_query_latency_under_eviction_churn(benchmark):
    """The price a capped pool pays: every sweep re-materializes."""
    database = build_db(orders=60)
    database.buffer_pool.budget_bytes = 1  # churn: nothing stays
    for table in database.tables.values():
        for row in table.rows:
            for value in row.values.values():
                if hasattr(value, "_pool"):
                    value._pool = database.buffer_pool
                    database.buffer_pool.admit(value)

    result = benchmark(lambda: database.xquery(
        "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)",
        use_indexes=False))
    assert len(result) == 1
