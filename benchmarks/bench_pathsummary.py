"""Benchmarks for the structural acceleration layer itself.

Each stored document's structural summary is its column store's path
table (``ColumnStore.paths`` + ``partitions``).  Covers the costs that
layer introduces or removes:

* capturing a document's columns and path partitions at ingest (paid
  once per document, amortized over every later query/index build);
* answering a ``//``-style pattern from the path table (the
  evaluator's fast path) and whole-column cardinality / document
  counts from the column's path classes (the planner's and the static
  pass's — independent of the collection size);
* compiling a query through the LRU cache (hit path — what repeated
  queries, the planner, and the SQL executor actually pay).
"""

import pytest

from repro.core.querycache import clear_cache, compile_query
from repro.core.patterns import PatternMatcher, parse_xmlpattern
from repro.storage.columnar import ColumnStore
from repro.workload import WorkloadGenerator
from repro.xmlio import parse_document

from conftest import build_db


def _order_document():
    generator = WorkloadGenerator(seed=7)
    return parse_document(generator.order_document(
        1, 1, [f"P{i:05d}" for i in range(10)]))


def test_column_capture(benchmark):
    document = _order_document()
    store = benchmark(lambda: ColumnStore.from_document(document))
    assert store.paths


def test_path_table_lookup(benchmark):
    store = ColumnStore.from_document(_order_document())
    matcher = PatternMatcher(parse_xmlpattern("//lineitem/@price"))

    nodes = benchmark(lambda: store.nodes_for(matcher))
    assert nodes


def test_database_path_cardinality(benchmark, paper_bench_db):
    count = benchmark(lambda: paper_bench_db.path_cardinality(
        "orders", "orddoc", "//lineitem/@price"))
    assert count > 0


@pytest.fixture(scope="module")
def orders_2000():
    return build_db(orders=2000)


def test_docs_with_path_column(benchmark, orders_2000):
    """The static pass's per-statement question over 2 000 orders:
    one pattern test per distinct path of a few path classes."""
    count = benchmark(lambda: orders_2000.docs_with_path(
        "orders", "orddoc", "//lineitem/@price"))
    assert 0 < count <= 2000


def test_compiled_query_cache_hit(benchmark):
    query = ("for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
             "where $ord/lineitem/@price > 190 return $ord")
    clear_cache()
    compile_query(query)  # warm: later calls measure the hit path

    compiled = benchmark(lambda: compile_query(query))
    assert compiled.module.body is not None


def test_index_build_via_summary(benchmark):
    """Index build over captured documents (one NFA run per distinct
    path shape instead of one per node)."""
    database = build_db(orders=200)
    counter = iter(range(10_000))

    def build():
        name = f"bench_sum_idx_{next(counter)}"
        index = database.create_xml_index(
            name, "orders", "orddoc", "//lineitem/product/id", "VARCHAR")
        database.drop_index(name)
        return index
    index = benchmark(build)
    assert len(index) > 0
