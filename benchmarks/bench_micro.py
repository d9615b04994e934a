"""Micro-benchmarks: substrate costs.

These quantify the pieces the system-level numbers are made of —
B+Tree operations, XML parsing, index build, query compilation, and
the eligibility analysis itself (which must be cheap enough to run on
every query).
"""

import random

import pytest

from repro.core import analyze_eligibility
from repro.planner.plan import execute_xquery
from repro.storage.btree import BPlusTree
from repro.workload import WorkloadGenerator
from repro.xmlio import parse_document
from repro.xquery.parser import parse_xquery

from conftest import build_db


def test_btree_insert_10k(benchmark):
    values = list(range(10_000))
    random.Random(5).shuffle(values)

    def build():
        tree = BPlusTree(order=64)
        for value in values:
            tree.insert(value, value)
        return tree
    tree = benchmark(build)
    assert len(tree) == 10_000


def test_btree_range_scan(benchmark):
    tree = BPlusTree(order=64)
    for value in range(10_000):
        tree.insert(value, value)
    result = benchmark(lambda: sum(1 for _ in tree.scan(2500, 7500)))
    assert result == 5001


def test_xml_parse_order_document(benchmark):
    generator = WorkloadGenerator(seed=3)
    text = generator.order_document(
        1, 1, [f"P{i:05d}" for i in range(10)])

    document = benchmark(lambda: parse_document(text))
    assert document.root_element is not None


def test_xquery_parse(benchmark):
    query = ("for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
             "let $price := $ord/lineitem/@price "
             "where $price > 100 "
             "return <result>{$ord/lineitem}</result>")
    # parse_xquery is memoized; time the parse, not the cache hit.
    module = benchmark(lambda: parse_xquery.__wrapped__(query))
    assert module.body is not None


def test_index_build_cost(benchmark):
    database = build_db(orders=200)

    counter = iter(range(10_000))

    def build():
        name = f"bench_idx_{next(counter)}"
        index = database.create_xml_index(
            name, "orders", "orddoc", "//lineitem/@price", "DOUBLE")
        database.drop_index(name)
        return index
    index = benchmark(build)
    assert len(index) > 0


def test_eligibility_analysis_overhead(benchmark, paper_bench_db):
    query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
             "//order[lineitem/@price>190] return $i")
    report = benchmark(lambda: analyze_eligibility(paper_bench_db, query))
    assert report.is_index_eligible("li_price")


# ---------------------------------------------------------------------------
# Descendant-heavy query evaluation (structural acceleration layer)
# ---------------------------------------------------------------------------
# These run with use_indexes=False on purpose: they measure raw XQuery
# evaluation, where `//` chains are answered by per-document path
# summaries instead of full-tree walks.  See EXPERIMENTS.md for the
# seed-vs-accelerated numbers.

def test_xquery_descendant_price_scan(benchmark, paper_bench_db):
    query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price"
    result = benchmark(
        lambda: execute_xquery(paper_bench_db, query, use_indexes=False))
    assert len(result.items) > 0


def test_xquery_descendant_product_ids(benchmark, paper_bench_db):
    query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//product/id"
    result = benchmark(
        lambda: execute_xquery(paper_bench_db, query, use_indexes=False))
    assert len(result.items) > 0


def test_xquery_descendant_predicate_filter(benchmark, paper_bench_db):
    query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
             "//order[lineitem/@price>190]")
    result = benchmark(
        lambda: execute_xquery(paper_bench_db, query, use_indexes=False))
    assert len(result.items) > 0


def test_xquery_rooted_path(benchmark, paper_bench_db):
    query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem/product/id"
    result = benchmark(
        lambda: execute_xquery(paper_bench_db, query, use_indexes=False))
    assert len(result.items) > 0
