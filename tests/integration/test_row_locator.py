"""Index verdicts reach rows in O(matches), counted, not timed.

On the eligible route an index probe yields doc ids; the table's row
locator (``Table.locator``, a ``RowLocator``) turns them into rows
without a scan of ``Table.rows``.  With 2 000 orders and an unchanged
table, 50 prefiltered statements of the ledger's p1 (XQuery
``xmlcolumn`` prefilter) and p6 (SQL ``XMLExists`` doc filter) shapes
build the locator exactly once and never call ``ReadView.documents``;
after one insert the next statement rebuilds it exactly once; a
statement on a pinned snapshot builds the snapshot's own locator, never
the live table's.  Under a capped buffer pool building the locator
reads only ``Row.values`` — no spill load, no materialization — and a
statement materializes at most the documents it returns.  A snapshot
pinned before a delete answers on the XMLEXISTS, ``xmlcolumn`` and
relational-index routes exactly as without indexes: the deleted rows'
entries are still in the index objects it pinned.
"""

from __future__ import annotations

import re

import pytest

from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage import table as table_module
from repro.storage.catalog import Database
from repro.storage.snapshot import ReadView
from repro.workload import populate_paper_schema

ORDERS = 2000
STATEMENTS = 50
XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def build(**options) -> tuple[Database, str]:
    """The paper schema with 2 000 orders and a price bound that about
    twenty orders exceed."""
    database = Database(**options)
    workload = populate_paper_schema(database, orders=ORDERS, customers=130,
                                     products=60, seed=31)
    prices = sorted({float(price) for text in workload.orders
                     for price in re.findall(r'price="([0-9.]+)"', text)})
    bound = f"{(prices[-21] + prices[-20]) / 2:.3f}"
    return database, bound


def p1(bound: str) -> str:
    return f"for $i in {XMLCOL}//order[lineitem/@price > {bound}] return $i"


def p6(bound: str) -> str:
    return ("SELECT ordid, orddoc FROM orders WHERE XMLExists("
            f"'$order//lineitem[@price > {bound}]' "
            'passing orddoc as "order")')


def run(database, statement: str) -> int:
    """Answer size of one statement of either shape."""
    if statement.startswith("SELECT"):
        return len(database.sql(statement))
    return len(database.xquery(statement))


class Builds:
    """Counts ``RowLocator`` builds (by the row list built from) and
    ``ReadView.documents`` calls."""

    def __init__(self, monkeypatch):
        self.rows: list[list] = []
        self.documents = 0
        builds = self
        original_documents = ReadView.documents

        class CountingLocator(table_module.RowLocator):
            __slots__ = ()

            def __init__(self, rows, xml_columns):
                builds.rows.append(rows)
                super().__init__(rows, xml_columns)

        def counting_documents(view, table, column):
            builds.documents += 1
            return original_documents(view, table, column)

        monkeypatch.setattr(table_module, "RowLocator", CountingLocator)
        monkeypatch.setattr(ReadView, "documents", counting_documents)


@pytest.fixture(scope="module")
def built():
    with pytest.MonkeyPatch.context() as patch:
        # The memory-capped CI job sets a default budget; the counting
        # tests need no pool.
        patch.delenv("REPRO_BUFFER_POOL_BYTES", raising=False)
        return build()


def test_eligible_statements_build_once_and_never_scan(built, monkeypatch):
    database, bound = built
    orders = database.table("orders")
    orders._locator = None
    builds = Builds(monkeypatch)
    answers = set()
    for number in range(STATEMENTS):
        statement = p1(bound) if number % 2 else p6(bound)
        answers.add((statement[:3], run(database, statement)))
    assert len(builds.rows) == 1
    assert builds.rows[0] is orders.rows
    assert builds.documents == 0
    # The prefilter kept the statements selective: ~20 of 2 000.
    assert all(0 < size <= 40 for _shape, size in answers)

    database.insert("orders", {"ordid": ORDERS + 1,
                               "orddoc": "<order><custid>1</custid></order>"})
    run(database, p1(bound))
    assert len(builds.rows) == 2
    assert builds.rows[1] is orders.rows
    run(database, p6(bound))
    assert len(builds.rows) == 2
    assert builds.documents == 0


def test_snapshot_never_builds_the_live_locator(built, monkeypatch):
    database, bound = built
    orders = database.table("orders")
    snapshot = database.snapshot()
    pinned = snapshot.tables["orders"]
    expected = {statement: run(snapshot, statement)
                for statement in (p1(bound), p6(bound))}
    live_locator = orders.locator()
    database.insert("orders", {"ordid": ORDERS + 2,
                               "orddoc": "<order><custid>2</custid></order>"})
    builds = Builds(monkeypatch)
    for statement, size in expected.items():
        assert run(snapshot, statement) == size
    assert builds.rows == []   # the snapshot's locator was already built
    assert pinned._locator is not None
    assert pinned._locator.rows is pinned.rows
    assert orders._locator is live_locator   # never rebuilt for the pin
    assert pinned.rows is not orders.rows
    assert builds.documents == 0

    fresh = database.snapshot()
    for statement in expected:
        run(fresh, statement)
    assert [rows is fresh.tables["orders"].rows
            for rows in builds.rows] == [True]
    assert orders._locator is live_locator


# A snapshot pinned before a delete: six rows <r><k>i</k></r> with a
# DOUBLE index on //k and a relational index on c, ids 2 and 3 deleted.
# Each route's indexed answer must equal its index-free one, which still
# holds the deleted rows.
PINNED_ROUTES = (
    ("sql", "SELECT id FROM t WHERE XMLEXISTS('$d/r[k > 1]' "
            'PASSING d AS "d")', [(2,), (3,), (4,), (5,)]),
    ("xquery", "db2-fn:xmlcolumn('T.D')/r[k > 1]", 4),
    ("sql", "SELECT id FROM t WHERE c = 'a'", [(1,), (3,), (5,)]),
)


@pytest.mark.parametrize("language, statement, expected", PINNED_ROUTES)
def test_snapshot_pinned_before_a_delete_keeps_its_rows(language, statement,
                                                        expected):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, c VARCHAR(5), d XML)")
    database.execute("CREATE INDEX ik ON t(d) USING XMLPATTERN '//k' "
                     "AS DOUBLE")
    database.execute("CREATE INDEX ic ON t(c)")
    for number in range(6):
        database.insert("t", {"id": number, "c": "ab"[number % 2 == 0],
                              "d": f"<r><k>{number}</k></r>"})
    snapshot = database.snapshot()
    assert database.delete_rows(
        "t", lambda values: values["id"] in (2, 3)) == 2
    answers = []
    for use_indexes in (True, False):
        if language == "sql":
            answers.append(snapshot.sql(
                statement, use_indexes=use_indexes).rows)
        else:
            answers.append(len(snapshot.xquery(
                statement, use_indexes=use_indexes)))
    assert answers == [expected, expected]


def test_capped_locator_reads_only_row_values(monkeypatch):
    database, bound = build(buffer_pool_bytes=2000)
    pool = database.buffer_pool
    try:
        assert pool.enabled
        orders = database.table("orders")
        with enabled_metrics():
            locator = orders.locator()
            assert METRICS.counter("columnar.materializations") == 0
            assert METRICS.counter("bufferpool.loads") == 0
            assert METRICS.counter("bufferpool.misses") == 0
        assert len(locator.by_doc) == ORDERS

        # The orders both shapes return, as doc ids.
        ordids = {row[0] for row in database.sql(p6(bound)).rows}
        returned = {row.values["orddoc"].doc_id for row in orders.rows
                    if row.values["ordid"] in ordids}
        materialized: list[int] = []
        load = pool.load

        def recording_load(stored):
            materialized.append(stored.doc_id)
            return load(stored)

        monkeypatch.setattr(pool, "load", recording_load)
        for statement in (p1(bound), p6(bound)):
            materialized.clear()
            with enabled_metrics():
                assert run(database, statement) == len(returned)
                loads = METRICS.counter("bufferpool.loads")
            assert loads == 0
            assert materialized and set(materialized) <= returned
        assert orders._locator is locator
    finally:
        pool.close()
