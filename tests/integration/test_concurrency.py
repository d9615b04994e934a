"""Concurrent serving layer: GIL-stress correctness tests.

The engine itself runs no threads, but the server runs every session
on one, so concurrent readers are load-bearing.  Three independent
guarantees are pinned here, the threaded ones under
``sys.setswitchinterval(1e-6)`` so CPython preempts roughly every
bytecode:

1. 8 racing readers calling ``Database.execute_any`` get results
   byte-identical to a serial loop over the paper's 30 numbered
   queries;
2. readers racing a DDL/ingest writer never observe a torn snapshot —
   every query sees a document set that was the committed state at
   *some* instant, never a mix;
3. the process pool's answers equal serial answers, also while a
   writer ingests, and its soundness gate refuses non-distributive
   queries.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Database
from repro.core.querycache import compile_query
from repro.durability import DurableDatabase
from repro.parallel.gate import partition_reference
from repro.planner.plan import QueryResult

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
CUSTCOL = "db2-fn:xmlcolumn('CUSTOMER.CDOC')"

#: The paper's 30 numbered queries (modulo the fixtures' table names),
#: one entry per query number.  Error-raising variants (the paper's
#: deliberate failure cases, e.g. Query 14's multi-id XMLCAST) are
#: represented by the closest non-raising form the conformance tests
#: run, so serial and batched execution can be compared structurally.
PAPER_QUERIES = [
    # 1 — the running example: eligible attribute-price predicate.
    f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i",
    # 2 — wildcard attribute step (ineligible).
    f"for $i in {XMLCOL}//order[lineitem/@*>100] return $i",
    # 3 — string comparand vs DOUBLE index.
    f'for $i in {XMLCOL}//order[lineitem/@price > "100" ] return $i',
    # 4 — xs:double-casted XML join.
    'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
    'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
    "where $i/custid/xs:double(.) = $j/id/xs:double(.) return $i",
    # 5 — XMLQuery in the select list (row per order).
    "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' "
    'passing orddoc as "order") FROM orders',
    # 6 — single-row VALUES form.
    "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
    "//lineitem[@price > 100] '))",
    # 7 — standalone row-per-lineitem XQuery.
    f"{XMLCOL}//lineitem[@price > 100]",
    # 8 — XMLEXISTS with node-sequence body (filters).
    "SELECT ordid, orddoc FROM orders WHERE "
    "XMLExists('$order//lineitem[@price > 100]' "
    'passing orddoc as "order")',
    # 9 — XMLEXISTS with boolean body (the everything pitfall).
    "SELECT ordid, orddoc FROM orders WHERE "
    "XMLExists('$order//lineitem/@price > 100' "
    'passing orddoc as "order")',
    # 10 — XMLQuery + XMLEXISTS combined.
    "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' "
    'passing orddoc as "order") FROM orders WHERE '
    "XMLExists('$order//lineitem[@price > 100]' "
    'passing orddoc as "order")',
    # 11 — XMLTABLE row-per-lineitem.
    "SELECT o.ordid, t.lineitem FROM orders o, "
    "XMLTable('$order//lineitem[@price > 100]' "
    'passing o.orddoc as "order" '
    "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
    # 12 — XMLTABLE with a column-level predicate (yields NULLs).
    "SELECT o.ordid, t.lineitem FROM orders o, "
    "XMLTable('$order' passing o.orddoc as \"order\" "
    "COLUMNS \"lineitem\" XML BY REF "
    "PATH './/lineitem[@price > 100]') as t(lineitem)",
    # 13 — XQuery-style join (XMLEXISTS with a passed SQL value).
    "SELECT p.name FROM products p, orders o "
    "WHERE XMLExists('$order//lineitem/product[id eq $pid]' "
    'passing o.orddoc as "order", p.id as "pid")',
    # 14 — SQL-style join via XMLCAST (single-lineitem order only).
    "SELECT p.name FROM products p, orders o "
    "WHERE ordid = 4 AND p.id = XMLCast(XMLQuery("
    "'$order//lineitem/product/id' passing o.orddoc as \"order\") "
    "as VARCHAR(13))",
    # 15 — relational comparison of a casted custid.
    "SELECT ordid FROM orders WHERE XMLCast(XMLQuery('$o//custid[1]' "
    "passing orddoc as \"o\") as DOUBLE) = 1001 AND ordid = 3",
    # 16 — the XMLEXISTS spelling of the same restriction.
    "SELECT ordid FROM orders WHERE "
    "XMLExists('$o//custid[. = 1001]' passing orddoc as \"o\")",
    # 17 — for-bound path predicate (index-eligible).
    f"for $doc in {XMLCOL} "
    "where $doc//lineitem/@price > 100 return $doc//product/id",
    # 18 — let-bound variant of 17.
    f"for $doc in {XMLCOL} "
    "let $p := $doc//lineitem/@price where $p > 100 "
    "return $doc//product/id",
    # 19 — constructor outer-join shape.
    f"for $ord in {XMLCOL}/order "
    "return <result>{{ $ord/custid }}</result>".replace("{{", "{")
    .replace("}}", "}"),
    # 20 — conditional constructor content.
    f"for $ord in {XMLCOL}/order "
    "return if ($ord/lineitem/@price > 100) then $ord else ()",
    # 21 — nested FLWOR as binding sequence.
    f"for $ord in (for $o in {XMLCOL}/order "
    "where $o/custid = 1001 return $o) "
    "return $ord/lineitem",
    # 22 — constructed document queried in place.
    "let $order := <neworder>{ "
    f"for $li in {XMLCOL}//lineitem[@price > 100] return $li "
    "}</neworder> return $order/lineitem/@price/data(.)",
    # 23/26 — the §3.6 constructed view, filtered.
    "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
    "/order/lineitem return <item>{ $i/@quantity, "
    "<pid>{ $i/product/id/data(.) }</pid> }</item> "
    "for $j in $view where $j/pid = '17' return $j",
    # 24/27 — the flattened rewrite of the view.
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem "
    "where $i/product/id = '17' return $i",
    # 25 — absolute path from a column document.
    f"for $d in {XMLCOL} return $d/order/custid",
    # 26 — distinct customer names via a second column.
    f"for $c in {CUSTCOL}/customer return $c/name",
    # 27 — string-comparison join across columns.
    f"for $i in {XMLCOL}/order for $j in {CUSTCOL}/customer "
    "where $i/custid = $j/id return $j/name",
    # 28 — quantified predicate.
    f"for $o in {XMLCOL}/order "
    'where some $p in $o//@price satisfies $p = "150" return $o',
    # 29 — aggregation over the collection.
    f"count({XMLCOL}//lineitem)",
    # 30 — order by over a computed key.
    f"for $o in {XMLCOL}/order "
    "order by count($o//lineitem) descending, string($o/custid[1]) "
    "return <o>{ $o/custid }</o>",
]


def rendered(result) -> tuple:
    """A byte-comparable rendering of either result kind."""
    if isinstance(result, QueryResult):
        return ("xquery", result.serialized())
    return ("sql", tuple(result.columns),
            tuple(tuple(row) for row in result.serialize_rows()))


@pytest.fixture()
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def racing_readers(database, statements, readers: int = 8) -> list:
    """``statements`` answered by ``readers`` threads sharing the
    database, in input order — what the server's sessions do."""
    with ThreadPoolExecutor(max_workers=readers) as pool:
        return list(pool.map(database.execute_any, statements))


class TestRacingReadersMatchSerial:
    def test_thirty_paper_queries_byte_identical(self, indexed_db,
                                                 fast_switching):
        assert len(PAPER_QUERIES) == 30
        serial = [rendered(indexed_db.execute_any(query))
                  for query in PAPER_QUERIES]
        raced = racing_readers(indexed_db, PAPER_QUERIES)
        assert [rendered(result) for result in raced] == serial

    def test_repeated_interleavings(self, indexed_db, fast_switching):
        # Shuffle-free repetition: thread scheduling differs run to
        # run; results must not.
        subset = PAPER_QUERIES[:8] * 3
        serial = [rendered(indexed_db.execute_any(query))
                  for query in subset]
        for _ in range(3):
            raced = racing_readers(indexed_db, subset)
            assert [rendered(result) for result in raced] == serial

    def test_execute_many_is_the_serial_loop(self, indexed_db):
        queries = iter(PAPER_QUERIES[:3])
        serial = [rendered(indexed_db.execute_any(query))
                  for query in PAPER_QUERIES[:3]]
        batched = indexed_db.execute_many(queries)
        assert [rendered(result) for result in batched] == serial


class TestNoTornSnapshots:
    ORDER = ("<order><custid>{cid}</custid>"
             "<lineitem price=\"150\"><product><id>x{cid}</id></product>"
             "</lineitem></order>")
    #: One query, two counts that are equal in every committed state.
    PAIRED = ("(count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//custid), "
              "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem))")

    def test_readers_never_see_partial_ingest(self, fast_switching):
        db = Database()
        db.create_table("orders", [("ordid", "INTEGER"),
                                   ("orddoc", "XML")])
        db.execute("CREATE INDEX li_price ON orders(orddoc) "
                   "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")
        for i in range(5):
            db.insert("orders", {"ordid": i,
                                 "orddoc": self.ORDER.format(cid=i)})

        stop = threading.Event()
        writer_error = []

        def writer():
            cid = 1000
            try:
                while not stop.is_set():
                    db.insert("orders",
                              {"ordid": cid,
                               "orddoc": self.ORDER.format(cid=cid)})
                    cid += 1
            except Exception as exc:  # surfaced by the main thread
                writer_error.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(15):
                for result in racing_readers(db, [self.PAIRED] * 8):
                    custids, lineitems = [
                        int(item.value) for item in result.items]
                    # Every committed state has custids == lineitems;
                    # a torn read (row list mid-grow, index mid-update)
                    # would break the pairing.
                    assert custids == lineitems
        finally:
            stop.set()
            thread.join()
        assert not writer_error

    def test_snapshot_is_frozen_while_writer_proceeds(self,
                                                      fast_switching):
        db = Database()
        db.create_table("orders", [("ordid", "INTEGER"),
                                   ("orddoc", "XML")])
        for i in range(4):
            db.insert("orders", {"ordid": i,
                                 "orddoc": self.ORDER.format(cid=i)})
        snapshot = db.snapshot()
        before = snapshot.xquery(self.PAIRED).serialized()
        for i in range(4, 10):
            db.insert("orders", {"ordid": i,
                                 "orddoc": self.ORDER.format(cid=i)})
        assert snapshot.xquery(self.PAIRED).serialized() == before
        assert snapshot.version < db.version

    def test_snapshot_rejects_writes(self):
        from repro.errors import SQLError
        db = Database()
        db.create_table("orders", [("ordid", "INTEGER"),
                                   ("orddoc", "XML")])
        snapshot = db.snapshot()
        with pytest.raises(SQLError) as excinfo:
            snapshot.sql("INSERT INTO orders (ordid, orddoc) "
                         "VALUES (1, NULL)")
        assert excinfo.value.sqlstate == "25006"


class TestPartitionParallel:
    PARTITIONABLE = [
        f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i",
        f"{XMLCOL}//lineitem[@price > 100]",
        f"for $o in {XMLCOL}/order where $o/custid = 1001 "
        "return $o/lineitem",
        f"for $d in {XMLCOL} return <r>{{ $d//product/id }}</r>"
        .replace("{{", "{").replace("}}", "}"),
        f"{XMLCOL}/order/custid",
    ]

    def test_pool_matches_serial(self, indexed_db):
        with indexed_db.process_pool(processes=2) as pool:
            for query in self.PARTITIONABLE:
                assert (pool.xquery(query).serialized()
                        == indexed_db.xquery(query).serialized()), query

    def test_gate_refuses_order_by(self):
        query = (f"for $o in {XMLCOL}/order "
                 "order by string($o/custid[1]) return $o")
        assert partition_reference(compile_query(query).module) is None

    def test_gate_refuses_sqlquery_and_multi_column(self):
        nested_sql = ("for $c in db2-fn:sqlquery("
                      "\"SELECT cdoc FROM customer\")/customer "
                      "return $c/name")
        assert partition_reference(
            compile_query(nested_sql).module) is None
        two_columns = (f"for $i in {XMLCOL}/order "
                       f"for $j in {CUSTCOL}/customer "
                       "where $i/custid = $j/id return $j/name")
        assert partition_reference(
            compile_query(two_columns).module) is None
        global_filter = f"{XMLCOL}[3]"
        assert partition_reference(
            compile_query(global_filter).module) is None

    def test_gate_accepts_canonical_shapes(self):
        for query in self.PARTITIONABLE:
            assert partition_reference(
                compile_query(query).module) == "ORDERS.ORDDOC", query

    def test_pool_while_writer_ingests(self, tmp_path):
        """A racing writer never makes a pooled answer stale or torn:
        each equals the serial answer at the same version."""
        with DurableDatabase(tmp_path / "state") as db:
            db.create_table("orders", [("ordid", "INTEGER"),
                                       ("orddoc", "XML")])
            for i in range(12):
                db.insert("orders", {
                    "ordid": i,
                    "orddoc": TestNoTornSnapshots.ORDER.format(cid=i)})
            query = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
                     "where $o/lineitem/@price > 100 return $o/custid")
            stop = threading.Event()

            def writer():
                # Paced: each insert fsyncs inside the write lock, and
                # a loop that re-takes it at once starves every reader.
                cid = 5000
                while not stop.wait(0.001):
                    db.insert("orders", {
                        "ordid": cid,
                        "orddoc":
                            TestNoTornSnapshots.ORDER.format(cid=cid)})
                    cid += 1

            with db.process_pool(processes=2) as pool:
                thread = threading.Thread(target=writer)
                thread.start()
                try:
                    counts = []
                    for _ in range(10):
                        # The read hold pins one version for both runs.
                        with db._rwlock.read():
                            values = pool.xquery(query).serialize()
                            assert values == \
                                db.xquery(query).serialize()
                        # One committed state: custids unique and in
                        # insertion order.
                        assert values == sorted(set(values),
                                                key=values.index)
                        counts.append(len(values))
                finally:
                    stop.set()
                    thread.join(timeout=30)
                assert not thread.is_alive()
            assert counts == sorted(counts) and counts[0] >= 12
