"""Property: mid-mutation index failures never skew observable state,
and no index route changes an answer.

For a failure injected at *any* index-insert site — each xml index,
then the relational index — during an insert, the database afterwards
is indistinguishable from one that never attempted the insert:
catalog row counts, xml-index and rel-index contents, and per-document
path tables all match, and every one of the paper's 30 queries is
byte-identical to the never-failed oracle.  When the injection point
lies beyond the last site the insert succeeds, and the state must
instead match an oracle that performed the same insert.

The same generator drives the prefiltered routes, whose index verdicts
reach rows through each table's row locator: after random
interleavings of inserts (NULL XML columns included, on a table with
two XML columns too), deletes and rolled-back inserts, the XQuery
``xmlcolumn`` prefilter, the SQL ``XMLExists`` doc filter, the
relational-index row filter and the Q13/Q16-style index join probes
answer byte-identically with and without indexes — on the live
database and on snapshots pinned before further DML, deletes and index
creates and drops included, so the index objects a snapshot pinned
still hold every entry of its rows — every locator
equals a fresh fold of its pinned rows, and row ids strictly increase
along every table's rows, also after crash recovery and on a replica.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import DurableDatabase
from repro.durability.checkpoint import encode_database
from repro.errors import ReproError
from repro.parallel.worker import bootstrap
from repro.storage.catalog import Database
from repro.storage.table import StoredDocument
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

from ..paths import spell


class Boom(RuntimeError):
    pass


class Injector:
    """Raises at the ``fail_at``-th index-insert call, counts the rest."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0

    def wrap(self, bound_method):
        def inner(*args, **kwargs):
            site = self.calls
            self.calls += 1
            if site == self.fail_at:
                raise Boom(f"injected failure at index site {site}")
            return bound_method(*args, **kwargs)
        return inner


def build_database() -> Database:
    database = Database()
    load_paper_fixture(database)          # 3 xml indexes via DDL
    database.create_relational_index("idx_ordid", "orders", "ordid")
    return database


def order_xml(prices: list[str], custid: int | None) -> str:
    parts = ["<order>"]
    if custid is not None:
        parts.append(f"<custid>{custid}</custid>")
    for price in prices:
        parts.append(f"<lineitem price=\"{price}\">"
                     f"<product><id>x</id></product></lineitem>")
    parts.append("</order>")
    return "".join(parts)


def observable_state(database: Database) -> dict:
    state = {
        "rows": {name: len(table.rows)
                 for name, table in database.tables.items()},
        "xml_indexes": {name: len(index)
                        for name, index in database.xml_indexes.items()},
        "rel_indexes": {name: len(index)
                        for name, index in database.rel_indexes.items()},
    }
    summaries = []
    for row in database.table("orders").rows:
        stored = row.values["orddoc"]
        assert isinstance(stored, StoredDocument)
        summaries.append(sorted(
            (tuple(map(str, spell(path))), count)
            for path, count in stored.columns.path_counts().items()))
    state["summaries"] = sorted(map(tuple, summaries))
    return state


#: The generated order documents: lineitem prices (castable to DOUBLE
#: or not) and an optional customer id.
PRICES = st.lists(
    st.sampled_from(["99.50", "150", "20 USD", "0", "7.25"]), max_size=3)
CUSTIDS = st.one_of(st.none(), st.integers(min_value=1001, max_value=1003))


# An insert into orders touches three index sites in order:
# li_price, o_custid (xml), then idx_ordid (rel).  fail_at == 3 is
# past the last site: the insert succeeds.
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fail_at=st.integers(min_value=0, max_value=3),
       prices=PRICES, custid=CUSTIDS)
def test_injected_failure_leaves_state_consistent(fail_at, prices, custid):
    subject = build_database()
    oracle = build_database()
    extra = {"ordid": 99, "orddoc": order_xml(prices, custid)}

    injector = Injector(fail_at)
    li_price = subject.xml_indexes["li_price"]
    o_custid = subject.xml_indexes["o_custid"]
    idx_ordid = subject.rel_indexes["idx_ordid"]
    patched = [(li_price, "index_document"),
               (o_custid, "index_document"),
               (idx_ordid, "insert_row")]
    originals = [getattr(obj, name) for obj, name in patched]
    for (obj, name), original in zip(patched, originals):
        setattr(obj, name, injector.wrap(original))
    try:
        subject.insert("orders", extra)
        succeeded = True
    except Boom:
        succeeded = False
    finally:
        for (obj, name), original in zip(patched, originals):
            setattr(obj, name, original)

    assert succeeded == (fail_at >= 3)
    if succeeded:
        oracle.insert("orders", extra)

    assert observable_state(subject) == observable_state(oracle)
    for number in PAPER_QUERIES:
        assert (run_paper_query(subject, number)
                == run_paper_query(oracle, number)), (
            f"query {number} diverged after injection at site {fail_at}")


# ---------------------------------------------------------------------------
# Prefiltered routes: index verdicts located through the row locator
# ---------------------------------------------------------------------------

def build_routes_database(database) -> None:
    """The paper fixture, a VARCHAR index for the Q13 join probe, and
    ``pairs``: two XML columns, each indexed, plus a relational key."""
    load_paper_fixture(database)
    database.create_relational_index("idx_ordid", "orders", "ordid")
    database.create_xml_index("li_prod", "orders", "orddoc",
                              "//lineitem/product/id", "VARCHAR")
    database.create_table("pairs", [("pid", "INTEGER"), ("a", "XML"),
                                    ("b", "XML")])
    database.create_xml_index("pa_k", "pairs", "a", "//k", "DOUBLE")
    database.create_xml_index("pb_k", "pairs", "b", "//k", "DOUBLE")
    database.create_relational_index("idx_pid", "pairs", "pid")


def pair_xml(keys: list[str] | None) -> str | None:
    if keys is None:
        return None
    return "<x>" + "".join(f"<k>{key}</k>" for key in keys) + "</x>"


_KEYS = st.one_of(st.none(), st.lists(st.sampled_from(["1", "2", "3", "x"]),
                                      max_size=2))
#: (table, ...contents, fail_at): an insert fails and rolls back at index
#: site ``fail_at`` unless that lies beyond its table's last site.
_ORDER = st.tuples(st.just("orders"), st.one_of(st.none(), PRICES), CUSTIDS,
                   st.integers(min_value=0, max_value=5))
_PAIR = st.tuples(st.just("pairs"), _KEYS, _KEYS,
                  st.integers(min_value=0, max_value=4))
_DELETE = st.tuples(st.just("delete"), st.sampled_from(["orders", "pairs"]),
                    st.integers(min_value=1, max_value=3))
#: Index DDL the routes can toggle: created when absent, else dropped.
ROUTE_INDEXES = {
    "li_price": ("orders", "orddoc", "//lineitem/@price", "DOUBLE"),
    "li_prod": ("orders", "orddoc", "//lineitem/product/id", "VARCHAR"),
    "pb_k": ("pairs", "b", "//k", "DOUBLE"),
    "idx_ordid": ("orders", "ordid"),
    "idx_pid": ("pairs", "pid"),
}
_INDEX = st.tuples(st.just("index"), st.sampled_from(sorted(ROUTE_INDEXES)))
ROUTE_OPS = st.lists(st.one_of(_ORDER, _PAIR, _DELETE, _INDEX), max_size=6)


def apply_route_op(database, op, key: int) -> None:
    kind = op[0]
    if kind == "delete":
        _kind, table, divisor = op
        column = "ordid" if table == "orders" else "pid"
        database.delete_rows(
            table, lambda values: values[column] % divisor == 0)
        return
    if kind == "index":
        name = op[1]
        if name in database.xml_indexes or name in database.rel_indexes:
            database.drop_index(name)
        elif len(ROUTE_INDEXES[name]) == 4:
            database.create_xml_index(name, *ROUTE_INDEXES[name])
        else:
            database.create_relational_index(name, *ROUTE_INDEXES[name])
        return
    if kind == "orders":
        _kind, prices, custid, fail_at = op
        values = {"ordid": key, "orddoc": (None if prices is None
                                           else order_xml(prices, custid))}
    else:
        _kind, a_keys, b_keys, fail_at = op
        values = {"pid": key % 7, "a": pair_xml(a_keys),
                  "b": pair_xml(b_keys)}
    injector = Injector(fail_at)
    patched = [(index, "index_document")
               for index in database.xml_indexes.values()
               if index.table == kind]
    patched += [(index, "insert_row")
                for index in database.rel_indexes.values()
                if index.table == kind]
    originals = [getattr(obj, name) for obj, name in patched]
    for (obj, name), original in zip(patched, originals):
        setattr(obj, name, injector.wrap(original))
    try:
        database.insert(kind, values)
    except Boom:
        pass
    finally:
        for (obj, name), original in zip(patched, originals):
            setattr(obj, name, original)


def apply_routes(database, ops, first_key: int = 100) -> None:
    for key, op in enumerate(ops, start=first_key):
        apply_route_op(database, op, key)


_ORDERS = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
ROUTE_XQUERIES = (
    f"{_ORDERS}//order[lineitem/@price > 100]",
    f"for $i in {_ORDERS}/order[custid = 1002] return $i",
    "for $x in db2-fn:xmlcolumn('PAIRS.B')/x[k = 2] return $x",
    "db2-fn:xmlcolumn('PAIRS.A')/x[k > 1]",
)
ROUTE_SQL = (
    # XMLExists doc filters; NULL documents must survive to the residual.
    "SELECT ordid, orddoc FROM orders WHERE "
    "XMLExists('$o//lineitem[@price > 100]' passing orddoc as \"o\")",
    "SELECT pid, a, b FROM pairs WHERE "
    "XMLExists('$b/x[k = 2]' passing b as \"b\")",
    "SELECT pid FROM pairs WHERE "
    "XMLExists('$a/x[k = 1]' passing a as \"a\") AND "
    "XMLExists('$b/x[k > 1]' passing b as \"b\")",
    # Relational-index row filters, alone and beside a doc filter.
    "SELECT ordid, XMLQuery('$o/order/custid' passing orddoc as \"o\") "
    "FROM orders WHERE ordid = 3",
    "SELECT pid, b FROM pairs WHERE pid = 2 AND "
    "XMLExists('$a/x[k = 2]' passing a as \"a\")",
    # Index join probes: Q13 (VARCHAR), Q16 (DOUBLE), two XML columns,
    # and a relational one.
    "SELECT p.id, o.ordid FROM products p, orders o WHERE "
    "XMLExists('$order//lineitem/product[id eq $pid]' "
    "passing o.orddoc as \"order\", p.id as \"pid\")",
    "SELECT c.cid, o.ordid FROM customer c, orders o WHERE "
    "XMLExists('$order/order[custid/xs:double(.) = "
    "$cust/customer/id/xs:double(.)]' "
    "passing o.orddoc as \"order\", c.cdoc as \"cust\")",
    "SELECT p.pid, q.pid FROM pairs p, pairs q WHERE "
    "XMLExists('$b/x[k = $n]' passing q.b as \"b\", p.pid as \"n\")",
    "SELECT p.pid, o.ordid FROM pairs p, orders o WHERE o.ordid = p.pid",
)


def _outcome(run):
    try:
        return run()
    except ReproError as error:
        return ("error", getattr(error, "code", None),
                getattr(error, "sqlstate", None))


def route_answers(view) -> dict:
    """Every route shape, indexed; each must equal its index-free run."""
    answers = {}
    for query in ROUTE_XQUERIES:
        fast, slow = (_outcome(lambda indexes=indexes: view.xquery(
            query, use_indexes=indexes).serialize()) for indexes in
            (True, False))
        assert fast == slow, query
        answers[query] = fast
    for statement in ROUTE_SQL:
        fast, slow = (_outcome(lambda indexes=indexes: view.sql(
            statement, use_indexes=indexes).serialize_rows())
            for indexes in (True, False))
        assert fast == slow, statement
        answers[statement] = fast
    return answers


def fold_locator(rows, xml_columns) -> tuple:
    """A row locator's maps, folded afresh from a row list."""
    by_doc, by_row_id, docless = {}, {}, []
    for position, row in enumerate(rows):
        by_row_id[row.row_id] = position
        docs = [row.values[column] for column in xml_columns
                if row.values[column] is not None]
        for stored in docs:
            by_doc[stored.doc_id] = (position, row)
        if not docs:
            docless.append(position)
    return by_doc, by_row_id, docless


def assert_locators_exact(view) -> None:
    for table in view.tables.values():
        row_ids = [row.row_id for row in table.rows]
        assert all(earlier < later
                   for earlier, later in zip(row_ids, row_ids[1:]))
        locator = table.locator()
        assert locator.rows is table.rows
        assert (locator.by_doc, locator.by_row_id,
                list(locator.docless)) == fold_locator(
                    table.rows, table.xml_columns())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ROUTE_OPS)
def test_prefiltered_routes_agree_after_any_dml(ops):
    database = Database()
    build_routes_database(database)
    route_answers(database)
    pinned = []
    for key, op in enumerate(ops, start=100):
        snapshot = database.snapshot()
        pinned.append((snapshot, route_answers(snapshot)))
        apply_route_op(database, op, key)
        # Index entries of rows deleted since the pin stay in the
        # snapshot's index objects (a compaction swaps in a new one);
        # ids inserted since are ids the pinned rows lack.
        assert route_answers(snapshot) == pinned[-1][1]
        assert_locators_exact(snapshot)
        route_answers(database)
        assert_locators_exact(database)
    # Every snapshot still answers as pinned after all later DML.
    for snapshot, answers in pinned:
        assert route_answers(snapshot) == answers


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(before=ROUTE_OPS, after=ROUTE_OPS)
def test_row_ids_increase_after_recovery_and_on_replicas(before, after):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        database = DurableDatabase(directory)
        build_routes_database(database)
        apply_routes(database, before)
        apply_routes(database, after, first_key=200)
        # Bootstrap a copy exactly as the pool's workers are.
        with database._rwlock.read():
            replica = bootstrap(
                encode_database(database, database.wal.last_lsn))
        expected = route_answers(database)
        assert_locators_exact(database)
        assert route_answers(replica) == expected
        assert_locators_exact(replica)
        # Crash: no clean close, no final checkpoint.
        database.wal.abandon()
        with DurableDatabase(directory) as recovered:
            assert route_answers(recovered) == expected
            assert_locators_exact(recovered)


# ---------------------------------------------------------------------------
# Column-derived index keys equal node-derived keys
# ---------------------------------------------------------------------------

#: Lexical forms that cast (or fail to cast, and are skipped) to each
#: index type: whitespace, NaN/INF, signs, time zones, junk.
LEXICAL = st.sampled_from([
    "1", " 2.5 ", "-0", "1e3", "NaN", "INF", "-INF", "+INF", "nan", "",
    " ", "\n\t", "abc", "20 USD", "2006-09-12", " 2006-09-12 ",
    "2006-09-12Z", "2006-09-12+05:00", "2006-09-12T10:00:00",
    "2006-09-12T10:00:00Z", "2006-09-12T23:30:00-02:00",
    " 2006-09-12T10:00:00.5 ", "2006-13-45", "x&amp;y", "a&lt;b"])

NAMES = st.sampled_from(["v", "d", "t", "e", "p:v", "q:d"])


def _element(name: str, attributes: list, children: list) -> str:
    attrs = "".join(f' a{i}="{value}"' for i, value in enumerate(attributes))
    if not children:
        return f"<{name}{attrs}/>"
    return f"<{name}{attrs}>{''.join(children)}</{name}>"


CONTENT = st.recursive(
    st.one_of(LEXICAL,
              LEXICAL.map(lambda text: f"<!--{text.replace('-', '')}-->"),
              LEXICAL.map(lambda text: f"<?pi {text}?>")),
    lambda inner: st.builds(_element, NAMES,
                            st.lists(LEXICAL, max_size=2),
                            st.lists(inner, max_size=4)),
    max_leaves=12)

DOCUMENTS = st.lists(CONTENT, max_size=5).map(
    lambda children: '<r xmlns:p="urn:p" xmlns:q="urn:q" xmlns="urn:d">'
                     + "".join(children) + "</r>")

#: (pattern, type) of the differential indexes: every node kind, every
#: key type, namespaced and default-namespace names.
KEYED = [
    ("declare default element namespace 'urn:d'; //v", "DOUBLE"),
    ("declare default element namespace 'urn:d'; //d", "DATE"),
    ("declare default element namespace 'urn:d'; //t", "TIMESTAMP"),
    ("//*", "VARCHAR"), ("//*", "DOUBLE"), ("//@*", "DOUBLE"),
    ("//@*", "DATE"), ("//text()", "DOUBLE"), ("//text()", "TIMESTAMP"),
    ("//comment()", "VARCHAR"), ("//comment()", "DOUBLE"),
    ("//processing-instruction()", "DATE"),
    ("declare namespace p='urn:p'; //p:v", "DOUBLE"),
    ("declare namespace q='urn:q'; //q:d/@a0", "VARCHAR")]


def _entries(index) -> list:
    return [(key, entry.node_id, entry.path)
            for key, entry in index.tree.items()]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=DOCUMENTS)
def test_column_keys_equal_node_keys(text):
    from repro.storage.xmlindex import XmlIndex
    from repro.xmlio import parse_document
    document = parse_document(text)
    store = document.column_store
    for pattern, index_type in KEYED:
        by_nodes = XmlIndex("n", "t", "d", pattern, index_type)
        by_columns = XmlIndex("c", "t", "d", pattern, index_type)
        by_nodes.index_document(1, document)
        by_columns.index_document(1, store)
        assert _entries(by_columns) == _entries(by_nodes), pattern
        assert by_columns.skipped_nodes == by_nodes.skipped_nodes
        assert len(by_columns) == len(by_nodes)


#: Eligible predicates over the KEYED indexes' paths, so the index
#: route probes what the column keys put in the trees.  The generated
#: documents mix zoned and unzoned timestamps; both routes compare them
#: in UTC, the implicit timezone.
ROUTE_QUERIES = [
    "declare default element namespace 'urn:d'; "
    "db2-fn:xmlcolumn('T.D')//v[. > 1]",
    "declare default element namespace 'urn:d'; "
    "db2-fn:xmlcolumn('T.D')//t[. >= xs:dateTime('2006-09-13T00:00:00')]",
    "db2-fn:xmlcolumn('T.D')//text()"
    "[. < xs:dateTime('2006-09-13T12:00:00+02:00')]",
    "declare default element namespace 'urn:d'; "
    "db2-fn:xmlcolumn('T.D')//d[. = xs:date('2006-09-12')]",
    "db2-fn:xmlcolumn('T.D')//*[@a0 = xs:date('2006-09-12')]",
    "db2-fn:xmlcolumn('T.D')//comment()[. = 'abc']",
    "declare namespace p='urn:p'; db2-fn:xmlcolumn('T.D')//p:v[. < 3]"]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts=st.lists(DOCUMENTS, min_size=1, max_size=4))
def test_index_and_scan_routes_agree_after_a_reopen(texts):
    def outcome(database, query, indexed):
        try:
            return database.xquery(query, use_indexes=indexed).serialize()
        except ReproError as error:
            return type(error).__name__

    def routes(database):
        return [[outcome(database, query, indexed)
                 for indexed in (True, False)] for query in ROUTE_QUERIES]

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory) as database:
            database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
            for number, (pattern, index_type) in enumerate(KEYED):
                database.create_xml_index(f"i{number}", "t", "d",
                                          pattern, index_type)
            half = len(texts) // 2
            for key, text in enumerate(texts[:half]):
                database.insert("t", {"k": key, "d": text})
            database.checkpoint()
            for key, text in enumerate(texts[half:], start=half):
                database.insert("t", {"k": key, "d": text})
            before = routes(database)
        for indexed, scanned in before:
            assert indexed == scanned
        # Checkpoint rows and replayed inserts, both adopted: the
        # rebuilt indexes key them from columns.
        with DurableDatabase(directory) as database:
            assert routes(database) == before
