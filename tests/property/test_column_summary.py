"""Property: a column's path summary is the fold of its documents.

``Table.path_classes`` maps each XML column's path classes (a
document's (path, node count) signature) to the number of documents in
that class.  After any interleaving of inserts, deletes and insert
rollbacks (an index failure injected as in ``test_index_consistency``)
it must equal the fold of path tables freshly captured from re-parsed
copies of the stored documents, and ``docs_with_path`` /
``path_cardinality`` must equal a per-document count.  The same holds
after crash recovery (checkpoint load + WAL replay), on a copy
bootstrapped as the process pool's workers are, and inside a real
process-pool worker.  A snapshot keeps the answers it was taken with.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.patterns import parse_xmlpattern
from repro.durability import DurableDatabase
from repro.durability.checkpoint import encode_database
from repro.parallel import ProcessPool
from repro.parallel import worker as pool_worker
from repro.planner.stats import ExecutionStats
from repro.storage.catalog import Database
from repro.storage.columnar import ColumnStore
from repro.workload.paperqueries import load_paper_fixture
from repro.xmlio import parse_document, serialize

from ..paths import spell

from .test_index_consistency import CUSTIDS, PRICES, Boom, Injector, \
    order_xml

#: Optional content beyond ``order_xml``'s: a namespaced element with a
#: namespaced attribute, comments at two depths, a PI.
EXTRAS = {
    "note": "<m:note xmlns:m='urn:meta' m:lang='en'>n<!--inner--></m:note>",
    "comment": "<!--outer-->",
    "pi": "<?audit ok?>",
}
#: Each of these matches two or more distinct paths in some documents.
PATTERNS = (
    "//lineitem/@price", "//@*", "//comment()", "//text()", "//id",
    "declare namespace m='urn:meta'; //m:note",
    "declare namespace m='urn:meta'; //@m:lang",
    "//processing-instruction()", "//order", "//nothing",
)

_INSERT = st.tuples(st.just("insert"), PRICES, CUSTIDS,
                    st.lists(st.sampled_from(sorted(EXTRAS)), max_size=3),
                    st.integers(min_value=0, max_value=6))
_DELETE = st.tuples(st.just("delete"), st.integers(min_value=2, max_value=4))
OPS = st.lists(st.one_of(_INSERT, _DELETE), max_size=8)
DURABLE_OPS = st.lists(
    st.one_of(_INSERT, _DELETE, st.tuples(st.just("checkpoint"))),
    max_size=8)


def document_xml(prices, custid, extras) -> str:
    body = order_xml(prices, custid)
    return (body[:-len("</order>")]
            + "".join(EXTRAS[extra] for extra in extras) + "</order>")


def apply(database, op, ordid: int) -> None:
    """One generated op.  An insert wraps every index-insert site on
    ``orders`` with an injector, so it fails (and rolls back) at site
    ``fail_at`` unless that lies beyond the last site."""
    kind = op[0]
    if kind == "insert":
        _kind, prices, custid, extras, fail_at = op
        injector = Injector(fail_at)
        patched = [(index, "index_document")
                   for index in database.xml_indexes.values()
                   if index.table == "orders"]
        patched += [(index, "insert_row")
                    for index in database.rel_indexes.values()]
        originals = [getattr(obj, name) for obj, name in patched]
        for (obj, name), original in zip(patched, originals):
            setattr(obj, name, injector.wrap(original))
        try:
            database.insert("orders", {
                "ordid": ordid,
                "orddoc": document_xml(prices, custid, extras)})
        except Boom:
            pass
        finally:
            for (obj, name), original in zip(patched, originals):
                setattr(obj, name, original)
    elif kind == "delete":
        divisor = op[1]
        database.delete_rows(
            "orders", lambda values: values["ordid"] % divisor == 0)
    else:
        database.checkpoint()


def apply_all(database, ops, first_ordid: int = 100) -> None:
    for ordid, op in enumerate(ops, start=first_ordid):
        apply(database, op, ordid)


def fresh_path_counts(database, table="orders", column="orddoc"):
    """Per-document path tables captured from re-parsed copies."""
    return [ColumnStore.from_document(
                parse_document(serialize(stored.document))).path_counts()
            for stored in database.documents(table, column)]


def fold(database, table="orders", column="orddoc") -> Counter:
    return Counter(frozenset(counts.items())
                   for counts in fresh_path_counts(database, table, column))


def summary(database, table="orders", column="orddoc") -> Counter:
    return Counter(database.path_classes(table, column))


def answers(database) -> dict:
    return {pattern: (database.docs_with_path("orders", "orddoc", pattern),
                      database.path_cardinality("orders", "orddoc",
                                                pattern))
            for pattern in PATTERNS}


def oracle_answers(database) -> dict:
    tables = fresh_path_counts(database)
    result = {}
    for pattern in PATTERNS:
        parsed = parse_xmlpattern(pattern)
        per_doc = [sum(count for path, count in counts.items()
                       if parsed.matches_path(spell(path)))
                   for counts in tables]
        result[pattern] = (sum(1 for count in per_doc if count),
                           sum(per_doc))
    return result


def assert_summary_exact(database) -> None:
    assert summary(database) == fold(database)
    assert summary(database, "customer", "cdoc") == \
        fold(database, "customer", "cdoc")
    assert answers(database) == oracle_answers(database)


def build_database(database) -> None:
    load_paper_fixture(database)
    database.create_relational_index("idx_ordid", "orders", "ordid")


def test_patterns_cover_two_paths():
    database = Database()
    build_database(database)
    apply_all(database, [("insert", ["150"], 1001, sorted(EXTRAS), 9)])
    classes = database.path_classes("orders", "orddoc")
    paths = {path for path_class in classes for path, _count in path_class}
    for pattern in ("//@*", "//comment()"):
        parsed = parse_xmlpattern(pattern)
        assert sum(parsed.matches_path(spell(path)) for path in paths) >= 2
    assert_summary_exact(database)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_summary_is_fold_after_any_dml(ops):
    database = Database()
    build_database(database)
    assert_summary_exact(database)
    for ordid, op in enumerate(ops, start=100):
        snapshot = database.snapshot()
        pinned = answers(snapshot)
        pinned_classes = dict(snapshot.path_classes("orders", "orddoc"))
        apply(database, op, ordid)
        assert answers(snapshot) == pinned
        assert snapshot.path_classes("orders", "orddoc") == pinned_classes
        assert_summary_exact(database)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(before=DURABLE_OPS, after=DURABLE_OPS)
def test_summary_survives_recovery_and_replication(before, after):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        database = DurableDatabase(directory)
        build_database(database)
        apply_all(database, before)
        apply_all(database, after, first_ordid=200)
        # Bootstrap a copy exactly as the pool's workers are: shipped
        # column segments of one cut.
        with database._rwlock.read():
            worker = pool_worker.bootstrap(
                encode_database(database, database.wal.last_lsn))
        assert_summary_exact(database)
        assert_summary_exact(worker)
        assert summary(worker) == summary(database)
        expected = summary(database)
        # Crash: no clean close, no final checkpoint.
        database.wal.abandon()
        with DurableDatabase(directory) as recovered:
            assert summary(recovered) == expected
            assert_summary_exact(recovered)


def _serve_summary(database, *_request):
    """Stand-in for a pool worker's xquery handler that reports the
    worker database's own column summary."""
    return {"items": [(repr(canonical(summary(database))), True)],
            "stats": ExecutionStats(), "spans": None, "cache_hit": False}


def canonical(classes: Counter) -> list:
    return sorted((sorted((tuple(map(str, spell(path))), count)
                          for path, count in path_class), docs)
                  for path_class, docs in classes.items())


def test_summary_inside_process_pool_workers(tmp_path, monkeypatch):
    # Forked workers inherit the patched handler.
    monkeypatch.setattr(pool_worker, "_serve_xquery", _serve_summary)
    with DurableDatabase(tmp_path / "state") as database:
        build_database(database)
        # Inserts, a rolled-back insert, and a delete, all in the cut.
        apply_all(database, [("insert", ["150"], 1001, ["note"], 9),
                             ("insert", [], None, ["pi", "comment"], 9),
                             ("insert", ["0"], 1002, ["note"], 9),
                             ("insert", ["7.25"], None, [], 0),
                             ("delete", 3)], first_ordid=200)
        with ProcessPool(database, 2, start_method="fork") as pool:
            result = pool.xquery("db2-fn:xmlcolumn('ORDERS.ORDDOC')")
        expected = canonical(fold(database))
        assert canonical(summary(database)) == expected
        assert result.partitions == 2
        assert result.serialize() == [repr(expected)] * 2


@pytest.mark.parametrize("column", [("orders", "orddoc"),
                                    ("customer", "cdoc")])
def test_last_document_drops_its_class(column):
    database = Database()
    build_database(database)
    table, xml_column = column
    database.delete_rows(table)
    assert database.path_classes(table, xml_column) == {}
    assert database.table(table)._class_keys[xml_column] == {}
