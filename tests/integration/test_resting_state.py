"""Stored documents rest as columns.

An insert of XML text parses into columns and builds no tree; index
builds and upkeep key from the columns; a checkpoint load and a WAL
replay adopt column segments and parse nothing.  The first read that
navigates a document materializes its tree exactly once, even when
readers race for it.
"""

import sys
import threading

import pytest

from repro.durability import DurableDatabase
from repro.obs.metrics import METRICS, enabled_metrics
from repro.schema.schema import Schema, TypeDeclaration
from repro.storage.catalog import Database
from repro.workload.paperqueries import load_paper_fixture

ORDERS = [f"<order><lineitem price=\"{price}\"><product><id>p{price}</id>"
          f"</product></lineitem></order>" for price in (50, 150, 250)]


def test_insert_and_reopen_build_no_tree_and_parse_nothing(tmp_path):
    with enabled_metrics():
        with DurableDatabase(tmp_path) as database:
            load_paper_fixture(database)      # text inserts, index DDL
            database.checkpoint()
            for number, text in enumerate(ORDERS, start=100):
                database.insert("orders", {"ordid": number,
                                           "orddoc": text})
        assert METRICS.counter("columnar.materializations") == 0
        parsed = METRICS.counter("xmlio.parses")
        assert parsed == 10 + len(ORDERS)     # each text once, at insert
        # Checkpoint rows and the WAL tail's inserts are adopted.
        with DurableDatabase(tmp_path) as database:
            assert database.last_recovery.replayed == len(ORDERS)
            assert METRICS.counter("columnar.materializations") == 0
            assert METRICS.counter("xmlio.parses") == parsed
            # The first navigating read builds the trees it visits.
            result = database.xquery(
                "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]")
            assert len(result) > 0
            assert METRICS.counter("columnar.materializations") > 0
            assert METRICS.counter("xmlio.parses") == parsed


def test_a_validated_document_materializes_at_insert():
    # A schema's typed values live on the nodes: validation needs the
    # tree, and index keys come from it.
    schema = Schema("s", [TypeDeclaration("/o/n", "xs:double")])
    database = Database()
    database.create_table("t", [("d", "XML")])
    database.create_xml_index("n", "t", "d", "//n", "DOUBLE")
    with enabled_metrics():
        database.insert("t", {"d": "<o><n>1</n></o>"})
        database.insert("t", {"d": "<o><n>2</n></o>"}, schema=schema)
        assert METRICS.counter("columnar.materializations") == 1
    plain, validated = database.documents("t", "d")
    assert plain._document is None and validated._document is not None
    assert database.xquery("db2-fn:xmlcolumn('T.D')/o[n > 0]",
                           use_indexes=True).serialize() == \
        ["<o><n>1</n></o>", "<o><n>2</n></o>"]


class TestRacingFirstReaders:
    """Eight threads ask a resting document for its tree at once, with
    the interpreter switching threads every microsecond: all get the
    same tree, and it is the store's live materialization."""

    @pytest.mark.parametrize("budget", [None, 10 ** 9])
    def test_racing_first_readers_get_one_tree(self, budget):
        database = Database(buffer_pool_bytes=budget)
        database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
        body = "".join(f"<i n=\"{n}\"><v>{n}</v>text</i>"
                       for n in range(300))
        for key in range(6):
            database.insert("t", {"k": key, "d": f"<r>{body}</r>"})
        documents = database.documents("t", "d")
        assert all(stored._document is None for stored in documents)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for stored in documents:
                barrier = threading.Barrier(8)
                seen = [None] * 8

                def read(reader, stored=stored, barrier=barrier,
                         seen=seen):
                    barrier.wait()
                    document = stored.document
                    seen[reader] = (document,
                                    list(document.descendants_or_self()))

                readers = [threading.Thread(target=read, args=(reader,))
                           for reader in range(8)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join()
                first, nodes = seen[0]
                for document, its_nodes in seen:
                    assert document is first
                    assert all(mine is theirs for mine, theirs
                               in zip(its_nodes, nodes))
                assert stored.columns.nodes[0] is first
                assert stored.document is first
        finally:
            sys.setswitchinterval(previous)
