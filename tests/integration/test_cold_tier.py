"""The log is the cold tier of a durable database's buffer pool.

A document whose segment sits in a written frame of ``wal.log`` or
``checkpoint.log`` points at it; eviction drops its columns and a read
brings them back with one positional read (``bufferpool.loads``).
These tests pin that, under a one-byte pool where every document but
the newest is cold:

* the 30 paper queries answer byte for byte as an uncapped in-memory
  database does, across inserts, deletes, a checkpoint and a reopen;
* a checkpoint re-points every document at the new ``checkpoint.log``
  and no handle on a replaced log file stays open;
* a checkpoint (and a process pool's bootstrap, the same encoding) is a
  scan: it evicts nothing, so the working set stays resident.
"""

import os

import pytest

from repro.durability import DurableDatabase
from repro.durability.checkpoint import encode_database
from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage.catalog import Database
from repro.workload import populate_paper_schema
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

NEW_ORDERS = [
    (100, "<order><date>2006-09-12</date><custid>1001</custid>"
          "<lineitem price=\"250\"><product><id>widget</id></product>"
          "</lineitem></order>"),
    (101, "<order><date>2006-09-13</date><custid>1002</custid>"
          "<lineitem price=\"20\" quantity=\"3\"><product><id>gadget</id>"
          "</product></lineitem></order>"),
]


def replaced_files_open(directory) -> list[str]:
    """The files in ``directory`` this process holds open that were
    since replaced or deleted."""
    prefix = os.path.realpath(directory) + os.sep
    found = []
    for descriptor in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{descriptor}")
        except FileNotFoundError:  # the listing's own descriptor
            continue
        if target.startswith(prefix) and target.endswith(" (deleted)"):
            found.append(target)
    return found


def answers(database) -> dict[int, str]:
    return {number: run_paper_query(database, number)
            for number in PAPER_QUERIES}


def write(database) -> None:
    """Inserts and deletes on top of the paper fixture."""
    for ordid, document in NEW_ORDERS:
        database.insert("orders", {"ordid": ordid, "orddoc": document})
    database.delete_rows("orders",
                         lambda values: values["ordid"] in (2, 100))


def log_names(database) -> set[str]:
    return {os.path.basename(stored._cold.file.path)
            for table, column in (("orders", "orddoc"),
                                  ("customer", "cdoc"))
            for stored in database.documents(table, column)
            if stored._cold is not None}


def test_paper_queries_identical_across_writes_checkpoint_and_reopen(
        tmp_path):
    oracle = Database()
    load_paper_fixture(oracle)
    with enabled_metrics():
        with DurableDatabase(tmp_path, buffer_pool_bytes=1) as database:
            load_paper_fixture(database)
            assert answers(database) == answers(oracle)
            write(database)
            write(oracle)
            expected = answers(oracle)
            assert answers(database) == expected
            assert log_names(database) == {"wal.log"}
            database.checkpoint()
            assert log_names(database) == {"checkpoint.log"}
            assert answers(database) == expected
        with DurableDatabase(tmp_path, buffer_pool_bytes=1) as database:
            assert log_names(database) == {"checkpoint.log"}
            assert answers(database) == expected
        assert METRICS.counter("bufferpool.loads") > 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "checkpoint.log", "wal.log"]


def test_no_handle_of_a_replaced_file_stays_open(tmp_path):
    with DurableDatabase(tmp_path, buffer_pool_bytes=1) as database:
        load_paper_fixture(database)
        answers(database)
        database.checkpoint()
        write(database)
        answers(database)
        assert log_names(database) == {"checkpoint.log", "wal.log"}
        database.checkpoint()
        # Every document points at the new checkpoint; the replaced
        # checkpoint and log closed with their last pointer.
        assert log_names(database) == {"checkpoint.log"}
        assert replaced_files_open(tmp_path) == []


@pytest.mark.parametrize("scan", ["checkpoint", "pool bootstrap"])
def test_a_checkpoint_evicts_no_working_set(tmp_path, scan):
    with DurableDatabase(tmp_path, buffer_pool_bytes=40_000) as database:
        populate_paper_schema(database, orders=60, customers=8,
                              products=10, seed=7)
        database.checkpoint()
        documents = database.documents("orders", "orddoc")
        for stored in documents[-3:]:
            stored.document  # the working set: three recent trees
        trees = [stored.doc_id for stored in documents
                 if stored._document is not None]
        columns = [stored.doc_id for stored in documents
                   if stored._store is not None]
        assert trees and len(columns) < len(documents)
        with enabled_metrics():
            if scan == "checkpoint":
                database.checkpoint()
            else:
                encode_database(database, database.wal.last_lsn)
            assert METRICS.counter("bufferpool.evictions") == 0
            assert METRICS.counter("bufferpool.loads") > 0
        assert [stored.doc_id for stored in documents
                if stored._document is not None] == trees
        assert [stored.doc_id for stored in documents
                if stored._store is not None] == columns


def test_a_pinned_snapshot_re_admits_no_deleted_document(tmp_path):
    # Deleted rows leave the pool; a snapshot pinned before the delete
    # still reads them, but its reads keep and charge nothing, so no
    # entry (and no handle on a replaced log) outlives the snapshot.
    with DurableDatabase(tmp_path, buffer_pool_bytes=1) as database:
        database.execute("CREATE TABLE t (id INTEGER, d XML)")
        for number in (1, 2, 3):
            database.insert("t", {"id": number,
                                  "d": f"<a><b>{number}</b></a>"})
        database.checkpoint()
        pool = database.buffer_pool
        snapshot = database.snapshot()
        assert database.delete_rows("t") == 3
        assert not pool._lru and pool.resident_bytes == 0
        for _read in range(2):
            assert snapshot.xquery(
                "db2-fn:xmlcolumn('T.D')//b").serialize() == [
                    "<b>1</b>", "<b>2</b>", "<b>3</b>"]
            assert not pool._lru and pool.resident_bytes == 0
        del snapshot
        database.checkpoint()
        assert not pool._lru and pool.resident_bytes == 0
        assert replaced_files_open(tmp_path) == []
