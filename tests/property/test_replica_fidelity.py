"""Replica fidelity: checkpoint + shipped WAL tail == the primary.

Hypothesis drives a randomized DDL+DML workload against a durable
primary — inserts, predicate deletes, index create/drop, scratch-table
create/drop, and checkpoints at arbitrary cut points.  A replica is
then bootstrapped exactly the way the process pool does it: the latest
on-disk checkpoint's records (or nothing, if the workload never
checkpointed) plus :func:`repro.durability.wal.tail_wal` of everything
after it.  The oracle is the paper's own workload: all 30 numbered
queries must answer **byte-identically** on primary and replica —
indexes, path summaries and schemas are derived state the replica must
rebuild from the log alone.

The freshness watermark is tested at the same boundary: a replica
built from the checkpoint but *without* the tail sits behind the
primary's LSN and must refuse (:class:`StaleReplicaError`) rather than
serve the stale snapshot.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import WAL_NAME, DurableDatabase
from repro.durability.checkpoint import load_checkpoint
from repro.durability.wal import tail_wal
from repro.errors import ReplicationError, StaleReplicaError
from repro.parallel import ReplicaDatabase, build_replica
from repro.workload.paperqueries import (PAPER_ORDERS, PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

# Each op is (kind, argument) — interpreted by _apply_op so hypothesis
# shrinks over plain data, not callables.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6)),
        st.tuples(st.just("delete"), st.integers(2, 5)),
        st.tuples(st.just("toggle-index"), st.integers(0, 2)),
        st.tuples(st.just("toggle-table"), st.just(0)),
        st.tuples(st.just("checkpoint"), st.just(0)),
    ),
    min_size=0, max_size=10)

_NEXT_ORDID = 100


def _apply_op(database: DurableDatabase, op: tuple[str, int]) -> None:
    global _NEXT_ORDID
    kind, argument = op
    if kind == "insert":
        _NEXT_ORDID += 1
        database.insert("orders", {"ordid": _NEXT_ORDID,
                                   "orddoc": PAPER_ORDERS[argument][1]})
    elif kind == "delete":
        database.delete_rows(
            "orders",
            lambda values: values["ordid"] >= 100
            and values["ordid"] % argument == 0)
    elif kind == "toggle-index":
        name = f"prop_idx_{argument}"
        if name in database.xml_indexes:
            database.drop_index(name)
        else:
            database.create_xml_index(
                name, "orders", "orddoc",
                "//lineitem/@quantity", "DOUBLE")
    elif kind == "toggle-table":
        if "scratch" in database.tables:
            database.drop_table("scratch")
        else:
            database.create_table("scratch", [("k", "INTEGER"),
                                              ("v", "VARCHAR(8)")])
    elif kind == "checkpoint":
        database.checkpoint()


def _ship_replica(database: DurableDatabase,
                  directory: Path) -> ReplicaDatabase:
    """Bootstrap exactly as the pool's workers do: checkpoint + tail."""
    database.sync()
    checkpoint = load_checkpoint(directory)
    after_lsn = checkpoint[0]["last_lsn"] if checkpoint else 0
    records = tail_wal(directory / WAL_NAME, after_lsn=after_lsn)
    return build_replica(checkpoint, records,
                         index_order=database.index_order)


class TestReplicaFidelity:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_all_30_paper_queries_byte_identical(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            with DurableDatabase(directory) as database:
                load_paper_fixture(database)
                for op in ops:
                    _apply_op(database, op)
                replica = _ship_replica(database, directory)
                assert replica.last_applied_lsn == \
                    database.wal.last_lsn
                for number in PAPER_QUERIES:
                    assert run_paper_query(replica, number) == \
                        run_paper_query(database, number), \
                        f"paper query {number} diverged for ops {ops}"

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_behind_the_watermark_refuses_stale_reads(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            with DurableDatabase(directory) as database:
                load_paper_fixture(database)
                database.checkpoint()
                for op in ops:
                    # Keep the workload strictly past the checkpoint so
                    # a tail-less replica is genuinely behind.
                    if op[0] != "checkpoint":
                        _apply_op(database, op)
                database.insert("orders",
                                {"ordid": 9999,
                                 "orddoc": PAPER_ORDERS[0][1]})
                database.sync()
                checkpoint = load_checkpoint(directory)
                stale = build_replica(checkpoint, [],
                                      index_order=database.index_order)
                required = database.wal.last_lsn
                assert stale.last_applied_lsn < required
                with pytest.raises(StaleReplicaError) as excinfo:
                    stale.ensure_fresh(required)
                assert excinfo.value.required_lsn == required
                assert excinfo.value.last_applied_lsn == \
                    stale.last_applied_lsn
                # ...and the missing tail catches it up exactly.
                after_lsn = checkpoint[0]["last_lsn"]
                for lsn, record in tail_wal(directory / WAL_NAME,
                                            after_lsn=after_lsn):
                    stale.apply_wal_record(lsn, record)
                stale.ensure_fresh(required)
                for number in (1, 3, 11, 25):
                    assert run_paper_query(stale, number) == \
                        run_paper_query(database, number)


class TestReplicaSealing:
    def test_direct_writes_refused_after_bootstrap(self, tmp_path):
        with DurableDatabase(tmp_path / "state") as database:
            load_paper_fixture(database)
            replica = _ship_replica(database, tmp_path / "state")
        with pytest.raises(ReplicationError):
            replica.insert("orders", {"ordid": 1,
                                      "orddoc": "<order/>"})
        with pytest.raises(ReplicationError):
            replica.create_table("t", [("x", "INTEGER")])
        with pytest.raises(ReplicationError):
            replica.delete_rows("orders")

    def test_idempotent_redelivery_is_skipped(self, tmp_path):
        with DurableDatabase(tmp_path / "state") as database:
            load_paper_fixture(database)
            database.sync()
            records = tail_wal(tmp_path / "state" / WAL_NAME)
            replica = build_replica(None, records)
            before = replica.last_applied_lsn
            # Ship the same tail again: every record must be skipped.
            assert all(not replica.apply_wal_record(lsn, record)
                       for lsn, record in records)
            assert replica.last_applied_lsn == before
            assert run_paper_query(replica, 1) == \
                run_paper_query(database, 1)
