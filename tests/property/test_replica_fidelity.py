"""Bootstrap fidelity: a pool worker's copy of a cut == the primary.

Hypothesis drives a randomized DDL+DML workload against a durable
primary — inserts, predicate deletes, index create/drop, scratch-table
create/drop, and checkpoints at arbitrary cut points.  A worker
database is then bootstrapped exactly the way the process pool does
it: :func:`repro.durability.checkpoint.encode_database` under the read
lock, recovered by :func:`repro.parallel.worker.bootstrap`.  The
oracle is the paper's own workload: all 30 numbered queries must
answer **byte-identically** on primary and worker — indexes, path
summaries and schemas are derived state the worker must rebuild from
the cut alone.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import DurableDatabase
from repro.durability.checkpoint import encode_database
from repro.parallel.worker import bootstrap
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


def _bootstrap_worker(database: DurableDatabase):
    """Bootstrap exactly as the pool's workers are: one cut."""
    with database._rwlock.read():
        return bootstrap(encode_database(database,
                                         database.wal.last_lsn))


class TestReplicaFidelity:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_all_30_paper_queries_byte_identical(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            with DurableDatabase(Path(tmp)) as database:
                load_paper_fixture(database)
                for op in ops:
                    _apply_op(database, op)
                worker = _bootstrap_worker(database)
                for number in PAPER_QUERIES:
                    assert run_paper_query(worker, number) == \
                        run_paper_query(database, number), \
                        f"paper query {number} diverged for ops {ops}"
