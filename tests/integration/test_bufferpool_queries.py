"""Buffer-pool transparency over the full paper workload.

With the pool capped below the total data size (forcing eviction
churn on every access pattern), all 30 paper queries must be
byte-identical to an uncapped database, and ``bufferpool.evictions``
must actually fire — proving the identical answers came *through* the
eviction/reload machinery, not around it.  In a durable database an
eviction also drops the columns and a reload reads the document's
segment back from the log (``bufferpool.loads``); nothing but
``checkpoint.log`` and ``wal.log`` is ever written.
"""

import gc

import pytest

from repro.durability import DurableDatabase
from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage.catalog import Database
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

from .test_cold_tier import replaced_files_open

#: Far below the fixture's resident footprint: every document access
#: competes for the budget, so the LRU churns continuously.
TINY_BUDGET = 2_000


def oracle_answers() -> dict[int, str]:
    database = Database()
    load_paper_fixture(database)
    return {number: run_paper_query(database, number)
            for number in PAPER_QUERIES}


@pytest.fixture(scope="module")
def oracle():
    return oracle_answers()


class TestCappedPoolByteIdentity:
    def test_all_30_queries_identical_under_eviction_churn(self, oracle):
        with enabled_metrics():
            capped = Database(buffer_pool_bytes=TINY_BUDGET)
            load_paper_fixture(capped)
            answers = {number: run_paper_query(capped, number)
                       for number in PAPER_QUERIES}
            evictions = METRICS.counter("bufferpool.evictions")
        assert answers == oracle
        assert evictions > 0

    def test_repeated_runs_stay_identical(self, oracle):
        # Each pass re-materializes evicted documents; answers must
        # not drift run over run.
        capped = Database(buffer_pool_bytes=TINY_BUDGET)
        load_paper_fixture(capped)
        for _pass in range(2):
            for number in sorted(PAPER_QUERIES)[:10]:
                assert run_paper_query(capped, number) == oracle[number]

    def test_indexed_plans_survive_eviction(self, oracle):
        # Index probes hand back StoredDocuments whose trees may be
        # evicted; Q1 and Q2 are the index-eligible price queries.
        capped = Database(buffer_pool_bytes=TINY_BUDGET)
        load_paper_fixture(capped, with_indexes=True)
        assert run_paper_query(capped, 1) == oracle[1]
        assert run_paper_query(capped, 2) == oracle[2]


class TestSpillingDurableDatabase:
    def test_paper_queries_identical_with_spool(self, oracle, tmp_path):
        with enabled_metrics():
            with DurableDatabase(tmp_path / "db",
                                 buffer_pool_bytes=TINY_BUDGET) as database:
                load_paper_fixture(database)
                answers = {number: run_paper_query(database, number)
                           for number in PAPER_QUERIES}
                evictions = METRICS.counter("bufferpool.evictions")
                loads = METRICS.counter("bufferpool.loads")
                cold = [stored for stored
                        in database.documents("orders", "orddoc")
                        if stored._store is None]
        assert answers == oracle
        assert evictions > 0
        assert loads > 0
        assert cold
        # The log is the only on-disk copy: no other file is written.
        assert sorted(path.name for path in (tmp_path / "db").iterdir()) \
            == ["wal.log"]

    def test_row_delete_removes_spill_files(self, tmp_path):
        with DurableDatabase(tmp_path / "db",
                             buffer_pool_bytes=TINY_BUDGET) as database:
            load_paper_fixture(database)
            orders = database.documents("orders", "orddoc")
            assert any(stored._cold is not None for stored in orders)
            deleted = database.delete_rows("orders", lambda values: True)
            assert deleted == len(orders) > 0
            pool = database.buffer_pool
            assert not {stored.doc_id for stored in orders} & set(pool._lru)
            # Resident documents dropped their pointers; once the rows
            # are gone and a checkpoint replaced the log, no handle on
            # a replaced file stays open.
            assert all(stored._cold is None for stored in orders
                       if stored._store is not None)
            del orders
            gc.collect()
            database.checkpoint()
            assert replaced_files_open(tmp_path / "db") == []

    def test_drop_table_removes_spill_files(self, tmp_path):
        with DurableDatabase(tmp_path / "db",
                             buffer_pool_bytes=TINY_BUDGET) as database:
            load_paper_fixture(database)
            assert database.buffer_pool.resident_bytes > 0
            for name in list(database.tables):
                database.drop_table(name)
            assert not database.buffer_pool._lru
            assert database.buffer_pool.resident_bytes == 0

    def test_recovery_ignores_spool_files(self, oracle, tmp_path):
        # Spool files are pure cache: a recovered database answers
        # from checkpoint + WAL alone, capped or not.
        with DurableDatabase(tmp_path / "db",
                             buffer_pool_bytes=TINY_BUDGET) as database:
            load_paper_fixture(database)
            database.checkpoint()
        with DurableDatabase(tmp_path / "db",
                             buffer_pool_bytes=TINY_BUDGET) as recovered:
            for number in sorted(PAPER_QUERIES)[:10]:
                assert run_paper_query(recovered, number) == oracle[number]
