"""Unit tests for the document buffer pool (``repro.storage.bufferpool``).

Covers the LRU accounting, tier-1 eviction (drop the materialized
tree, keep the columns), eviction in a durable database (drop the
columns too, keeping a pointer to the segment in the log), transparent
reload through ``StoredDocument.document``, and the ``bufferpool.*``
metrics contract.  The log-tier cases run on a ``DurableDatabase``
with a one-byte budget, where every document but the newest is cold.
"""

import pytest

from repro.durability import DurableDatabase
from repro.errors import DurabilityError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage.bufferpool import BufferPool
from repro.storage.catalog import Database
from repro.storage.columnar import ingest_document
from repro.storage.segment import SegmentTables, encode_document
from repro.storage.table import StoredDocument
from repro.xmlio import parse_document
from repro.xmlio.serializer import serialize

BIG_XML = ("<order>" +
           "".join(f"<lineitem price=\"{i}\"><product><id>p{i}</id>"
                   f"</product></lineitem>" for i in range(40)) +
           "</order>")


def make_stored(doc_id: int, xml: str = BIG_XML) -> StoredDocument:
    document = parse_document(xml)
    stored = StoredDocument(doc_id, document)
    stored._store = ingest_document(document)
    return stored


def cold_pair(tmp_path, xml: str = BIG_XML):
    """A durable database under a one-byte pool and its two documents:
    the second's insert evicted the first, columns included."""
    database = DurableDatabase(tmp_path / "db", buffer_pool_bytes=1)
    database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
    for key in (1, 2):
        database.insert("t", {"id": key, "d": xml})
    first, second = (row.values["d"] for row in database.table("t").rows)
    return database, first, second


class TestPoolMechanics:
    def test_disabled_pool_is_inert(self):
        pool = BufferPool(None)
        assert not pool.enabled
        stored = make_stored(1)
        pool.admit(stored)
        assert pool.resident_bytes == 0
        assert stored.document is not None

    def test_admit_within_budget_keeps_tree(self):
        pool = BufferPool(50_000_000)
        stored = make_stored(1)
        stored._pool = pool
        pool.admit(stored)
        assert stored._document is not None
        assert pool.resident_bytes > 0

    def test_eviction_under_budget_pressure(self):
        pool = BufferPool(1)  # nothing fits: everything but the
        docs = []             # most recent access gets evicted
        for doc_id in range(3):
            stored = make_stored(doc_id)
            stored._pool = pool
            pool.admit(stored)
            docs.append(stored)
        assert sum(1 for s in docs if s._document is None) >= 2

    def test_evicted_document_reloads_transparently(self):
        pool = BufferPool(1)
        first, second = make_stored(1), make_stored(2)
        expected = serialize(first._document)
        original_ids = first._document.root_element.node_id
        for stored in (first, second):
            stored._pool = pool
            pool.admit(stored)
        assert first._document is None  # evicted by second's admit
        reloaded = first.document       # transparent re-materialize
        assert serialize(reloaded) == expected
        assert reloaded.root_element.node_id == original_ids

    def test_touch_refreshes_lru_position(self):
        # Exact budget games are fragile; test ordering directly.
        pool = BufferPool(50_000_000)
        a, b = make_stored(1), make_stored(2)
        for stored in (a, b):
            pool._lru[stored.doc_id] = stored
            pool._charged[stored.doc_id] = 1
        pool.touch(a)
        assert list(pool._lru) == [2, 1]

    def test_discard_forgets_document(self):
        pool = BufferPool(50_000_000)
        stored = make_stored(1)
        stored._pool = pool
        pool.admit(stored)
        charged = pool.resident_bytes
        assert charged > 0
        pool.discard(stored)
        assert pool.resident_bytes == 0
        assert stored.doc_id not in pool._lru


class TestSpill:
    """Eviction in a durable database drops the columns; the segment's
    one copy is the log frame that logged it."""

    def test_tier2_spill_writes_and_reloads(self, tmp_path):
        expected = serialize(parse_document(BIG_XML))
        database, first, _second = cold_pair(tmp_path)
        with database:
            assert first._document is None
            assert first._store is None
            assert first._cold.file.path.endswith("wal.log")
            # Nothing but the log is written for it.
            assert sorted(path.name for path
                          in (tmp_path / "db").iterdir()) == ["wal.log"]
            assert serialize(first.document) == expected

    def test_spill_preserves_node_ids(self, tmp_path):
        database, first, second = cold_pair(tmp_path)
        with database:
            original = [node.node_id
                        for node in first.document.descendants_or_self()]
            _ = second.document  # evicts the first again
            assert first._store is None
            restored = [node.node_id
                        for node in first.document.descendants_or_self()]
            assert restored == original

    def test_a_reloaded_segment_that_fails_its_crc_is_corruption(
            self, tmp_path):
        database, first, _second = cold_pair(tmp_path)
        with database:
            pointer = first._cold
            with open(pointer.file.path, "r+b") as log:
                log.seek(pointer.offset + pointer.length - 1)
                last = log.read(1)
                log.seek(pointer.offset + pointer.length - 1)
                log.write(bytes([last[0] ^ 1]))
            with pytest.raises(DurabilityError,
                               match=r"wal\.log segment at byte \d+: "
                                     r"segment CRC mismatch"):
                _ = first.document
            assert first._store is None


class TestSpillInvalidation:
    def test_discard_deletes_spill_file(self, tmp_path):
        # A deleted row's resident document drops its log pointer; a
        # cold one keeps it, for a snapshot pinned before the delete.
        database, first, second = cold_pair(tmp_path)
        with database:
            snapshot = database.snapshot()
            assert second._cold is not None
            assert database.delete_rows("t") == 2
            pool = database.buffer_pool
            assert second._cold is None and first._cold is not None
            assert not pool._lru and pool.resident_bytes == 0
            assert snapshot.xquery(
                "count(db2-fn:xmlcolumn('T.D')//lineitem)"
            ).serialized() == "80"


class TestMetrics:
    def test_hit_miss_eviction_counters(self):
        with enabled_metrics():
            pool = BufferPool(1)
            first, second = make_stored(1), make_stored(2)
            for stored in (first, second):
                stored._pool = pool
                pool.admit(stored)
            assert METRICS.counter("bufferpool.evictions") >= 1
            _ = first.document   # miss: re-materialize
            assert METRICS.counter("bufferpool.misses") >= 1
            _ = second.document if second._document is not None else None
            before = METRICS.counter("bufferpool.hits")
            _ = first.document   # first is now resident -> hit
            assert METRICS.counter("bufferpool.hits") > before

    def test_documents_resting_as_columns_are_not_evicted(self):
        # Text inserts rest as columns: a tier-1 eviction has no tree
        # to drop, so none is counted and every column byte stays
        # charged, however far over budget that leaves the pool.
        with enabled_metrics():
            database = Database(buffer_pool_bytes=1)
            database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
            for key in range(5):
                database.insert("t", {"id": key,
                                      "d": f"<a><b>{key}</b>text</a>"})
            assert METRICS.counter("bufferpool.evictions") == 0
        pool = database.buffer_pool
        stores = [row.values["d"]._store
                  for row in database.table("t").rows]
        assert pool.resident_bytes == sum(store.nbytes()
                                          for store in stores)
        # A tree is evicted down to its columns, not to nothing.
        first = database.table("t").rows[0].values["d"]
        _ = first.document
        _ = database.table("t").rows[1].values["d"].document
        assert first._document is None
        assert pool.resident_bytes == sum(store.nbytes()
                                          for store in stores) + (
            stores[1].materialized_nbytes())

    def test_spill_and_load_counters(self, tmp_path):
        with enabled_metrics():
            database, first, _second = cold_pair(tmp_path)
            with database:
                assert METRICS.counter("bufferpool.evictions") == 1
                assert METRICS.counter("bufferpool.loads") == 0
                _ = first.document
                assert METRICS.counter("bufferpool.loads") == 1


class TestCanonicalText:
    """The serializer's canonical text and spans live on the column
    store: charged by ``nbytes``, never in a segment, kept by a tier-1
    eviction and gone with the columns in a durable one."""

    def _serialized(self, stored):
        lineitem = stored.document.root_element.children[3]
        return serialize(stored.document), serialize(lineitem)

    def test_nbytes_counts_the_canonical_text_and_spans(self):
        stored = make_stored(1)
        store = stored._store
        columns_only = store.nbytes()
        document_text, _ = self._serialized(stored)
        assert store.nbytes() == (columns_only + len(document_text)
                                  + store.spans.itemsize * len(store.spans))
        assert len(store.spans) == 2 * len(store)

    def test_payload_never_carries_the_cache(self):
        stored = make_stored(1)
        before = encode_document(stored._store, SegmentTables())
        self._serialized(stored)
        assert encode_document(stored._store, SegmentTables()) == before

    def test_tier1_eviction_keeps_the_cache(self):
        pool = BufferPool(1)
        first, second = make_stored(1), make_stored(2)
        expected = self._serialized(first)
        store = first._store
        canonical, spans = store.canonical, store.spans
        for stored in (first, second):
            stored._pool = pool
            pool.admit(stored)
        assert first._document is None and first._store is store
        assert store.canonical is canonical and store.spans is spans
        with enabled_metrics():
            assert self._serialized(first) == expected
            assert METRICS.counter("serialize.slices") == 2
            assert METRICS.counter("serialize.walks") == 0

    def test_tier2_spill_drops_the_cache(self, tmp_path):
        database, first, second = cold_pair(tmp_path)
        with database:
            expected = self._serialized(first)
            assert first._store.canonical is not None
            _ = second.document  # evicts the first, columns and cache
            assert first._store is None
            assert first.document is not None  # reads the log back
            assert first._store.canonical is None
            assert first._store.spans is None
            assert self._serialized(first) == expected
            assert first._store.canonical == expected[0]


class TestDatabaseIntegration:
    def test_database_without_budget_has_inactive_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUFFER_POOL_BYTES", raising=False)
        database = Database()
        assert not database.buffer_pool.enabled
        database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
        row = database.insert("t", {"id": 1, "d": "<a><b/></a>"})
        assert row.values["d"]._pool is None

    def test_database_with_budget_registers_documents(self):
        # An explicit budget always wins over the environment default.
        database = Database(buffer_pool_bytes=50_000_000)
        assert database.buffer_pool.enabled
        database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
        row = database.insert("t", {"id": 1, "d": "<a><b/></a>"})
        stored = row.values["d"]
        assert stored._pool is database.buffer_pool
        assert stored.doc_id in database.buffer_pool._lru

    def test_env_var_sets_default_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUFFER_POOL_BYTES", "12345")
        database = Database()
        assert database.buffer_pool.enabled
        assert database.buffer_pool.budget_bytes == 12345

    def test_queries_survive_eviction_churn(self):
        database = Database(buffer_pool_bytes=1)
        database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
        for i in range(4):
            database.insert("t", {"id": i, "d": BIG_XML})
        result = database.xquery(
            "count(db2-fn:xmlcolumn('T.D')//lineitem)")
        assert result.serialized() == "160"

    def test_delete_discards_from_pool(self):
        database = Database(buffer_pool_bytes=50_000_000)
        database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
        database.insert("t", {"id": 1, "d": "<a/>"})
        assert database.buffer_pool.resident_bytes > 0
        database.delete_rows("t")
        assert database.buffer_pool.resident_bytes == 0
