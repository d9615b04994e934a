"""Buffer pool: keep the working set, not the database, in memory.

Every stored document rests as its compact
:class:`~repro.storage.columnar.ColumnStore` (a handful of ``array``
columns plus one text heap); a read that navigates it adds — roughly
an order of magnitude larger — the materialized XDM object tree.  The
pool tracks both against one configurable byte budget and evicts
least-recently used documents when the budget is exceeded.  A document
is admitted as it was stored, usually as columns alone; its first
navigating read materializes the tree through :meth:`BufferPool.load`
(counted as a miss) under the pool's lock, so racing readers get one
tree.

* **Tier 1 (always):** eviction drops the materialized tree; the
  columns stay resident, and charged, and the next access
  re-materializes from them (same ``node_id`` for every node, so index
  postings and document-order keys survive).  Columns alone free
  nothing at tier 1, so they are never its victims.
* **Tier 2 (spill directory set):** eviction also writes the columns
  as one segment with their node ids (:mod:`repro.storage.segment`) to
  ``<spill_dir>/doc-<id>.cols`` through the durability layer's
  :mod:`~repro.durability.fsio` helpers and drops them; the next access
  adopts the segment again.  Spill files are pure cache — the
  authoritative copy is the checkpoint + WAL — so they are written
  without fsync and never read unless this pool wrote them first.

Structural reads (``StoredDocument.columns``: path tables for the
planner and static analysis) never re-materialize: at tier 1 they read
the resident columns, at tier 2 :meth:`BufferPool.load_columns` reads
the spill back and charges only the columns.

A stored tree is numbered and so never changes: dropping it loses
nothing its columns do not hold.

Budget ``None`` disables the pool entirely: documents are never
registered and every access is a plain attribute read, preserving the
un-pooled engine's performance exactly.

Observability (``bufferpool.*`` in :mod:`repro.obs.metrics`):
``hits`` (accesses finding a live tree), ``misses`` (accesses that had
to materialize one), ``evictions``, ``spills`` / ``loads`` /
``spill_deletes`` (tier-2 writes / reads / removals), and the
``resident_bytes`` gauge.  Spill files are deleted when their document
is discarded (row deleted, table dropped) and when the pool is closed
— an orphaned spill file both leaks disk and, because doc_ids restart
with every process, could alias a future document.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

from ..obs.metrics import METRICS
from .columnar import ColumnStore
from .segment import decode_document, encode_document

__all__ = ["BufferPool"]


class BufferPool:
    """LRU cache of materialized documents under one byte budget.

    Thread-safe and a leaf in the lock order: every method takes only
    the pool's own lock and calls nothing that acquires the database
    RWLock, so it may be entered from either side of that lock.
    """

    def __init__(self, budget_bytes: int | None = None,
                 spill_dir=None):
        self.budget_bytes = budget_bytes
        self.spill_dir = spill_dir
        self._lock = threading.Lock()
        #: doc_id -> StoredDocument, least-recently used first.
        self._lru: "OrderedDict[int, object]" = OrderedDict()
        self._charged: dict[int, int] = {}
        #: doc_ids with a spill file on disk.  Spill files are pure
        #: cache, but they must be *deleted* when their document leaves
        #: the pool: doc_ids are process-local counters, so an orphan
        #: from a dead document can collide with a future document's id
        #: and be read back as its (stale) columns — besides leaking
        #: disk for every deleted row.
        self._spilled: set[int] = set()
        self.resident_bytes = 0
        self._spill_ready = False

    @property
    def enabled(self) -> bool:
        return self.budget_bytes is not None

    def __repr__(self) -> str:
        return (f"<BufferPool budget={self.budget_bytes} "
                f"resident={self.resident_bytes} "
                f"docs={len(self._lru)}>")

    # ------------------------------------------------------------------
    # Registration & access (called from StoredDocument)
    # ------------------------------------------------------------------

    def admit(self, stored) -> None:
        """Register a freshly stored document (columns, and a tree if it
        was stored with one)."""
        if not self.enabled:
            return
        with self._lock:
            self._charge(stored)
            self._evict_to_fit(keep=stored)
            self._publish_gauge()

    def discard(self, stored) -> None:
        """Forget a deleted document (its rows left the table): drop
        its pool entry *and* its spill file, if one was written."""
        if not self.enabled:
            return
        with self._lock:
            self._lru.pop(stored.doc_id, None)
            self.resident_bytes -= self._charged.pop(stored.doc_id, 0)
            self._remove_spill(stored.doc_id)
            self._publish_gauge()

    def close(self) -> None:
        """Discard the pool's on-disk cache: every spill file this
        pool wrote is removed.  The database owning the pool calls
        this on shutdown; spill files never outlive their pool
        (doc_ids restart per process, so a survivor could alias a
        future document)."""
        if not self.enabled:
            return
        with self._lock:
            for doc_id in list(self._spilled):
                self._remove_spill(doc_id)

    def release(self, stored) -> None:
        """A bulk scan (index build) is done with this document.

        Scan-resistance for index builds: a build touches every
        document exactly once, so letting each one ride the LRU both
        blows past the budget transiently (the previous scan document
        is still charged when the next one loads) and evicts the whole
        pre-build working set.  Builders call this after finishing a
        document; when the pool is over budget the *scanned* document
        is evicted immediately instead of a colder — but hotter in
        truth — working-set entry."""
        if not self.enabled:
            return
        with self._lock:
            if (self.resident_bytes > self.budget_bytes
                    and self._frees_bytes(stored)):
                self._evict(stored)
                self._publish_gauge()

    def touch(self, stored) -> None:
        """An access found the materialized tree live: LRU bump + hit."""
        if not self.enabled:
            return
        with self._lock:
            if stored.doc_id in self._lru:
                self._lru.move_to_end(stored.doc_id)
                if METRICS.enabled:
                    METRICS.inc("bufferpool.hits")

    def load(self, stored):
        """Materialize a document's tree (reading the spill file first
        when the columns themselves were dropped), then evict colder
        documents to stay within budget."""
        with self._lock:
            document = stored._document
            if document is not None:
                # Another thread materialized it while we waited.
                self._lru.move_to_end(stored.doc_id)
                if METRICS.enabled:
                    METRICS.inc("bufferpool.hits")
                return document
            if METRICS.enabled:
                METRICS.inc("bufferpool.misses")
            document = self._columns_of(stored).materialize(stored.schema)
            stored._document = document
            self._charge(stored)
            self._evict_to_fit(keep=stored)
            self._publish_gauge()
            return document

    def load_columns(self, stored) -> ColumnStore:
        """The first half of :meth:`load`: bring a spilled document's
        columns back and charge them, without materializing a tree
        (structural reads — path tables — need no nodes)."""
        with self._lock:
            store = self._columns_of(stored)
            self._charge(stored)
            self._evict_to_fit(keep=stored)
            self._publish_gauge()
            return store

    def _columns_of(self, stored) -> ColumnStore:
        """The document's columns, read from its spill file when a
        tier-2 eviction dropped them (lock held)."""
        store = stored._store
        if store is None:
            store = stored._store = self._read_spill(stored.doc_id)
        return store

    # ------------------------------------------------------------------
    # Eviction (lock held)
    # ------------------------------------------------------------------

    def _charge(self, stored) -> None:
        cost = self._cost_of(stored)
        self.resident_bytes += cost - self._charged.get(stored.doc_id, 0)
        self._charged[stored.doc_id] = cost
        self._lru[stored.doc_id] = stored
        self._lru.move_to_end(stored.doc_id)

    @staticmethod
    def _cost_of(stored) -> int:
        store = stored._store
        if store is None:
            return 0
        cost = store.nbytes()
        if stored._document is not None:
            cost += store.materialized_nbytes()
        return cost

    def _evict_to_fit(self, keep) -> None:
        """Evict least-recently used documents until the budget holds
        or no document other than ``keep`` can free bytes."""
        assert self.budget_bytes is not None
        while self.resident_bytes > self.budget_bytes:
            victim = next((stored for doc_id, stored in self._lru.items()
                           if doc_id != keep.doc_id
                           and self._frees_bytes(stored)), None)
            if victim is None:
                return
            self._evict(victim)

    def _frees_bytes(self, stored) -> bool:
        """Whether evicting ``stored`` frees its tree or, at tier 2,
        its resident columns."""
        return (stored._document is not None
                or self.spill_dir is not None and stored._store is not None)

    def _evict(self, stored) -> None:
        """Drop the tree and, at tier 2, spill the columns; the charge
        shrinks by what left memory."""
        store = stored._store
        if stored._document is not None:
            store.detach()
            stored._document = None
        if self.spill_dir is not None and store is not None:
            self._write_spill(stored.doc_id, store)
            stored._store = None
        if METRICS.enabled:
            METRICS.inc("bufferpool.evictions")
        cost = self._cost_of(stored)
        self.resident_bytes -= self._charged.get(stored.doc_id, 0) - cost
        self._charged[stored.doc_id] = cost
        self._lru.move_to_end(stored.doc_id, last=False)

    def _publish_gauge(self) -> None:
        if METRICS.enabled:
            METRICS.set_gauge("bufferpool.resident_bytes",
                              self.resident_bytes)

    # ------------------------------------------------------------------
    # Tier-2 spill files
    # ------------------------------------------------------------------
    # fsio is imported lazily: the storage layer must stay importable
    # without dragging in durability, and only tier-2 pools touch disk.

    def _spill_path(self, doc_id: int) -> str:
        import os
        return os.path.join(os.fspath(self.spill_dir),
                            f"doc-{doc_id}.cols")

    def _write_spill(self, doc_id: int, store: ColumnStore) -> None:
        from ..durability import fsio
        if not self._spill_ready:
            fsio.ensure_dir(self.spill_dir)
            self._spill_ready = True
        payload = json.dumps(encode_document(store, node_ids=True),
                             separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
        fsio.write_bytes(self._spill_path(doc_id), payload)
        self._spilled.add(doc_id)
        if METRICS.enabled:
            METRICS.inc("bufferpool.spills")

    def _remove_spill(self, doc_id: int) -> None:
        """Delete one spill file (lock held; no-op when never spilled)."""
        if doc_id not in self._spilled:
            return
        import os
        self._spilled.discard(doc_id)
        try:
            os.remove(self._spill_path(doc_id))
        except FileNotFoundError:
            pass
        if METRICS.enabled:
            METRICS.inc("bufferpool.spill_deletes")

    def _read_spill(self, doc_id: int) -> ColumnStore:
        from ..durability import fsio
        path = self._spill_path(doc_id)
        payload = json.loads(fsio.read_bytes(path).decode("utf-8"))
        if METRICS.enabled:
            METRICS.inc("bufferpool.loads")
        return decode_document(payload, f"spill file {path}")
