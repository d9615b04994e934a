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
  nothing at tier 1, so they are never its victims.  A plain
  ``Database`` has only this tier.
* **The log (a durable database):** a document whose segment sits in a
  written frame of ``checkpoint.log`` or ``wal.log`` points at it
  (:class:`~repro.storage.segment.SegmentRef`); eviction drops its
  columns too, and the next access reads them back with one ``pread``
  (:meth:`BufferPool.read_back`) under the node ids it kept.  A record
  pending in a group-commit batch has no pointer yet.  Passes over
  documents that need no tree (``StoredDocument.columns``: index
  builds, a checkpoint, a pool bootstrap) read cold columns without
  keeping or charging them, so they evict nothing.

A stored tree is numbered and so never changes: dropping it loses
nothing its columns do not hold.

Budget ``None`` disables the pool entirely: documents are never
registered and every access is a plain attribute read, preserving the
un-pooled engine's performance exactly.

Observability (``bufferpool.*`` in :mod:`repro.obs.metrics`):
``hits`` (accesses finding a live tree), ``misses`` (accesses that had
to materialize one), ``evictions``, ``loads`` (segments read back from
the log), and the ``resident_bytes`` gauge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.metrics import METRICS
from .columnar import ColumnStore

__all__ = ["BufferPool"]


class BufferPool:
    """LRU cache of materialized documents under one byte budget.

    Thread-safe and a leaf in the lock order: every method takes only
    the pool's own lock and calls nothing that acquires the database
    RWLock, so it may be entered from either side of that lock.
    """

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        #: doc_id -> StoredDocument, least-recently used first.
        self._lru: "OrderedDict[int, object]" = OrderedDict()
        self._charged: dict[int, int] = {}
        self.resident_bytes = 0

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
        """Forget a deleted document (its rows left the table); a
        resident one drops its log pointer, a cold one keeps it for the
        snapshots pinned before the delete, whose reads :meth:`load`
        serves without keeping or charging anything."""
        if not self.enabled:
            return
        with self._lock:
            stored.discarded = True
            self._lru.pop(stored.doc_id, None)
            self.resident_bytes -= self._charged.pop(stored.doc_id, 0)
            if stored._store is not None:
                stored._cold = None
            self._publish_gauge()

    def release(self, stored) -> None:
        """An index build is done with this document: when the pool is
        over budget, evict it rather than a working-set entry (a build
        loads the tree of each schema-validated document, whose typed
        keys live on the nodes, and touches it once)."""
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
        """Materialize a document's tree (reading its segment back from
        the log first when its columns were evicted), then evict colder
        documents to stay within budget.  A discarded document's tree
        (a read through a snapshot pinned before its delete) is built
        for the caller alone: neither it nor columns read back are
        kept or charged, so a deleted row never re-enters the pool."""
        with self._lock:
            document = stored._document
            if stored.discarded:
                if document is not None:
                    return document
                store = stored._store
                if store is None:
                    store = self.read_back(stored)
                return store.materialize(stored.schema)
            if document is not None:
                # Another thread materialized it while we waited.
                self._lru.move_to_end(stored.doc_id)
                if METRICS.enabled:
                    METRICS.inc("bufferpool.hits")
                return document
            if METRICS.enabled:
                METRICS.inc("bufferpool.misses")
            store = stored._store
            if store is None:
                store = stored._store = self.read_back(stored)
            document = store.materialize(stored.schema)
            stored._document = document
            self._charge(stored)
            self._evict_to_fit(keep=stored)
            self._publish_gauge()
            return document

    @staticmethod
    def read_back(stored) -> ColumnStore:
        """A cold document's columns, read back from the log; keeping
        and charging them is the caller's choice."""
        if METRICS.enabled:
            METRICS.inc("bufferpool.loads")
        return stored._cold.load()

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

    @staticmethod
    def _frees_bytes(stored) -> bool:
        """Whether evicting ``stored`` frees its tree or, once its
        segment sits in the log, its resident columns."""
        return (stored._document is not None
                or stored._cold is not None and stored._store is not None)

    def _evict(self, stored) -> None:
        """Drop the tree and, for a document the log holds, the columns;
        the charge shrinks by what left memory."""
        store = stored._store
        if stored._document is not None:
            store.detach()
            stored._document = None
        if stored._cold is not None:
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
