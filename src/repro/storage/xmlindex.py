"""Typed, tolerant XML value indexes (paper §2.1).

An XML index is declared with ``CREATE INDEX name ON table(xml-column)
USING XMLPATTERN 'pattern' AS type`` where type is one of ``VARCHAR``,
``DOUBLE``, ``DATE``, ``TIMESTAMP``.  Exactly as the paper describes:

* an entry is created for each node matching the pattern **and**
  convertible to the index type; a failed cast silently skips the node
  ("tolerant" behaviour — the U.S./Canadian postal-code scenario);
* a VARCHAR index therefore contains *all* matching nodes, since any
  node value casts to a string — which is why varchar indexes can
  answer purely structural predicates with a full-range scan;
* list-typed values are rejected at insert time (footnote 5: "our
  index implementation prohibits the list types from occurring in the
  indexed documents");
* each entry also records the node's interned root-to-node path (a
  :class:`~repro.core.patterns.PathNode`) so a scan can apply the
  query's *more restrictive* path as a residual filter (§2.2: the
  index on ``//lineitem/@price`` answering a
  ``//order/lineitem/@price`` predicate);
* per document, the index keeps the *facts* that make evaluating a
  predicate on it differ from reading its entries (:data:`SKIPPED`,
  :data:`SHARED_PARENT`, :data:`TYPED`): a probe whose comparison could
  raise on such a document admits it, and an exact verdict decides
  only documents without them.

Entries are never deleted.  Deleting a row calls :meth:`XmlIndex.forget`,
which only stops counting the document as live; its entries stay in the
tree, and every index verdict reaches rows through the row locator of a
pinned row list (:class:`~repro.storage.table.RowLocator`), which drops
ids it does not hold.  Definition 1 allows exactly this: the index may
name extra documents as long as the final answer is exact.  Once dead
entries reach live ones the database swaps in :meth:`compacted`, a new
index object, copy-on-write.

Concurrency contract: an index object is mutated only on the write side
of the database's reader-writer lock and its tree only ever grows, so a
scan under the read side sees a consistent tree.  A
:class:`~repro.storage.snapshot.Snapshot` pins the index objects with
the catalog: ids inserted after the pin are ids its rows lack, and a
compaction replaces the object rather than shrinking it, so the pinned
tree still holds every entry of the pinned rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.patterns import (PathNode, PathPattern, matcher_for,
                             parse_xmlpattern)
from ..errors import CastError, SchemaValidationError
from ..obs.metrics import METRICS
from ..xdm.atomic import INDEX_KEY_TYPES, T_STRING, T_UNTYPED, AtomicValue
from ..xdm.compare import promote
from ..xdm.nodes import DocumentNode, Node
from .btree import BPlusTree
from .columnar import KIND_COMMENT, KIND_PI

#: Slot kinds whose typed value is an ``xs:string`` (comments and PIs);
#: every other unannotated kind is ``xs:untypedAtomic``.
_STRING_KINDS = (KIND_COMMENT, KIND_PI)

#: Document facts (bit flags, :meth:`XmlIndex.facts`).  A value on the
#: pattern that the index skipped (no key of its type, or NaN): a value
#: comparison or a cast of it raises.
SKIPPED = 1
#: Two matching nodes on one path share a parent: a value comparison
#: over that one step atomizes two items and raises.
SHARED_PARENT = 2
#: Keyed through the annotated-tree route (a schema-validated document,
#: or columns captured from an annotated tree): its typed values are
#: not the text the index keyed.
TYPED = 4
#: The document was forgotten (its facts stay for pinned snapshots
#: until :meth:`XmlIndex.compacted` drops them).
_FORGOTTEN = 8

@dataclass(frozen=True)
class IndexEntry:
    """One posting: which document, which node, along which path."""

    doc_id: int
    node_id: int
    path: PathNode


class XmlIndex:
    """A path-specific typed value index over one XML column."""

    def __init__(self, name: str, table: str, column: str,
                 pattern_text: str, index_type: str, order: int = 64):
        index_type = index_type.upper()
        if index_type not in INDEX_KEY_TYPES:
            raise SchemaValidationError(
                f"unsupported XML index type {index_type!r}")
        self.name = name
        self.table = table
        self.column = column
        #: The original XMLPATTERN text — the checkpoint records it so
        #: recovery can replay the defining DDL instead of serializing
        #: B+Tree pages.
        self.pattern_text = pattern_text
        self.pattern: PathPattern = parse_xmlpattern(pattern_text)
        #: Long-lived matcher: one NFA step per distinct path and one
        #: verdict per document shape, dict hits afterwards.
        self._pattern_matcher = matcher_for(self.pattern)
        self.index_type = index_type
        #: The atomic type of the keys (xs:double for DOUBLE).
        self.key_type = INDEX_KEY_TYPES[index_type]
        self.tree = BPlusTree(order=order)
        #: Entries skipped by tolerant casting (observability for tests).
        self.skipped_nodes = 0
        #: Live doc_id -> number of entries, for cost estimation; the
        #: tree also holds the entries of forgotten documents.
        self._doc_entry_counts: dict[int, int] = {}
        #: The sum of ``_doc_entry_counts``: ``len(index)``.
        self._live_entries = 0
        #: doc_id -> its facts, for documents that have any.
        self._facts: dict[int, int] = {}
        #: The documents among them with SKIPPED or SHARED_PARENT, the
        #: facts a probe admits (a typed collection has TYPED on all).
        self._raising: set[int] = set()

    def __repr__(self) -> str:
        return (f"<XmlIndex {self.name} ON {self.table}({self.column}) "
                f"USING XMLPATTERN '{self.pattern}' AS {self.index_type}>")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def index_document(self, doc_id: int, document) -> None:
        """Add the document's matching nodes: a clustered scan over the
        path partitions its shape's verdict names.

        ``document`` is a :class:`~repro.storage.columnar.ColumnStore`,
        whose slots are keyed from their text exactly as
        ``typed_value()`` keys an unannotated node (``xs:untypedAtomic``
        for elements, attributes and text, ``xs:string`` for comments
        and PIs), or a tree, whose nodes key by their typed values — the
        route of schema-annotated documents.  The document's facts are
        recorded on the way."""
        if isinstance(document, DocumentNode):
            store = document.column_store
            nodes = store.nodes
            keyed = ((self._key_for(nodes[slot]), slot, path)
                     for slot, path in store.slots_matching(
                         self._pattern_matcher))
            facts = TYPED
        else:
            store = document
            keyed = ((self._key_for_slot(store, slot), slot, path)
                     for slot, path in store.slots_matching(
                         self._pattern_matcher))
            facts = 0 if store.untyped else TYPED
        node_ids, parents = store.node_ids, store.parent
        counts = self._doc_entry_counts
        # Slots of one path come in document order, so siblings on it
        # are neighbours.
        last_path = last_parent = None
        for key, slot, path in keyed:
            parent = parents[slot]
            if path is last_path and parent == last_parent:
                facts |= SHARED_PARENT
            last_path, last_parent = path, parent
            if key is None:
                self.skipped_nodes += 1
                facts |= SKIPPED
                continue
            self.tree.insert(key, IndexEntry(doc_id, node_ids[slot], path))
            counts[doc_id] = counts.get(doc_id, 0) + 1
            self._live_entries += 1
        if facts:
            self._facts[doc_id] = facts
            if facts & (SKIPPED | SHARED_PARENT):
                self._raising.add(doc_id)

    def forget(self, doc_id: int) -> None:
        """Stop counting the document's entries as live.  No document is
        read and the tree is not touched: the entries stay until
        :meth:`compacted` leaves them out; so do its facts."""
        self._live_entries -= self._doc_entry_counts.pop(doc_id, 0)
        if doc_id in self._facts:
            self._facts[doc_id] |= _FORGOTTEN

    #: The name ``benchmarks/ledger/tracing.py`` wraps for its
    #: ``storage.index_remove`` span.
    remove_document = forget

    def compacted(self) -> "XmlIndex":
        """A new index holding only the live entries, in key order."""
        fresh = XmlIndex(self.name, self.table, self.column,
                         self.pattern_text, self.index_type,
                         order=self.tree.order)
        live = fresh._doc_entry_counts = dict(self._doc_entry_counts)
        fresh.tree = self.tree.filtered(lambda entry: entry.doc_id in live)
        fresh._live_entries = self._live_entries
        fresh.skipped_nodes = self.skipped_nodes
        fresh._facts = {doc_id: facts for doc_id, facts
                        in self._facts.items() if not facts & _FORGOTTEN}
        fresh._raising = self._raising & fresh._facts.keys()
        return fresh

    def facts(self, doc_id: int) -> int | None:
        """The facts of a live document with entries (0: none), or None
        for a document without entries or no longer live."""
        if doc_id not in self._doc_entry_counts:
            return None
        return self._facts.get(doc_id, 0)

    def clean(self, docs, facts: int) -> set[int]:
        """The live documents among ``docs`` with none of ``facts``."""
        live, held = self._doc_entry_counts, self._facts
        return {doc_id for doc_id in docs
                if doc_id in live and not held.get(doc_id, 0) & facts}

    def documents_with(self, facts: int) -> set[int]:
        """Documents (forgotten ones included: the row locator of a
        pinned row list drops what it lacks) with any of ``facts``."""
        held = self._facts
        return {doc_id for doc_id in self._raising
                if held[doc_id] & facts}

    def keys(self):
        """Distinct keys in order, skipping those whose entries all
        belong to forgotten documents: the keys a freshly built index
        over the same rows would hold."""
        live = self._doc_entry_counts
        return self.tree.keys(lambda entry: entry.doc_id in live)

    def distinct_doc_count(self) -> int:
        """Number of documents with at least one entry in this index."""
        return len(self._doc_entry_counts)

    def _key_for(self, node: Node):
        """Cast a node's value to the index key space; None = skip."""
        values = node.typed_value()
        if len(values) > 1:
            # List types are prohibited in indexed documents (§3.10 fn 5).
            raise SchemaValidationError(
                f"list-typed node {node!r} cannot be indexed by "
                f"{self.name}")
        return self._key_of(values[0]) if values else None

    def _key_for_slot(self, store, slot: int):
        """:meth:`_key_for` of an unannotated node, read from columns."""
        type_name = (T_STRING if store.kind[slot] in _STRING_KINDS
                     else T_UNTYPED)
        return self._key_of(AtomicValue(type_name, store.text_of(slot)))

    def _key_of(self, value: AtomicValue):
        try:
            key = self.key_for_value(value)
        except CastError:
            return None
        # NaN compares false with everything: no eligible predicate
        # selects it, and as a B+Tree key it breaks the total order every
        # range scan relies on (documents beside it went missing).
        return None if key != key else key

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def scan(self, low=None, high=None, low_inclusive: bool = True,
             high_inclusive: bool = True,
             path_filter: PathPattern | None = None
             ) -> Iterator[IndexEntry]:
        """Range scan; optionally post-filter entries by a (more
        restrictive) query path pattern."""
        matches = (None if path_filter is None
                   else matcher_for(path_filter).matches)
        for _key, entry in self.tree.scan(low, high, low_inclusive,
                                          high_inclusive):
            if matches is None or matches(entry.path):
                yield entry

    def matching_documents(self, low=None, high=None,
                           low_inclusive: bool = True,
                           high_inclusive: bool = True,
                           path_filter: PathPattern | None = None,
                           stats=None,
                           nodes: dict[int, list[int]] | None = None,
                           admit: int = 0) -> set[int]:
        """Document ids with at least one entry in the range — the
        I(P, D) pre-filter of Definition 1 — plus those with any of the
        facts ``admit``, on which the predicate may raise rather than
        be false.  ``nodes``, when given, also receives each document's
        entry node ids, ascending: where the probe's verdict is exact,
        the nodes its comparison selects."""
        docs: set[int] = self.documents_with(admit) if admit else set()
        scanned = 0
        for entry in self.scan(low, high, low_inclusive, high_inclusive,
                               path_filter):
            scanned += 1
            docs.add(entry.doc_id)
            if nodes is not None:
                nodes.setdefault(entry.doc_id, []).append(entry.node_id)
        if nodes:
            for held in nodes.values():
                held.sort()
        if stats is not None:
            stats.index_entries_scanned += scanned
            stats.record_index_use(self.name)
        if METRICS.enabled:
            METRICS.inc("index.probes")
            METRICS.inc("index.entries_scanned", scanned)
        return docs

    def key_for_value(self, value: AtomicValue):
        """A value's key: the value it takes in this index's key type,
        by the promotion every comparison uses
        (:func:`repro.xdm.compare.promote`, which also normalizes
        timestamps to naive UTC); raises CastError if it has none."""
        return promote(value, self.key_type)

    def __len__(self) -> int:
        """Live entries (the tree may also hold forgotten ones)."""
        return self._live_entries
