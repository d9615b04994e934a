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
* each entry also records the node's concrete root-to-node path so a
  scan can apply the query's *more restrictive* path as a residual
  filter (§2.2: the index on ``//lineitem/@price`` answering a
  ``//order/lineitem/@price`` predicate).

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

import datetime as _dt
from dataclasses import dataclass
from typing import Iterator

from ..core.patterns import PathComponent, PathPattern, parse_xmlpattern
from ..errors import CastError, SchemaValidationError
from ..obs.metrics import METRICS
from ..xdm.atomic import (AtomicValue, T_DATE, T_DATETIME, T_DOUBLE,
                          T_STRING, cast)
from ..xdm.nodes import DocumentNode, Node
from .btree import BPlusTree
from .columnar import PatternMatcher, ingest_document

#: SQL index type keyword -> xdm atomic type used for key casting.
INDEX_TYPE_TO_XDM = {
    "VARCHAR": T_STRING,
    "DOUBLE": T_DOUBLE,
    "DATE": T_DATE,
    "TIMESTAMP": T_DATETIME,
}


@dataclass(frozen=True)
class IndexEntry:
    """One posting: which document, which node, along which path."""

    doc_id: int
    node_id: int
    path: tuple[PathComponent, ...]


class XmlIndex:
    """A path-specific typed value index over one XML column."""

    def __init__(self, name: str, table: str, column: str,
                 pattern_text: str, index_type: str, order: int = 64):
        index_type = index_type.upper()
        if index_type not in INDEX_TYPE_TO_XDM:
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
        #: Long-lived matcher: one NFA run per distinct path shape over
        #: the whole life of the index, id-keyed hits afterwards.
        self._pattern_matcher = PatternMatcher(self.pattern)
        self.index_type = index_type
        self.xdm_type = INDEX_TYPE_TO_XDM[index_type]
        self.tree = BPlusTree(order=order)
        #: Entries skipped by tolerant casting (observability for tests).
        self.skipped_nodes = 0
        #: Live doc_id -> number of entries, for cost estimation; the
        #: tree also holds the entries of forgotten documents.
        self._doc_entry_counts: dict[int, int] = {}
        #: The sum of ``_doc_entry_counts``: ``len(index)``.
        self._live_entries = 0

    def __repr__(self) -> str:
        return (f"<XmlIndex {self.name} ON {self.table}({self.column}) "
                f"USING XMLPATTERN '{self.pattern}' AS {self.index_type}>")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def index_document(self, doc_id: int, document: DocumentNode) -> None:
        counts = self._doc_entry_counts
        for node, components in self._matching_nodes(document):
            key = self._key_for(node)
            if key is None:
                self.skipped_nodes += 1
                continue
            self.tree.insert(key, IndexEntry(doc_id, node.node_id,
                                             tuple(components)))
            counts[doc_id] = counts.get(doc_id, 0) + 1
            self._live_entries += 1

    def forget(self, doc_id: int) -> None:
        """Stop counting the document's entries as live.  No document is
        read and the tree is not touched: the entries stay until
        :meth:`compacted` leaves them out."""
        self._live_entries -= self._doc_entry_counts.pop(doc_id, 0)

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
        return fresh

    def _matching_nodes(self, document: DocumentNode):
        """(node, path) pairs of the document matching this index's
        pattern, as a clustered scan over the document's path
        partitions: the pattern is tested once per *distinct* path,
        then only the matching partitions are scanned."""
        return ingest_document(document).nodes_matching(
            self._pattern_matcher)

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
        if not values:
            return None
        try:
            key = atomic_to_key(cast(values[0], self.xdm_type))
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
        for _key, entry in self.tree.scan(low, high, low_inclusive,
                                          high_inclusive):
            if path_filter is not None and \
                    not path_filter.matches_path(list(entry.path)):
                continue
            yield entry

    def matching_documents(self, low=None, high=None,
                           low_inclusive: bool = True,
                           high_inclusive: bool = True,
                           path_filter: PathPattern | None = None,
                           stats=None) -> set[int]:
        """Document ids with at least one entry in the range — the
        I(P, D) pre-filter of Definition 1."""
        docs: set[int] = set()
        scanned = 0
        for entry in self.scan(low, high, low_inclusive, high_inclusive,
                               path_filter):
            scanned += 1
            docs.add(entry.doc_id)
        if stats is not None:
            stats.index_entries_scanned += scanned
            stats.record_index_use(self.name)
        if METRICS.enabled:
            METRICS.inc("index.probes")
            METRICS.inc("index.entries_scanned", scanned)
        return docs

    def key_for_value(self, value: AtomicValue):
        """Cast a query-side comparison value into this index's key
        space (raises CastError if incompatible)."""
        return atomic_to_key(cast(value, self.xdm_type))

    def __len__(self) -> int:
        """Live entries (the tree may also hold forgotten ones)."""
        return self._live_entries


def atomic_to_key(value: AtomicValue):
    """Map an atomic value onto a B+Tree key.

    Timestamps are normalized to naive UTC so that aware and naive
    values never raise on comparison inside the tree.
    """
    if value.type_name == T_DATETIME:
        stamp: _dt.datetime = value.value
        if stamp.tzinfo is not None:
            stamp = stamp.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        return stamp
    return value.value
