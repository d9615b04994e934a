"""Columnar accelerator-table storage for stored documents.

The paper's premise is that XPath performance lives or dies by the
physical layout of the accelerator table.  A :class:`ColumnStore` is
that table for one document: parallel ``array`` columns holding the
``(pre, post, level, parent, kind, tag-id, text-offset)`` encoding of
every node, built with a single walk at ingest time.  ``pre`` is the
implicit column — slot *i* of every array describes the node with
pre-order number *i* — so structural queries become range arithmetic:

* the descendants of slot ``s`` are exactly slots ``s+1 ..
  subtree_end[s]`` (contiguous, because pre-order lays a subtree out
  as one run);
* ``following`` is everything from ``subtree_end[s]`` to the end of
  the arrays; ``preceding`` is every earlier non-ancestor slot;
* axis steps therefore run as C-level range scans over ``array``
  slices instead of recursive Python object-graph walks.

Two further structures ride on the columns:

* **Path-partitioned clustering** (Arion et al., PAPERS.md): every
  slot carries a ``path_id`` into the document's distinct
  root-to-node paths, and ``partitions[path_id]`` lists the slots of
  that path in document order.  An XMLPATTERN is tested once per
  *distinct path* and then the matching partitions are scanned.  This
  path table is the document's only structural summary: the
  evaluator's ``//``-chain fast path and XML index builds read it
  through the materialized views (:meth:`ColumnStore.nodes_for`,
  :meth:`~ColumnStore.nodes_matching`); the checkpoint's ``$paths``
  reads its counts (:meth:`~ColumnStore.path_counts`), and its
  :meth:`~ColumnStore.path_class` signature is folded into the owning
  table's per-column path classes, from which the planner's
  cardinalities and static emptiness are answered
  (:meth:`PatternMatcher.nodes_in`) without visiting any document.
* **A text heap**: text, attribute, comment and PI content lives in
  one shared string addressed by ``(text_lo, text_hi)`` offsets, so
  an evicted document's values survive without any node objects.

Node objects are *views*: :meth:`ColumnStore.materialize` rebuilds the
XDM tree from the columns on demand (after buffer-pool eviction, or on
a replica bootstrapped from shipped columns), restoring the original
``node_id`` of every node from the ``node_ids`` column so node
identity and document-order keys are stable across eviction cycles.
"""

from __future__ import annotations

import base64
from array import array
from typing import Iterator

from ..core.patterns import PathComponent
from ..obs.metrics import METRICS
from ..xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                         ElementNode, Node, ProcessingInstructionNode,
                         TextNode, reserve_node_ids)
from ..xdm.qname import QName

__all__ = ["ColumnStore", "PatternMatcher", "get_store", "ingest_document",
           "store_for_node", "KIND_DOCUMENT", "KIND_ELEMENT",
           "KIND_ATTRIBUTE", "KIND_TEXT", "KIND_COMMENT", "KIND_PI"]

#: Node-kind codes stored in the ``kind`` column (one signed byte).
KIND_DOCUMENT = 0
KIND_ELEMENT = 1
KIND_ATTRIBUTE = 2
KIND_TEXT = 3
KIND_COMMENT = 4
KIND_PI = 5

_KIND_CODES = {
    "document": KIND_DOCUMENT,
    "element": KIND_ELEMENT,
    "attribute": KIND_ATTRIBUTE,
    "text": KIND_TEXT,
    "comment": KIND_COMMENT,
    "processing-instruction": KIND_PI,
}

#: Kinds whose content lives in the text heap.
_HEAP_KINDS = (KIND_ATTRIBUTE, KIND_TEXT, KIND_COMMENT, KIND_PI)

#: Rough per-node cost of a materialized XDM view (object headers,
#: slot storage, child-list entries) used for buffer-pool accounting.
MATERIALIZED_NODE_BYTES = 400

#: Interning table for distinct path tuples.  Documents of one workload
#: share a handful of path shapes; interning makes equal paths *the
#: same object*, so match memos can key on ``id(path)`` instead of
#: hashing nested dataclasses on every lookup.
_PATH_INTERN: dict[tuple, tuple] = {}


def _intern_path(path: tuple) -> tuple:
    return _PATH_INTERN.setdefault(path, path)


class PatternMatcher:
    """Memoized pattern-vs-path matching keyed on interned path identity.

    One NFA simulation per (matcher, distinct path shape); every later
    ask is an id-keyed dict hit.  The memo stores the path tuple
    alongside the verdict, keeping it alive so its ``id`` can never be
    recycled for a different path.
    """

    __slots__ = ("pattern", "_verdicts")

    def __init__(self, pattern):
        self.pattern = pattern
        self._verdicts: dict[int, tuple[tuple, bool]] = {}

    def matches(self, path: tuple) -> bool:
        entry = self._verdicts.get(id(path))
        if entry is None:
            verdict = self.pattern.matches_path(list(path))
            self._verdicts[id(path)] = (path, verdict)
            return verdict
        return entry[1]

    def nodes_in(self, path_class: frozenset) -> int:
        """Matching nodes in each document of ``path_class`` (a
        :meth:`ColumnStore.path_class` signature).  Every path of a
        signature has at least one node, so non-zero means "the
        document contains the path"."""
        return sum(count for path, count in path_class
                   if self.matches(path))


def _component_of(node: Node) -> PathComponent:
    name = node.name
    if name is None:
        return PathComponent(node.kind)
    return PathComponent(node.kind, name.uri, name.local)


def _b64(column: array) -> str:
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unb64(typecode: str, data: str) -> array:
    column = array(typecode)
    column.frombytes(base64.b64decode(data.encode("ascii")))
    return column


class ColumnStore:
    """The accelerator-table columns of one document.

    The arrays are parallel over pre-order slots.  ``nodes`` (slot →
    materialized node view) and ``stamp`` (the backing tree's
    structure stamp) are populated while a materialization is live and
    dropped by :meth:`detach` at eviction; the columns themselves are
    the durable, compact representation.
    """

    __slots__ = ("post", "level", "parent", "kind", "name_id", "ns_id",
                 "path_id", "text_lo", "text_hi", "subtree_end",
                 "node_ids", "text", "names", "nsscopes", "paths",
                 "partitions", "document_uri", "stamp", "nodes")

    def __init__(self):
        self.post = array("q")
        self.level = array("q")
        self.parent = array("q")
        self.kind = array("b")
        self.name_id = array("q")
        self.ns_id = array("q")
        self.path_id = array("q")
        self.text_lo = array("q")
        self.text_hi = array("q")
        self.subtree_end = array("q")
        self.node_ids = array("q")
        #: Shared content heap for text/attribute/comment/PI values.
        self.text = ""
        #: name_id -> QName (None slot for unnamed kinds is never used;
        #: unnamed nodes store -1).
        self.names: list[QName] = []
        #: ns_id -> in-scope namespace bindings of an element.
        self.nsscopes: list[dict[str, str]] = []
        #: path_id -> interned root-to-node path tuple.
        self.paths: list[tuple] = []
        #: path_id -> slots along that path, in document order — the
        #: path-partitioned clustering axis scans and index builds use.
        self.partitions: list[array] = []
        self.document_uri = ""
        self.stamp = None
        self.nodes: list[Node] | None = None

    def __len__(self) -> int:
        return len(self.kind)

    def __repr__(self) -> str:
        state = "attached" if self.nodes is not None else "detached"
        return (f"<ColumnStore {len(self)} slots, "
                f"{len(self.paths)} paths, {state}>")

    # ------------------------------------------------------------------
    # Construction from a live tree
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, document: DocumentNode) -> "ColumnStore":
        """Capture ``document``'s columns with one pre-order walk.

        Numbering (``(pre, post, level)``) is taken from the tree's
        existing interval encoding — ``document.structure()`` first
        ensures it is current — so slot *i* is exactly the node with
        pre number *i*.  The walk visits a node, then its attributes,
        then its children, mirroring ``xdm.nodes._number_tree``.
        The store is attached to the document (``document.column_store``),
        replacing any store captured before a mutation.
        """
        document.structure()
        store = cls()
        store.document_uri = document.document_uri
        name_ids: dict[tuple[str, str, str], int] = {}
        ns_ids: dict[tuple, int] = {}
        path_ids: dict[tuple, int] = {}
        heap: list[str] = []
        heap_length = 0
        nodes: list[Node] = []
        # (node, parent_slot, path-so-far)
        stack: list[tuple[Node, int, tuple]] = [(document, -1, ())]
        while stack:
            node, parent_slot, path = stack.pop()
            slot = len(nodes)
            nodes.append(node)
            kind_code = _KIND_CODES[node.kind]
            store.kind.append(kind_code)
            store.post.append(node._post)
            store.level.append(node._level)
            store.parent.append(parent_slot)
            store.node_ids.append(node.node_id)

            name = node.name
            if name is None:
                store.name_id.append(-1)
            else:
                key = (name.uri, name.local, name.prefix)
                name_id = name_ids.get(key)
                if name_id is None:
                    name_id = name_ids[key] = len(store.names)
                    store.names.append(name)
                store.name_id.append(name_id)

            if kind_code == KIND_ELEMENT:
                scope = node.in_scope_namespaces
                ns_key = tuple(sorted(scope.items()))
                ns_id = ns_ids.get(ns_key)
                if ns_id is None:
                    ns_id = ns_ids[ns_key] = len(store.nsscopes)
                    store.nsscopes.append(dict(scope))
                store.ns_id.append(ns_id)
            else:
                store.ns_id.append(-1)

            if kind_code in _HEAP_KINDS:
                content = (node.content if kind_code in (
                    KIND_TEXT, KIND_COMMENT, KIND_PI)
                    else node.string_value())
                store.text_lo.append(heap_length)
                heap.append(content)
                heap_length += len(content)
                store.text_hi.append(heap_length)
            else:
                store.text_lo.append(-1)
                store.text_hi.append(-1)

            if kind_code == KIND_DOCUMENT:
                store.path_id.append(-1)
            else:
                interned = _intern_path(path)
                path_id = path_ids.get(interned)
                if path_id is None:
                    path_id = path_ids[interned] = len(store.paths)
                    store.paths.append(interned)
                    store.partitions.append(array("q"))
                store.path_id.append(path_id)
                store.partitions[path_id].append(slot)

            for child in reversed(node.children):
                stack.append(
                    (child, slot, path + (_component_of(child),)))
            for attribute in reversed(node.attributes):
                stack.append(
                    (attribute, slot, path + (_component_of(attribute),)))
        store.text = "".join(heap)
        store._compute_subtree_ends()
        store.nodes = nodes
        store.stamp = document._stamp
        document.column_store = store
        return store

    def _compute_subtree_ends(self) -> None:
        """``subtree_end[s]`` = one past the last slot of ``s``'s
        subtree — the upper bound of every descendant range scan."""
        count = len(self.kind)
        sizes = [1] * count
        parent = self.parent
        for slot in range(count - 1, 0, -1):
            sizes[parent[slot]] += sizes[slot]
        self.subtree_end = array(
            "q", (slot + sizes[slot] for slot in range(count)))

    def is_attached(self) -> bool:
        """True while a live, unmutated materialization backs us."""
        return (self.nodes is not None and self.stamp is not None
                and self.stamp.valid)

    # ------------------------------------------------------------------
    # Path table (the document's structural summary)
    # ------------------------------------------------------------------
    # ``matcher`` is a PatternMatcher: callers that ask across many
    # documents share one, so each distinct path shape is tested once.

    def path_counts(self) -> dict[tuple, int]:
        """Interned root-to-node path -> number of nodes along it."""
        return {path: len(partition)
                for path, partition in zip(self.paths, self.partitions)}

    def path_class(self) -> frozenset:
        """The document's path signature: (interned path, node count)
        pairs.  Documents with equal signatures are one path class of
        their column's summary (``Table.path_classes``)."""
        return frozenset(zip(self.paths, map(len, self.partitions)))

    def nodes_for(self, matcher) -> list[Node]:
        """All nodes whose path matches, in document order.

        Slots are pre-order numbers, so merging several matching
        partitions into document order is a sort of ints."""
        assert self.nodes is not None
        matched = [partition for path, partition
                   in zip(self.paths, self.partitions)
                   if matcher.matches(path)]
        slots = (matched[0] if len(matched) == 1
                 else sorted(slot for partition in matched
                             for slot in partition))
        nodes = self.nodes
        return [nodes[slot] for slot in slots]

    def nodes_matching(self, matcher) -> Iterator[tuple[Node, tuple]]:
        """(node, path) pairs whose path matches — one pattern test per
        distinct path, then a clustered partition scan per hit."""
        assert self.nodes is not None
        nodes = self.nodes
        for path_id, path in enumerate(self.paths):
            if matcher.matches(path):
                for slot in self.partitions[path_id]:
                    yield nodes[slot], path

    # ------------------------------------------------------------------
    # Axis range scans
    # ------------------------------------------------------------------

    def descendants_or_self(self, node: Node) -> list[Node]:
        """``descendant-or-self`` as one contiguous range scan.

        Attribute slots (numbered between their element and its
        children) are filtered out, matching the axis definition."""
        assert self.nodes is not None
        slot = node._order[1]
        end = self.subtree_end[slot]
        nodes = self.nodes
        kind = self.kind
        return [nodes[s] for s in range(slot, end)
                if kind[s] != KIND_ATTRIBUTE]

    def following(self, node: Node) -> list[Node]:
        """Every node after ``node``'s subtree: slots from
        ``subtree_end`` to the end of the columns, minus attributes."""
        assert self.nodes is not None
        start = self.subtree_end[node._order[1]]
        nodes = self.nodes
        kind = self.kind
        return [nodes[s] for s in range(start, len(kind))
                if kind[s] != KIND_ATTRIBUTE]

    def preceding(self, node: Node) -> list[Node]:
        """Earlier non-ancestor slots, in document order.

        Ancestors have a larger ``post`` (they finish after us), so a
        single ``post`` comparison excludes them from the prefix scan.
        """
        assert self.nodes is not None
        slot = node._order[1]
        post_bound = self.post[slot]
        nodes = self.nodes
        kind = self.kind
        post = self.post
        return [nodes[s] for s in range(slot)
                if kind[s] != KIND_ATTRIBUTE and post[s] < post_bound]

    def text_of(self, slot: int) -> str:
        """String value of a slot straight from the columns.

        Heap-backed kinds read their offsets; elements and the
        document concatenate the text-node slots of their descendant
        range — no node views required."""
        lo = self.text_lo[slot]
        if lo >= 0:
            return self.text[lo:self.text_hi[slot]]
        parts: list[str] = []
        kind = self.kind
        text_lo = self.text_lo
        text_hi = self.text_hi
        for s in range(slot + 1, self.subtree_end[slot]):
            if kind[s] == KIND_TEXT:
                parts.append(self.text[text_lo[s]:text_hi[s]])
        return "".join(parts)

    # ------------------------------------------------------------------
    # Materialization (columns -> XDM views)
    # ------------------------------------------------------------------

    def materialize(self, schema=None) -> DocumentNode:
        """Rebuild the XDM tree from the columns.

        Node views are created in pre order and linked through the
        ``parent`` column; every view's ``node_id`` is restored from
        the ``node_ids`` column so identity and document-order keys
        survive eviction/rematerialization cycles.  ``schema`` (a
        registered validation schema) is re-applied afterwards so
        schema-typed values are identical to the original ingest.
        """
        count = len(self.kind)
        nodes: list[Node] = []
        text = self.text
        for slot in range(count):
            kind_code = self.kind[slot]
            if kind_code == KIND_DOCUMENT:
                node: Node = DocumentNode(document_uri=self.document_uri)
            elif kind_code == KIND_ELEMENT:
                node = ElementNode(
                    self.names[self.name_id[slot]],
                    in_scope_namespaces=self.nsscopes[self.ns_id[slot]])
            elif kind_code == KIND_ATTRIBUTE:
                node = AttributeNode(
                    self.names[self.name_id[slot]],
                    text[self.text_lo[slot]:self.text_hi[slot]])
            elif kind_code == KIND_TEXT:
                node = TextNode(text[self.text_lo[slot]:self.text_hi[slot]])
            elif kind_code == KIND_COMMENT:
                node = CommentNode(
                    text[self.text_lo[slot]:self.text_hi[slot]])
            else:
                node = ProcessingInstructionNode(
                    self.names[self.name_id[slot]].local,
                    text[self.text_lo[slot]:self.text_hi[slot]])
            node.node_id = self.node_ids[slot]
            parent_slot = self.parent[slot]
            if parent_slot >= 0:
                parent = nodes[parent_slot]
                node.parent = parent
                if kind_code == KIND_ATTRIBUTE:
                    parent._attributes.append(node)
                else:
                    parent._children.append(node)
            nodes.append(node)
        document = nodes[0]
        assert isinstance(document, DocumentNode)
        document.structure()
        self.nodes = nodes
        self.stamp = document._stamp
        document.column_store = self
        if schema is not None:
            from ..schema.validator import validate
            validate(document, schema)
        if METRICS.enabled:
            METRICS.inc("columnar.materializations")
        return document

    def detach(self) -> None:
        """Drop the materialized views (buffer-pool eviction): only the
        compact columns remain resident."""
        self.nodes = None
        self.stamp = None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Approximate resident size of the columns + text heap."""
        columns = (self.post, self.level, self.parent, self.kind,
                   self.name_id, self.ns_id, self.path_id, self.text_lo,
                   self.text_hi, self.subtree_end, self.node_ids)
        total = sum(column.itemsize * len(column) for column in columns)
        total += sum(partition.itemsize * len(partition)
                     for partition in self.partitions)
        total += len(self.text)
        return total

    def materialized_nbytes(self) -> int:
        """Estimated extra bytes a live materialization costs."""
        return len(self.kind) * MATERIALIZED_NODE_BYTES + len(self.text)

    # ------------------------------------------------------------------
    # Payload (spill files and replica shipping)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-safe encoding of the columns.

        ``subtree_end`` and the partitions are derived columns and are
        recomputed on load instead of shipped."""
        return {
            "uri": self.document_uri,
            "post": _b64(self.post),
            "level": _b64(self.level),
            "parent": _b64(self.parent),
            "kind": _b64(self.kind),
            "name_id": _b64(self.name_id),
            "ns_id": _b64(self.ns_id),
            "path_id": _b64(self.path_id),
            "text_lo": _b64(self.text_lo),
            "text_hi": _b64(self.text_hi),
            "node_ids": _b64(self.node_ids),
            "text": self.text,
            "names": [[name.uri, name.local, name.prefix]
                      for name in self.names],
            "nsscopes": [sorted(scope.items())
                         for scope in self.nsscopes],
            "paths": [[[component.kind, component.uri, component.local]
                       for component in path] for path in self.paths],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnStore":
        store = cls()
        store.document_uri = payload["uri"]
        store.post = _unb64("q", payload["post"])
        store.level = _unb64("q", payload["level"])
        store.parent = _unb64("q", payload["parent"])
        store.kind = _unb64("b", payload["kind"])
        store.name_id = _unb64("q", payload["name_id"])
        store.ns_id = _unb64("q", payload["ns_id"])
        store.path_id = _unb64("q", payload["path_id"])
        store.text_lo = _unb64("q", payload["text_lo"])
        store.text_hi = _unb64("q", payload["text_hi"])
        store.node_ids = _unb64("q", payload["node_ids"])
        store.text = payload["text"]
        store.names = [QName(uri, local, prefix)
                       for uri, local, prefix in payload["names"]]
        store.nsscopes = [dict((prefix, uri) for prefix, uri in scope)
                          for scope in payload["nsscopes"]]
        store.paths = [
            _intern_path(tuple(PathComponent(kind, uri, local)
                               for kind, uri, local in path))
            for path in payload["paths"]]
        store.partitions = [array("q") for _ in store.paths]
        for slot, path_id in enumerate(store.path_id):
            if path_id >= 0:
                store.partitions[path_id].append(slot)
        store._compute_subtree_ends()
        if len(store.node_ids):
            # Payloads may come from another process (replica shipping):
            # keep locally minted ids disjoint from the restored ones.
            reserve_node_ids(max(store.node_ids))
        return store


# ---------------------------------------------------------------------------
# Lookup / ingest helpers
# ---------------------------------------------------------------------------


def get_store(document) -> ColumnStore | None:
    """The document's attached column store, if it is still current.

    Returns None for non-document roots, never-ingested documents, and
    documents mutated since the store was built (the structure stamp
    no longer matches) — callers then fall back to object-graph paths.
    """
    if not isinstance(document, DocumentNode):
        return None
    return document.current_store()


def store_for_node(node: Node) -> ColumnStore | None:
    """The current column store covering ``node``, if any.

    The axis fast paths use this from arbitrary tree positions: the
    node must carry a valid structure stamp that is *the same object*
    as its root document's attached store — guaranteeing the node's
    cached ``pre`` number is a live slot index into the columns.
    """
    stamp = node._stamp
    if stamp is None or not stamp.valid:
        return None
    root = node
    while root.parent is not None:
        root = root.parent
    if not isinstance(root, DocumentNode):
        return None
    store = root.column_store
    if (store is not None and store.nodes is not None
            and store.stamp is stamp):
        return store
    return None


def ingest_document(document: DocumentNode) -> ColumnStore:
    """The current column store of ``document``, captured if needed.

    A document arriving with a current store — e.g. materialized from
    replica-shipped columns — is reused as-is; otherwise (never
    captured, or mutated since capture) one walk captures the columns
    and path partitions.  This is the only staleness rule the path
    table has.
    """
    store = get_store(document)
    if store is not None:
        return store
    return ColumnStore.from_document(document)
