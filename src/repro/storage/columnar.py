"""Columnar accelerator-table storage for stored documents.

The paper's premise is that XPath performance lives or dies by the
physical layout of the accelerator table.  A :class:`ColumnStore` is
that table for one document: parallel ``array`` columns holding the
``(pre, post, level, parent, kind, tag-id, text-offset)`` encoding of
every node, filled by the XML parser in the one pass that reads the
document's text (:class:`ColumnBuilder`).  ``pre`` is the
implicit column — slot *i* of every array describes the node with
pre-order number *i* — so structural queries become range arithmetic:

* the descendants of slot ``s`` are exactly slots ``s+1 ..
  subtree_end[s]`` (contiguous, because pre-order lays a subtree out
  as one run);
* ``following`` is everything from ``subtree_end[s]`` to the end of
  the arrays; ``preceding`` is every earlier non-ancestor slot;
* axis steps therefore run as C-level range scans over ``array``
  slices instead of recursive Python object-graph walks.

Three further structures ride on the columns:

* **Path-partitioned clustering** (Arion et al., PAPERS.md): every
  slot carries a ``path_id`` into the document's distinct
  root-to-node paths, and ``partitions[path_id]`` lists the slots of
  that path in document order.  Paths are interned
  :class:`~repro.core.patterns.PathNode` trie nodes shared by all
  documents, and the path list itself is an interned
  :class:`~repro.core.patterns.PathShape` shared by every document
  with the same one: an XMLPATTERN's matching path ids are computed
  once per *shape* (:meth:`PatternMatcher.path_ids`), so a lookup in
  any further document of that shape is one dict hit before its
  matching partitions are read.  This
  path table is the document's only structural summary: the
  evaluator's ``//``-chain fast path reads it through the materialized
  view (:meth:`ColumnStore.nodes_for`), XML index builds read slots
  (:meth:`~ColumnStore.slots_matching`), and its
  :meth:`~ColumnStore.path_class` signature is folded into the owning
  table's per-column path classes, from which the planner's
  cardinalities and static emptiness are answered
  (:meth:`PatternMatcher.nodes_in`) without visiting any document.
* **A text heap**: text, attribute, comment and PI content lives in
  one shared string addressed by ``(text_lo, text_hi)`` offsets, so
  an evicted document's values survive without any node objects.
* **A canonical text** (derived, filled lazily by
  :func:`repro.xmlio.serializer.serialize`): the document's
  serialization from one whole-document walk, and ``spans``, each
  element slot's ``(start, end)`` in it.  Only an element whose
  inherited namespace scope in that walk is empty gets a span — its
  standalone serialization is then exactly the slice — so a stored
  answer serializes as ``canonical[start:end]``.  A store's tree is
  numbered, so it never changes and the cache is never invalidated:
  it is the right slice for every materialization, survives
  :meth:`ColumnStore.detach` and is never written to a segment.
* **A value cache** (derived, filled lazily by
  :meth:`ColumnStore.nodes_where`): for a path whose values a
  predicate compared as ``xs:double``, the partition's values in slot
  order packed as doubles in one ``bytes`` (one allocation per path,
  read through a ``memoryview``), with the positions of values that do
  not cast kept apart (NaN cannot mark them: ``NaN ne x`` is true).
  Like the canonical text it describes a tree that never changes, so an
  entry is immutable, built in full before it is published, survives
  :meth:`ColumnStore.detach` and is never written to a segment.  It
  serves only an *untyped* store (:attr:`ColumnStore.untyped`): once
  schema validation or a captured annotated tree types a document,
  its nodes' values are no longer the raw text.

The columns are a stored document's resting state: an insert of XML
text, a checkpoint load, a WAL replay and a pool worker's bootstrap all end
with columns and no tree (:mod:`repro.storage.segment` is their one
on-disk form).  Node objects are *views*: :meth:`ColumnStore.materialize`
builds the XDM tree from the columns when a read first asks for it
(``StoredDocument.document``) and again after buffer-pool eviction,
taking every node's ``node_id`` from the ``node_ids`` column so node
identity and document-order keys are stable across eviction cycles.
A document inserted as a tree is captured by
:meth:`ColumnStore.from_document`, which drives the same builder.
Either way the tree ends up numbered and so immutable
(:mod:`repro.xdm.nodes`): a store and its trees can never disagree.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, repeat
from math import nan
from operator import and_
from typing import Iterator, Sequence

from ..core.patterns import ROOT_PATH, PathNode, PathShape, intern_shape
from ..obs.metrics import METRICS
from ..errors import CastError, XMLParseError
from ..xdm.atomic import T_UNTYPED, parse_double
from ..xdm.nodes import (UNTYPED_ELEMENT, AttributeNode, CommentNode,
                         DocumentNode, ElementNode, Node,
                         ProcessingInstructionNode, TextNode,
                         allocate_node_ids, number_from_columns)
from ..xdm.qname import QName
from ..xmlio.parser import MAX_DEPTH

__all__ = ["ColumnBuilder", "ColumnStore", "get_store", "ingest_document",
           "store_for_node", "KIND_DOCUMENT",
           "KIND_ELEMENT", "KIND_ATTRIBUTE", "KIND_TEXT", "KIND_COMMENT",
           "KIND_PI"]

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

_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

#: kind code -> the annotation of a node of that kind that atomizes to
#: its text as one xs:untypedAtomic
_UNANNOTATED = {KIND_ELEMENT: UNTYPED_ELEMENT, KIND_ATTRIBUTE: T_UNTYPED}

#: Rough per-node cost of a materialized XDM view (object headers,
#: slot storage, child-list entries) used for buffer-pool accounting.
MATERIALIZED_NODE_BYTES = 400


class ColumnStore:
    """The accelerator-table columns of one document.

    The arrays are parallel over pre-order slots.  ``nodes`` (slot →
    materialized node view) is populated while a materialization is
    live and dropped by :meth:`detach` at eviction; the columns
    themselves are the durable, compact representation.
    """

    __slots__ = ("post", "level", "parent", "kind", "name_id", "ns_id",
                 "path_id", "text_lo", "text_hi", "subtree_end",
                 "node_ids", "text", "names", "nsscopes", "shape",
                 "partitions", "document_uri", "nodes",
                 "canonical", "spans", "untyped", "value_cache")

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
        #: The interned path table (``shape.paths``: path_id ->
        #: root-to-node path, parents first), set once it is complete.
        self.shape: PathShape | None = None
        #: path_id -> slots along that path, in document order — the
        #: path-partitioned clustering axis scans and index builds use.
        self.partitions: list[array] = []
        self.document_uri = ""
        self.nodes: list[Node] | None = None
        #: The document's serialization, once one was asked for.
        self.canonical: str | None = None
        #: ``spans[2*s]``, ``spans[2*s + 1]``: slot ``s``'s start and
        #: end in ``canonical`` (-1 without a span); None until an
        #: element of the document is serialized.
        self.spans: array | None = None
        #: No node carries a type annotation, so every element and
        #: attribute atomizes to its text as one xs:untypedAtomic.
        #: Cleared for good once one may (schema validation, a captured
        #: annotated tree).
        self.untyped = True
        #: The value cache, flat: ``path_id, packed doubles, uncastable
        #: positions`` for each cached path.  A document's predicates
        #: touch few paths; one tuple costs less than a dict per store,
        #: and a ``bytes`` less than an ``array`` (one allocation).
        self.value_cache: tuple = ()

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def paths(self) -> tuple[PathNode, ...]:
        """path_id -> interned root-to-node path."""
        return self.shape.paths

    def __repr__(self) -> str:
        state = "attached" if self.nodes is not None else "detached"
        return (f"<ColumnStore {len(self)} slots, "
                f"{len(self.partitions)} paths, {state}>")

    # ------------------------------------------------------------------
    # Construction from a live tree
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, document: DocumentNode) -> "ColumnStore":
        """Capture the columns of a document inserted as a tree through
        :class:`ColumnBuilder`.

        One walk, attributes before children as ``xdm.nodes`` numbers
        them, keeps each node's ``node_id``; the tree is then numbered
        from the columns, so slot *i* is the node with pre number *i*,
        and can no longer change.  A capture that fails (a tree nested
        deeper than ``MAX_DEPTH``) leaves the tree unnumbered.  A tree
        with an annotated element or attribute (validated, or copied
        with its types) gives a store that is not :attr:`untyped`.
        """
        builder = ColumnBuilder(document.document_uri)
        nodes: list[Node] = [document]
        node_ids = array("q", [document.node_id])
        # (node, parent slot); a None node closes the parent slot.
        stack: list[tuple[Node | None, int]] = [
            (child, 0) for child in reversed(document.children)]
        untyped = True
        while stack:
            node, parent = stack.pop()
            if node is None:
                builder.close(parent)
                continue
            kind = _KIND_CODES[node.kind]
            unannotated = _UNANNOTATED.get(kind)
            if unannotated is not None and (
                    node.type_annotation != unannotated
                    or node._typed_values is not None):
                untyped = False
            name = node.name
            name_id = (-1 if name is None else
                       builder.name_id(name.uri, name.local, name.prefix))
            if kind == KIND_ELEMENT:
                slot = builder.open(
                    kind, parent, name_id,
                    builder.scope_id(node.in_scope_namespaces))
                stack.append((None, slot))
                stack.extend((child, slot)
                             for child in reversed(node.children))
                stack.extend((attribute, slot)
                             for attribute in reversed(node.attributes))
            else:
                builder.leaf(kind, parent, name_id, node.string_value())
            nodes.append(node)
            node_ids.append(node.node_id)
        store = builder.finish(node_ids)
        store.untyped = untyped
        number_from_columns(nodes, store.post, store.level)
        store.nodes = nodes
        document.column_store = store
        return store

    # ------------------------------------------------------------------
    # Path table (the document's structural summary)
    # ------------------------------------------------------------------
    # ``matcher`` is a PatternMatcher (``matcher_for``): it keeps the
    # matching path ids of each shape, so a document whose shape was
    # asked about before costs one dict hit.

    def path_counts(self) -> dict[PathNode, int]:
        """Interned root-to-node path -> number of nodes along it."""
        return {path: len(partition)
                for path, partition in zip(self.paths, self.partitions)}

    def path_class(self) -> frozenset:
        """The document's path signature: (interned path, node count)
        pairs.  Documents with equal signatures are one path class of
        their column's summary (``Table.path_classes``)."""
        return frozenset(zip(self.paths, map(len, self.partitions)))

    def nodes_for(self, matcher, slot: int = 0) -> list[Node]:
        """The nodes of ``slot``'s subtree (the whole document's by
        default) whose path below ``slot`` matches, in document order.

        The pattern is anchored at ``slot``'s path
        (:meth:`~repro.core.patterns.PatternMatcher.anchored`; the
        document's is the root), and a matching partition's slots in
        ``slot``'s subtree are one run of it, ``slot + 1 ..
        subtree_end[slot]``.  Slots are pre-order numbers, so merging
        several matching partitions into document order is a sort of
        ints."""
        assert self.nodes is not None
        partitions = self.partitions
        ids = (matcher.anchored(self.shape.paths[self.path_id[slot]])
               if slot else matcher).path_ids(self.shape)
        if slot:
            high = self.subtree_end[slot]
            runs = [partition[bisect_left(partition, slot):
                              bisect_left(partition, high)]
                    for partition in map(partitions.__getitem__, ids)]
        elif len(ids) == 1:
            return list(map(self.nodes.__getitem__, partitions[ids[0]]))
        else:
            runs = list(map(partitions.__getitem__, ids))
        slots = runs[0] if len(runs) == 1 else sorted(chain(*runs))
        return list(map(self.nodes.__getitem__, slots))

    def nodes_where(self, matcher, up: int, numeric: bool, tests,
                    strict: bool, guard=None,
                    slots: Sequence[int] = (0,)) -> list[list[Node]] | None:
        """A value predicate ``[rel op operand]``, or a between pair of
        them over one singleton ``rel``, decided on the columns, for
        each context of ``slots``: the nodes ``up`` parent links above
        the slots of its subtree whose path below it matches
        (``matcher`` is the predicate's path and ``rel``, ``up`` the
        length of ``rel``) and whose value ``v`` passes
        ``compare(v, fixed)`` for each ``(compare, fixed)`` of
        ``tests``, without duplicates, in document order.  ``slots`` is
        the document (``(0,)``), or elements of one path in document
        order (so none holds another): one pass over each matching
        partition's run from the first subtree to the end of the last
        decides them all, every bound tested in it.

        Only for an :attr:`untyped` store, whose matching slots atomize
        to their text.  ``numeric`` compares the values as xs:double
        (from the value cache; one that does not cast is a non-match)
        and otherwise as raw strings.  ``strict`` is a value
        comparison: None when a result candidate has two values or a
        value does not cast, where the generic route raises.  ``guard``
        (a :class:`~repro.xquery.guard.QueryGuard` or None) is ticked
        once per partition run, by its length."""
        assert self.nodes is not None
        low = slots[0]
        high = self.subtree_end[slots[-1]]
        partitions = self.partitions
        runs = []   # a value comparison's, to find two-valued candidates
        passing: list[int] = []
        ids = (matcher.anchored(self.shape.paths[self.path_id[low]])
               if low else matcher).path_ids(self.shape)
        for path_id in ids:
            run = partitions[path_id]
            first = 0
            if low:
                first = bisect_left(run, low)
                run = run[first:bisect_left(run, high, first)]
            if strict:
                runs.append(run)
            if guard is not None:
                guard.tick(len(run) + 1)
            if not run:
                continue
            if not numeric:
                passing.extend(compress(run, _verdicts(self._strings(run),
                                                       tests)))
                continue
            doubles, uncastable = self._doubles(path_id)
            if low and len(run) < len(doubles):
                doubles = doubles[first:first + len(run)]
                if uncastable:
                    uncastable = [position - first
                                  for position in uncastable
                                  if first <= position < first + len(run)]
            if not uncastable:
                passing.extend(compress(run, _verdicts(doubles, tests)))
                continue
            if strict:
                return None
            verdicts = list(_verdicts(doubles, tests))
            for position in uncastable:
                verdicts[position] = False
            passing.extend(compress(run, verdicts))
        if up:
            if strict:
                candidates = self._ancestors(list(chain(*runs)), up)
                if len(set(candidates)) < len(candidates):
                    return None
            passing = self._ancestors(passing, up)
            if len(passing) > 1:
                passing = sorted(set(passing))
        elif len(ids) > 1:
            passing.sort()
        nodes = self.nodes
        if len(slots) == 1:
            return [list(map(nodes.__getitem__, passing))]
        # Split by subtree; a passing slot between two subtrees belongs
        # to an element of the same path that is no context.
        found = []
        end, start = self.subtree_end, 0
        for slot in slots:
            start = bisect_left(passing, slot, start)
            stop = bisect_left(passing, end[slot], start)
            found.append(list(map(nodes.__getitem__, passing[start:stop])))
            start = stop
        return found

    def nodes_at(self, node_ids: list[int], up: int) -> list[Node] | None:
        """The nodes ``up`` parent links above the nodes with
        ``node_ids`` (ascending, each once), without duplicates, in
        document order: an exact index verdict's answer, no partition
        read.  A document numbered in one block holds node id ``i`` in
        slot ``i - node_ids[0]``; None when an id is not there (a store
        numbered otherwise)."""
        assert self.nodes is not None
        held, parent = self.node_ids, self.parent
        first, size = held[0], len(held)
        slots = []
        for node_id in node_ids:
            slot = node_id - first
            if slot < 0 or slot >= size or held[slot] != node_id:
                return None
            for _level in range(up):
                slot = parent[slot]
            slots.append(slot)
        if up and len(slots) > 1:
            slots = sorted(set(slots))
        nodes = self.nodes
        return [nodes[slot] for slot in slots]

    def _ancestors(self, slots: list[int], up: int) -> list[int]:
        """Each slot's ancestor ``up`` parent links above it."""
        parent = self.parent
        for _level in range(up):
            slots = list(map(parent.__getitem__, slots))
        return slots

    def _strings(self, partition: array) -> list[str]:
        """The string values of one partition's slots (all one kind)."""
        text_lo = self.text_lo
        if text_lo[partition[0]] < 0:
            return list(map(self.text_of, partition))
        text, text_hi = self.text, self.text_hi
        return [text[text_lo[slot]:text_hi[slot]] for slot in partition]

    def _doubles(self, path_id: int) -> tuple[Sequence[float],
                                              tuple[int, ...]]:
        """The partition's values as doubles and the positions of those
        that do not cast, from the value cache; a missing entry is
        built in full, then published by one assignment (a racing
        builder at worst publishes an equal entry, or drops one that is
        built again)."""
        cache = self.value_cache
        try:
            # Path ids are the entries' only ints.
            index = cache.index(path_id)
        except ValueError:
            pass
        else:
            return memoryview(cache[index + 1]).cast("d"), cache[index + 2]
        values = []
        uncastable = []
        for position, text in enumerate(
                self._strings(self.partitions[path_id])):
            try:
                values.append(parse_double(text))
            except CastError:
                values.append(nan)
                uncastable.append(position)
        uncastable = tuple(uncastable)
        self.value_cache += (path_id, array("d", values).tobytes(),
                             uncastable)
        return values, uncastable

    def slots_matching(self, matcher) -> Iterator[tuple[int, PathNode]]:
        """(slot, path) pairs whose path matches, partition by
        partition: no node views needed."""
        paths = self.shape.paths
        for path_id in matcher.path_ids(self.shape):
            path = paths[path_id]
            for slot in self.partitions[path_id]:
                yield slot, path

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
        """Build the XDM tree the columns describe (a stored document's
        first read, a buffer-pool reload, ``parse_document``).

        Node views are created in pre order, linked through the
        ``parent`` column and numbered as they are created (``pre`` is
        the slot, ``post`` and ``level`` are columns), so no numbering
        walk follows.  Every view's ``node_id`` comes
        from the ``node_ids`` column, so identity and document-order
        keys survive eviction cycles.  ``schema`` (a registered
        validation schema) is re-applied afterwards so schema-typed
        values are identical to the original ingest.
        """
        names = self.names
        scopes = self.nsscopes
        text = self.text
        text_lo = self.text_lo
        text_hi = self.text_hi
        name_id = self.name_id
        ns_id = self.ns_id
        post = self.post
        level = self.level
        parents = self.parent
        node_ids = self.node_ids
        tree_id = node_ids[0]
        nodes: list[Node] = []
        for slot, kind_code in enumerate(self.kind):
            if kind_code == KIND_ELEMENT:
                node = ElementNode(names[name_id[slot]],
                                   in_scope_namespaces=scopes[ns_id[slot]])
            elif kind_code == KIND_TEXT:
                node = TextNode(text[text_lo[slot]:text_hi[slot]])
            elif kind_code == KIND_ATTRIBUTE:
                node = AttributeNode(names[name_id[slot]],
                                     text[text_lo[slot]:text_hi[slot]])
            elif kind_code == KIND_DOCUMENT:
                node = DocumentNode(document_uri=self.document_uri)
                node.column_store = self
            elif kind_code == KIND_COMMENT:
                node = CommentNode(text[text_lo[slot]:text_hi[slot]])
            else:
                node = ProcessingInstructionNode(
                    names[name_id[slot]].local,
                    text[text_lo[slot]:text_hi[slot]])
            node.node_id = node_ids[slot]
            node._order = (tree_id, slot)
            node._post = post[slot]
            node._level = level[slot]
            parent_slot = parents[slot]
            if parent_slot >= 0:
                parent = node.parent = nodes[parent_slot]
                if kind_code == KIND_ATTRIBUTE:
                    parent._attributes.append(node)
                else:
                    parent._children.append(node)
            nodes.append(node)
        document = nodes[0]
        assert isinstance(document, DocumentNode)
        self.nodes = nodes
        if schema is not None:
            from ..schema.validator import validate
            validate(document, schema)
        if METRICS.enabled:
            METRICS.inc("columnar.materializations")
        return document

    def detach(self) -> None:
        """Drop the materialized views (buffer-pool eviction): only the
        compact columns remain resident, with the canonical text and
        spans if filled (slots are stable across materializations)."""
        self.nodes = None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Approximate resident size of the columns + text heap, and of
        the value cache, the canonical text and its spans once they are
        filled."""
        columns = (self.post, self.level, self.parent, self.kind,
                   self.name_id, self.ns_id, self.path_id, self.text_lo,
                   self.text_hi, self.subtree_end, self.node_ids)
        total = sum(column.itemsize * len(column) for column in columns)
        total += sum(partition.itemsize * len(partition)
                     for partition in self.partitions)
        total += len(self.text)
        total += sum(map(len, self.value_cache[1::3]))
        if self.canonical is not None:
            total += len(self.canonical)
        if self.spans is not None:
            total += self.spans.itemsize * len(self.spans)
        return total

    def materialized_nbytes(self) -> int:
        """Estimated extra bytes a live materialization costs."""
        return len(self.kind) * MATERIALIZED_NODE_BYTES + len(self.text)


class ColumnBuilder:
    """Appends one document's nodes to a new :class:`ColumnStore` in
    pre order: the one place columns are built.

    The XML parser drives it from text
    (:func:`repro.xmlio.parser.parse_columns`) and
    :meth:`ColumnStore.from_document` from a tree.  A node with children
    is opened before them and closed after them, which numbers its
    ``post``; attributes, text, comments and PIs are closed leaf slots
    whose content goes to the text heap.  Names and namespace scopes
    are interned once per document, and path ids come from a trie keyed
    ``(parent path id, kind, name id)`` whose new entries extend their
    parent's :class:`PathNode` once.  Slots accumulate as row tuples
    ``(kind, parent, name id, ns id, text_lo, text_hi, level, path id)``
    that :meth:`finish` turns into the store's arrays.
    """

    __slots__ = ("store", "_rows", "_posts", "_post", "_heap",
                 "_heap_length", "_names", "_scopes", "_steps",
                 "_paths", "_path_ids")

    def __init__(self, document_uri: str = ""):
        store = self.store = ColumnStore()
        store.document_uri = document_uri
        self._rows = [(KIND_DOCUMENT, -1, -1, -1, -1, -1, 0, -1)]
        self._posts = [-1]
        self._post = 0
        self._heap: list[str] = []
        self._heap_length = 0
        self._names: dict[tuple[str, str, str], int] = {}
        self._scopes: dict[tuple, int] = {}
        self._steps: dict[tuple[int, int, int], int] = {}
        #: path id -> interned path, until :meth:`finish` interns the
        #: list as the store's shape
        self._paths: list[PathNode] = []
        #: interned path -> path id: names differing only in prefix
        #: share a path
        self._path_ids: dict[PathNode, int] = {}

    def name_id(self, uri: str, local: str, prefix: str = "") -> int:
        key = (uri, local, prefix)
        name_id = self._names.get(key)
        if name_id is None:
            name_id = self._names[key] = len(self.store.names)
            self.store.names.append(QName(uri, local, prefix))
        return name_id

    def scope_id(self, scope: dict[str, str]) -> int:
        key = tuple(sorted(scope.items()))
        scope_id = self._scopes.get(key)
        if scope_id is None:
            scope_id = self._scopes[key] = len(self.store.nsscopes)
            self.store.nsscopes.append(dict(scope))
        return scope_id

    def open(self, kind: int, parent: int, name_id: int, ns_id: int,
             low: int = -1, high: int = -1) -> int:
        """Append a slot; its subtree follows until :meth:`close`.  An
        element nested deeper than the parser's ``MAX_DEPTH`` is an
        :class:`~repro.errors.XMLParseError`, whichever driver adds it."""
        rows = self._rows
        slot = len(rows)
        parent_row = rows[parent]
        level = parent_row[6] + 1
        if level > MAX_DEPTH and kind == KIND_ELEMENT:
            raise XMLParseError(f"elements nest deeper than {MAX_DEPTH} "
                                f"levels")
        key = (parent_row[7], kind, name_id)
        path_id = self._steps.get(key)
        if path_id is None:
            path_id = self._steps[key] = self._path_id(*key)
        self.store.partitions[path_id].append(slot)
        rows.append((kind, parent, name_id, ns_id, low, high, level,
                     path_id))
        self._posts.append(-1)
        return slot

    def leaf(self, kind: int, parent: int, name_id: int,
             content: str) -> None:
        low = self._heap_length
        self._heap.append(content)
        self._heap_length = low + len(content)
        self.close(self.open(kind, parent, name_id, -1, low,
                             self._heap_length))

    def close(self, slot: int) -> None:
        self._posts[slot] = self._post
        self._post += 1

    def finish(self, node_ids: array | None = None) -> ColumnStore:
        """Close the document slot and return the store.  ``node_ids``
        (one per slot) defaults to a fresh contiguous block."""
        self.close(0)
        store = self.store
        (kinds, store.parent, store.name_id, store.ns_id, store.text_lo,
         store.text_hi, store.level, store.path_id) = (
            array("q", column) for column in zip(*self._rows))
        store.kind = array("b", kinds)
        store.post = array("q", self._posts)
        store.subtree_end = _subtree_ends(store.post, store.level)
        store.text = "".join(self._heap)
        store.shape = intern_shape(self._paths)
        store.node_ids = (allocate_node_ids(len(kinds))
                          if node_ids is None else node_ids)
        return store

    def _path_id(self, parent_path_id: int, kind: int,
                 name_id: int) -> int:
        store = self.store
        paths = self._paths
        parent = (paths[parent_path_id] if parent_path_id >= 0
                  else ROOT_PATH)
        if name_id >= 0:
            name = store.names[name_id]
            path = parent.child(_KIND_NAMES[kind], name.uri, name.local)
        else:
            path = parent.child(_KIND_NAMES[kind])
        path_id = self._path_ids.get(path)
        if path_id is None:
            path_id = self._path_ids[path] = len(paths)
            paths.append(path)
            store.partitions.append(array("q"))
        return path_id


def _subtree_ends(post: array, level: array) -> array:
    """``subtree_end[s]``, one past the last slot of ``s``'s subtree —
    the upper bound of every descendant range scan.  A subtree holds
    ``post - pre + level`` descendants, so its end is
    ``post + level + 1``."""
    return array("q", (p + d + 1 for p, d in zip(post, level)))


# ---------------------------------------------------------------------------
# Lookup / ingest helpers
# ---------------------------------------------------------------------------


def _verdicts(values: Sequence, tests) -> Iterator[bool]:
    """``compare(value, fixed)`` for each value, and-ed over every
    ``(compare, fixed)`` of ``tests``: lazy maps of C functions, so one
    pass over ``values`` tests every bound without a Python frame per
    value."""
    compare, fixed = tests[0]
    verdicts = map(compare, values, repeat(fixed))
    for compare, fixed in tests[1:]:
        verdicts = map(and_, verdicts, map(compare, values, repeat(fixed)))
    return verdicts


def get_store(document) -> ColumnStore | None:
    """The column store whose live materialization is ``document``
    (None for any other root)."""
    if not isinstance(document, DocumentNode):
        return None
    return store_for_node(document)


def store_for_node(node: Node) -> ColumnStore | None:
    """The column store whose live materialization holds ``node``.

    The path and axis fast paths return the store's node objects, so
    the node must be the one in its slot: a tree that was evicted (its
    store detached or materialized again) or never stored gets None
    and the object walks.  Stored trees never change, so nothing else
    can make a store disagree with its tree.
    """
    root = node
    while root.parent is not None:
        root = root.parent
    if not isinstance(root, DocumentNode):
        return None
    store = root.column_store
    if store is None:
        return None
    nodes = store.nodes
    if nodes is None or nodes[node._order[1]] is not node:
        return None
    return store


def ingest_document(document: DocumentNode) -> ColumnStore:
    """The column store of ``document``, captured if needed.

    A parsed document arrives with the store it was materialized from
    and it is reused as-is; a document built as a tree is captured by
    :meth:`ColumnStore.from_document`.
    """
    store = get_store(document)
    if store is not None:
        return store
    return ColumnStore.from_document(document)
