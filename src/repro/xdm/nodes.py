"""XDM node hierarchy: document, element, attribute, text, comment, PI.

Three properties of nodes drive most of the paper's pitfalls and are
modelled exactly:

* **Node identity** (Section 3.6): every node carries a unique id
  assigned at construction; copying a node (as element constructors do)
  yields fresh identities, so ``$view/@price except .../@price`` keeps
  all nodes instead of cancelling out.
* **Document order**: a stable total order, per tree, used for path
  expression deduplication and the ``<<``/``>>`` comparisons.  Every
  node additionally carries a ``(pre, post, level)`` *interval
  encoding* (copied from the columns when a stored tree is built,
  assigned lazily to a constructed tree) so descendant/ancestor/
  following tests are plain integer comparisons and document-order
  sorting is a key sort with no tree walks.  A tree can change only
  until it is numbered: after that every structural edit raises, so a
  numbering (and the column store, index entries and canonical text
  derived from a stored tree) never goes stale.
* **Type annotations** (Sections 3.1, 3.6, 3.8): unvalidated elements
  are ``xdt:untyped`` and attributes ``xdt:untypedAtomic``; validation
  may attach schema types, including *list* types whose typed value is a
  sequence of atomics (the §3.10 footnote).
"""

from __future__ import annotations

import itertools
import threading
from array import array
from typing import Iterator

from ..errors import XQueryTypeError
from .atomic import AtomicValue, T_UNTYPED, cast, untyped
from .qname import QName

_NODE_IDS = itertools.count(1)


def allocate_node_ids(count: int) -> array:
    """``count`` consecutive node ids (a parsed document's, in pre
    order), drawn under the numbering lock by one C-level call, so no
    concurrent single-id draw lands inside the block."""
    with _NUMBER_LOCK:
        return array("q", itertools.islice(_NODE_IDS, count))


#: Serializes numbering and node-id draws: a reader that finds a tree
#: unnumbered waits for the one pass that numbers it.  The lock sits on
#: the slow path only: numbered trees never touch it.
_NUMBER_LOCK = threading.Lock()

#: Element type annotation meaning "no schema validation applied".
UNTYPED_ELEMENT = "xdt:untyped"


class Node:
    """Abstract base of all seven XDM node kinds (we omit namespace nodes)."""

    kind = "node"

    __slots__ = ("node_id", "parent", "_order", "_post", "_level")

    def __init__(self):
        self.node_id = next(_NODE_IDS)
        self.parent: Node | None = None
        self._order: tuple[int, int] | None = None
        self._post: int = -1
        self._level: int = -1

    # -- identity & order --------------------------------------------

    def is_same_node(self, other: "Node") -> bool:
        return self.node_id == other.node_id

    @property
    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def _ensure_structure(self) -> None:
        if self._order is None:
            with _NUMBER_LOCK:
                if self._order is None:  # double-check under the lock
                    _number_tree(self.root)

    def document_order_key(self) -> tuple[int, int]:
        """(tree id, pre position) — comparable within and across trees."""
        self._ensure_structure()
        assert self._order is not None
        return self._order

    def structure(self) -> tuple[int, int, int, int]:
        """The node's ``(tree_id, pre, post, level)`` interval encoding.

        ``pre`` counts nodes in document order (attributes between
        their element and its children), ``post`` counts completion
        order, ``level`` is the depth below the tree root.  A node
        ``d`` lies in ``a``'s subtree iff ``a.pre < d.pre`` and
        ``d.post < a.post`` — the accelerated axis tests build on this.
        """
        self._ensure_structure()
        assert self._order is not None
        tree_id, pre = self._order
        return tree_id, pre, self._post, self._level

    @property
    def level(self) -> int:
        self._ensure_structure()
        return self._level

    def is_ancestor_of(self, other: "Node") -> bool:
        """Interval containment test — O(1) after numbering."""
        tree, pre, post, _level = self.structure()
        other_tree, other_pre, other_post, _other = other.structure()
        return (tree == other_tree and pre < other_pre
                and other_post < post)

    def is_descendant_of(self, other: "Node") -> bool:
        return other.is_ancestor_of(self)

    # -- values --------------------------------------------------------

    def string_value(self) -> str:
        raise NotImplementedError

    def typed_value(self) -> list[AtomicValue]:
        """Atomization result (a list because of list-typed nodes)."""
        raise NotImplementedError

    @property
    def name(self) -> QName | None:
        return None

    # -- structure -------------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        return []

    @property
    def attributes(self) -> list["AttributeNode"]:
        return []

    def descendants_or_self(self) -> Iterator["Node"]:
        yield self
        for child in self.children:
            yield from child.descendants_or_self()

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:
        name = self.name
        label = f" {name}" if name is not None else ""
        return f"<{self.kind}{label} #{self.node_id}>"


def _walk_all(node: Node) -> Iterator[Node]:
    yield node
    for attribute in node.attributes:
        yield attribute
    for child in node.children:
        yield from _walk_all(child)


def _number_tree(root: Node) -> None:
    """Assign ``(pre, post, level)`` to every node of ``root``'s tree.

    Iterative two-phase DFS: a node receives its level when first
    visited and its ``post`` number after its whole subtree —
    attributes included — has been numbered.  The ``pre`` numbers
    follow in a second pass, last node first: a node counts as numbered
    once its ``_order`` is set, and by then its ``post`` and ``level``
    are written, as is everything after it in document order (the root
    comes last), so a reader never sees a half-numbered node.
    """
    nodes: list[Node] = []
    post = 0
    stack: list[tuple[Node, int, bool]] = [(root, 0, False)]
    while stack:
        node, level, finished = stack.pop()
        if finished:
            node._post = post
            post += 1
            continue
        nodes.append(node)
        node._level = level
        stack.append((node, level, True))
        for child in reversed(node.children):
            stack.append((child, level + 1, False))
        for attribute in reversed(node.attributes):
            stack.append((attribute, level + 1, False))
    _publish_order(nodes)


def _publish_order(nodes: list[Node]) -> None:
    """Set the ``(tree id, pre)`` keys of ``nodes`` (a whole tree in
    pre order), last node first."""
    tree_id = nodes[0].node_id
    for pre in range(len(nodes) - 1, -1, -1):
        nodes[pre]._order = (tree_id, pre)


def number_from_columns(nodes: list[Node], post, level) -> None:
    """Give ``nodes`` (a tree in pre order, attributes before
    children) the encoding :func:`_number_tree` would, read from its
    column-store ``post`` / ``level`` arrays."""
    with _NUMBER_LOCK:
        for pre, node in enumerate(nodes):
            node._post = post[pre]
            node._level = level[pre]
        _publish_order(nodes)


def _check_unnumbered(node: Node) -> None:
    """Structural edits are allowed only until the tree is numbered."""
    if node._order is not None:
        raise XQueryTypeError(
            f"{node!r} belongs to a numbered tree, which cannot change")


def _attach(parent: Node, node: Node) -> None:
    """Make ``parent`` (an unnumbered node) the parent of ``node``,
    which must be neither attached nor numbered."""
    _check_unnumbered(parent)
    if node.parent is not None or node._order is not None:
        raise XQueryTypeError(
            f"{node!r} already belongs to a tree; attach a copy")
    node.parent = parent


class _ParentNode(Node):
    """Documents and elements: the node kinds with children."""

    __slots__ = ("_children",)

    @property
    def children(self) -> list[Node]:
        return self._children

    def append_child(self, child: Node) -> None:
        if child.kind == "attribute":
            raise XQueryTypeError("attribute node cannot be a child")
        _attach(self, child)
        self._children.append(child)

    def insert_child(self, position: int, child: Node) -> None:
        if child.kind == "attribute":
            raise XQueryTypeError("attribute node cannot be a child")
        _attach(self, child)
        self._children.insert(position, child)

    def remove_child(self, child: Node) -> None:
        _check_unnumbered(self)
        self._children.remove(child)
        child.parent = None

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self._children
                       if child.kind in ("element", "text"))


class DocumentNode(_ParentNode):
    """A document node; ``db2-fn:xmlcolumn`` returns these (Section 3.5)."""

    kind = "document"

    __slots__ = ("document_uri", "column_store")

    def __init__(self, children: list[Node] | None = None,
                 document_uri: str = ""):
        super().__init__()
        self._children: list[Node] = []
        self.document_uri = document_uri
        #: Columnar accelerator table the tree was materialized from or
        #: captured into (see :mod:`repro.storage.columnar`), path
        #: table included; the tree is numbered, so it never changes.
        self.column_store = None
        for child in children or []:
            self.append_child(child)

    def typed_value(self) -> list[AtomicValue]:
        return [untyped(self.string_value())]

    @property
    def root_element(self) -> "ElementNode | None":
        for child in self._children:
            if child.kind == "element":
                return child  # type: ignore[return-value]
        return None


class ElementNode(_ParentNode):
    kind = "element"

    __slots__ = ("_name", "_attributes", "type_annotation",
                 "_typed_values", "in_scope_namespaces")

    def __init__(self, name: QName,
                 attributes: list["AttributeNode"] | None = None,
                 children: list[Node] | None = None,
                 type_annotation: str = UNTYPED_ELEMENT,
                 in_scope_namespaces: dict[str, str] | None = None):
        super().__init__()
        self._name = name
        self._attributes: list[AttributeNode] = []
        self._children: list[Node] = []
        self.type_annotation = type_annotation
        #: Set by schema validation for simple-typed elements.
        self._typed_values: list[AtomicValue] | None = None
        self.in_scope_namespaces = dict(in_scope_namespaces or {})
        for attribute in attributes or []:
            self.add_attribute(attribute)
        for child in children or []:
            self.append_child(child)

    @property
    def name(self) -> QName:
        return self._name

    @property
    def attributes(self) -> list["AttributeNode"]:
        return self._attributes

    def add_attribute(self, attribute: "AttributeNode") -> None:
        _attach(self, attribute)
        self._attributes.append(attribute)

    def remove_attribute(self, attribute: "AttributeNode") -> None:
        _check_unnumbered(self)
        self._attributes.remove(attribute)
        attribute.parent = None

    def attribute(self, local: str, uri: str = "") -> "AttributeNode | None":
        for attribute in self._attributes:
            if attribute.name.local == local and attribute.name.uri == uri:
                return attribute
        return None

    def typed_value(self) -> list[AtomicValue]:
        if self._typed_values is not None:
            return list(self._typed_values)
        if self.type_annotation == UNTYPED_ELEMENT:
            return [untyped(self.string_value())]
        # Simple-typed element validated but values not cached: cast now.
        return [cast(untyped(self.string_value()), self.type_annotation)]

    def set_typed_value(self, type_annotation: str,
                        values: list[AtomicValue]) -> None:
        """Attach a schema type annotation and its typed value."""
        self.type_annotation = type_annotation
        self._typed_values = list(values)


class AttributeNode(Node):
    kind = "attribute"

    __slots__ = ("_name", "_value", "type_annotation", "_typed_values")

    def __init__(self, name: QName, value: str,
                 type_annotation: str = T_UNTYPED):
        super().__init__()
        self._name = name
        self._value = value
        self.type_annotation = type_annotation
        self._typed_values: list[AtomicValue] | None = None

    @property
    def name(self) -> QName:
        return self._name

    def string_value(self) -> str:
        return self._value

    def typed_value(self) -> list[AtomicValue]:
        if self._typed_values is not None:
            return list(self._typed_values)
        if self.type_annotation == T_UNTYPED:
            return [untyped(self._value)]
        return [cast(untyped(self._value), self.type_annotation)]

    def set_typed_value(self, type_annotation: str,
                        values: list[AtomicValue]) -> None:
        self.type_annotation = type_annotation
        self._typed_values = list(values)


# Leaf content is read-only, like element and attribute names, and a
# numbered tree rejects every structural edit above, so nothing derived
# from a stored tree (string values, XML index keys, the column store's
# canonical text) can go stale.

class TextNode(Node):
    kind = "text"

    __slots__ = ("_content",)

    def __init__(self, content: str):
        super().__init__()
        self._content = content

    @property
    def content(self) -> str:
        return self._content

    def string_value(self) -> str:
        return self._content

    def typed_value(self) -> list[AtomicValue]:
        return [untyped(self._content)]


class CommentNode(Node):
    kind = "comment"

    __slots__ = ("_content",)

    def __init__(self, content: str):
        super().__init__()
        self._content = content

    @property
    def content(self) -> str:
        return self._content

    def string_value(self) -> str:
        return self._content

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue("xs:string", self._content)]


class ProcessingInstructionNode(Node):
    kind = "processing-instruction"

    __slots__ = ("_target", "_content")

    def __init__(self, target: str, content: str):
        super().__init__()
        self._target = target
        self._content = content

    @property
    def target(self) -> str:
        return self._target

    @property
    def content(self) -> str:
        return self._content

    @property
    def name(self) -> QName:
        return QName("", self._target)

    def string_value(self) -> str:
        return self._content

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue("xs:string", self._content)]


# ---------------------------------------------------------------------------
# Copying (element-constructor semantics, Section 3.6)
# ---------------------------------------------------------------------------

def copy_node(node: Node, preserve_types: bool = False) -> Node:
    """Deep-copy ``node`` with fresh node identities.

    With ``preserve_types=False`` (XQuery ``construction strip``, the
    engine default) copied elements become ``xdt:untyped`` and copied
    attributes ``xdt:untypedAtomic`` — one of the §3.6 hazards.
    """
    if node.kind == "document":
        return DocumentNode(
            [copy_node(child, preserve_types) for child in node.children])
    if node.kind == "element":
        assert isinstance(node, ElementNode)
        annotation = node.type_annotation if preserve_types else UNTYPED_ELEMENT
        copied = ElementNode(
            node.name,
            attributes=[copy_node(a, preserve_types)  # type: ignore[misc]
                        for a in node.attributes],
            children=[copy_node(child, preserve_types)
                      for child in node.children],
            type_annotation=annotation,
            in_scope_namespaces=node.in_scope_namespaces)
        if preserve_types and node._typed_values is not None:
            copied._typed_values = list(node._typed_values)
        return copied
    if node.kind == "attribute":
        assert isinstance(node, AttributeNode)
        annotation = node.type_annotation if preserve_types else T_UNTYPED
        copied_attr = AttributeNode(node.name, node.string_value(), annotation)
        if preserve_types and node._typed_values is not None:
            copied_attr._typed_values = list(node._typed_values)
        return copied_attr
    if node.kind == "text":
        return TextNode(node.string_value())
    if node.kind == "comment":
        return CommentNode(node.string_value())
    if node.kind == "processing-instruction":
        assert isinstance(node, ProcessingInstructionNode)
        return ProcessingInstructionNode(node.target, node.content)
    raise XQueryTypeError(f"cannot copy node kind {node.kind}")
