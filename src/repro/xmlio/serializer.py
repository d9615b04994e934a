"""XDM → XML text serialization.

Serialization is namespace-faithful: an element emits ``xmlns``
declarations for every binding in its in-scope namespaces that its
parent did not already declare, so round-tripping a parsed document
reproduces an equivalent (prefix-preserving) serialization.

A stored document serializes once.  The first :func:`serialize` of a
stored element or document node whose column store is current keeps
the walk's output on the store as its *canonical text*, with the
``(start, end)`` span of every element that inherits an empty
namespace scope in that walk; later calls slice it.  Constructed
nodes, attributes, leaves, elements without a span and ``indent=True``
walk the tree.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from ..obs.metrics import METRICS
from ..xdm.atomic import AtomicValue
from ..xdm.nodes import (AttributeNode, DocumentNode, ElementNode, Node)
from ..xdm.sequence import Item


def _escape_text(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _escape_attribute(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def serialize(item: Item, indent: bool = False) -> str:
    """Serialize one item (node or atomic value) to text.

    With ``indent=True``, element-only content is pretty-printed with
    two-space indentation; mixed content (any text child) is left
    untouched so whitespace-significant values never change.  Both
    forms walk the tree with an explicit stack, so nesting depth is
    unbounded; without ``indent``, a stored element or document node
    with a span is sliced from its store's canonical text instead.
    """
    if isinstance(item, AtomicValue):
        return item.string_value()
    if indent:
        return _pretty_node(item, inherited={})
    if isinstance(item, (ElementNode, DocumentNode)):
        text = _stored_text(item)
        if text is not None:
            return text
    if METRICS.enabled:
        METRICS.inc("serialize.walks")
    return _serialize_node(item, inherited={})


def _stored_text(node: Node) -> str | None:
    """``node``'s serialization from its column store's canonical
    text, or None without a store or a span.  A stored tree never
    changes, so the text is right for every materialization.  The document,
    and its element when that is its only child, serialize as the
    whole text: without one yet, they walk and keep the result,
    recording no spans (a WAL record or a checkpoint costs what it
    did).  The first other element asked for records the spans in one
    whole-document walk.  Racing readers may both fill: each publishes
    the same complete text before its spans, so either result is right
    and no lock is needed."""
    document = node.root
    if not isinstance(document, DocumentNode):
        return None
    store = document.column_store
    if store is None:
        return None
    parent = node.parent
    if parent is None or (parent is document
                          and len(document.children) == 1):
        text = store.canonical
        if text is None:
            if METRICS.enabled:
                METRICS.inc("serialize.walks")
            text = store.canonical = _serialize_node(node, inherited={})
            return text
    else:
        slot = node._order[1]  # type: ignore[index]
        spans = store.spans
        if spans is None:
            if METRICS.enabled:
                METRICS.inc("serialize.walks")
            spans = array("q", [-1]) * (2 * len(store))
            text = _serialize_node(document, inherited={}, spans=spans)
            store.canonical = text
            store.spans = spans
        start = spans[2 * slot]
        if start < 0:
            return None
        text = store.canonical[start:spans[2 * slot + 1]]
    if METRICS.enabled:
        METRICS.inc("serialize.slices")
    return text


def _pretty_node(node: Node, inherited: dict[str, str]) -> str:
    # Work items: (node, in-scope bindings, depth), or a finished line.
    lines: list[str] = []
    stack: list = [(node, inherited, 0)]
    while stack:
        item, scope, depth = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        if isinstance(item, DocumentNode):
            stack.extend((child, scope, depth)
                         for child in reversed(item.children))
            continue
        pad = "  " * depth
        if (not isinstance(item, ElementNode) or not item.children
                or any(child.kind == "text" for child in item.children)):
            lines.append(pad + _serialize_node(item, scope))
            continue
        lines.append(pad + _start_tag(item, scope)[0] + ">")
        # Children see only the element's own name binding added.
        child_scope = dict(scope)
        name = item.name
        child_scope[name.prefix] = name.uri
        stack.append((f"{pad}</{_tag_name(item)}>", None, None))
        stack.extend((child, child_scope, depth + 1)
                     for child in reversed(item.children))
    return "\n".join(lines)


def serialize_sequence(items: list[Item]) -> str:
    """Serialize a sequence, space-separating adjacent atomic values."""
    parts: list[str] = []
    previous_atomic = False
    for item in items:
        is_atomic = isinstance(item, AtomicValue)
        if is_atomic and previous_atomic:
            parts.append(" ")
        parts.append(serialize(item))
        previous_atomic = is_atomic
    return "".join(parts)


def _serialize_node(node: Node, inherited: dict[str, str],
                    spans: array | None = None) -> str:
    """Walk ``node`` with an explicit stack.  Given ``spans`` (two
    entries per slot of ``node``'s column store, all -1), also record
    the ``(start, end)`` offset in the result of every element whose
    inherited scope is empty."""
    parts: list[str] = []
    # One frame per open element: its children not yet written, the
    # bindings in scope for them, its end tag and, when its span is
    # recorded, its slot (else -1).  While recording, ``spans`` holds
    # part indices; they become character offsets at the end.
    stack = [(iter((node,)), inherited, "", -1)]
    while stack:
        children, scope, end, closing = stack[-1]
        for child in children:
            if isinstance(child, ElementNode):
                slot = -1
                if spans is not None and not scope:
                    slot = child._order[1]  # type: ignore[index]
                    spans[2 * slot] = len(parts)
                start, child_scope = _start_tag(child, scope)
                grandchildren = child.children
                if _serializes_empty(grandchildren):
                    parts.append(start + "/>")
                elif (len(grandchildren) == 1
                      and grandchildren[0].kind == "text"):
                    text = _escape_text(grandchildren[0].string_value())
                    parts.append(f"{start}>{text}</{_tag_name(child)}>")
                else:
                    parts.append(start + ">")
                    stack.append((iter(grandchildren), child_scope,
                                  f"</{_tag_name(child)}>", slot))
                    break
                if slot >= 0:
                    spans[2 * slot + 1] = len(parts)  # type: ignore[index]
            elif isinstance(child, DocumentNode):
                stack.append((iter(child.children), scope, "", -1))
                break
            else:
                parts.append(_serialize_leaf(child))
        else:
            stack.pop()
            parts.append(end)
            if closing >= 0:
                spans[2 * closing + 1] = len(parts)  # type: ignore[index]
    if spans is not None:
        # Part index -> offset; the trailing -1 keeps "no span" at -1.
        offsets = array("q", accumulate(map(len, parts), initial=0))
        offsets.append(-1)
        spans[:] = array("q", map(offsets.__getitem__, spans))
    return "".join(parts)


def _serializes_empty(children: list[Node]) -> bool:
    """No children, or only empty text nodes.  `<a></a>` reparses as
    childless and would re-serialize as `<a/>`, so only the
    self-closing form round-trips byte-identically — a requirement for
    checkpoint fidelity (durability layer)."""
    for child in children:
        if child.kind != "text" or child.string_value():
            return False
    return True


def _serialize_leaf(node: Node) -> str:
    kind = node.kind
    if kind == "text":
        return _escape_text(node.string_value())
    if kind == "attribute":
        return (f'{node.name.lexical}='  # type: ignore[union-attr]
                f'"{_escape_attribute(node.string_value())}"')
    if kind == "comment":
        return f"<!--{node.string_value()}-->"
    if kind == "processing-instruction":
        content = node.string_value()
        body = f" {content}" if content else ""
        return f"<?{node.name.local}{body}?>"  # type: ignore[union-attr]
    raise ValueError(f"cannot serialize node kind {node.kind}")


def _tag_name(element: ElementNode) -> str:
    name = element.name
    if name.prefix:
        return f"{name.prefix}:{name.local}"
    return name.local


def _start_tag(element: ElementNode, inherited: dict[str, str]
               ) -> tuple[str, dict[str, str]]:
    """The element's start tag up to (not including) its closing
    ``>`` or ``/>``, and the bindings in scope for its children."""
    parts = [f"<{_tag_name(element)}"]

    scope = dict(inherited)
    declarations: list[tuple[str, str]] = []
    name = element.name
    # Declare the element's own namespace if needed.
    if name.prefix:
        if scope.get(name.prefix) != name.uri:
            declarations.append((f"xmlns:{name.prefix}", name.uri))
            scope[name.prefix] = name.uri
    elif scope.get("", "") != name.uri:
        declarations.append(("xmlns", name.uri))
        scope[""] = name.uri
    # Declare prefixes used by attributes.
    for attribute in element.attributes:
        attr_name = attribute.name
        if attr_name.prefix and scope.get(attr_name.prefix) != attr_name.uri:
            declarations.append((f"xmlns:{attr_name.prefix}", attr_name.uri))
            scope[attr_name.prefix] = attr_name.uri

    for declaration, uri in declarations:
        parts.append(f' {declaration}="{_escape_attribute(uri)}"')
    for attribute in element.attributes:
        parts.append(f" {_serialize_leaf(attribute)}")
    return "".join(parts), scope
