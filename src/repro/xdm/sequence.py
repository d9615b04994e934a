"""Sequence operations: atomization, effective boolean value, dedup.

XDM sequences are flat (no nesting — the property Section 3.4 uses:
"sequence concatenation also discards empty sequences").  We represent a
sequence as a plain Python ``list`` of items, where an item is either a
:class:`~repro.xdm.nodes.Node` or an
:class:`~repro.xdm.atomic.AtomicValue`.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from ..errors import XQueryTypeError
from .atomic import AtomicValue, T_BOOLEAN, T_STRING, T_UNTYPED
from .nodes import Node

Item = Union[Node, AtomicValue]
Sequence = list  # list[Item]


def is_node(item: Item) -> bool:
    return isinstance(item, Node)


def atomize(items: Iterable[Item]) -> list[AtomicValue]:
    """fn:data() — replace each node by its typed value.

    A list-typed node contributes several atomics, which is why a
    "singleton" path can still atomize to more than one value (the
    §3.10 list-type caveat).
    """
    result: list[AtomicValue] = []
    for item in items:
        if isinstance(item, Node):
            result.extend(item.typed_value())
        else:
            result.append(item)
    return result


def effective_boolean_value(items: list[Item]) -> bool:
    """fn:boolean() — the EBV rules of XPath 2.0.

    Crucially for Query 9: a singleton ``xs:boolean`` sequence has its
    own value as EBV, but *any* non-empty sequence starting with a node
    is true — and XMLEXISTS tests non-emptiness, not EBV, so a boolean
    ``false`` inside XMLEXISTS still counts as "exists".
    """
    if not items:
        return False
    first = items[0]
    if isinstance(first, Node):
        return True
    if len(items) > 1:
        raise XQueryTypeError(
            "effective boolean value of multi-item atomic sequence",
            code="FORG0006")
    if first.type_name == T_BOOLEAN:
        return bool(first.value)
    if first.type_name in (T_STRING, T_UNTYPED):
        return len(first.value) > 0
    if first.is_numeric:
        number = float(first.value)
        return not (number == 0 or math.isnan(number))
    raise XQueryTypeError(
        f"no effective boolean value for {first.type_name}", code="FORG0006")


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes by document order and remove duplicates by identity.

    This is the implicit behaviour of path expressions and the explicit
    behaviour of ``union``/``intersect``/``except``.
    """
    materialized = nodes if isinstance(nodes, list) else list(nodes)
    # Fast path: strictly increasing document-order keys mean the
    # sequence is already sorted and duplicate-free — O(n) key reads
    # (cached after the tree is numbered), no set, no sort.
    previous: tuple[int, int] | None = None
    for node in materialized:
        key = node.document_order_key()
        if previous is not None and key <= previous:
            break
        previous = key
    else:
        return list(materialized)
    seen: set[int] = set()
    unique: list[Node] = []
    for node in materialized:
        if node.node_id not in seen:
            seen.add(node.node_id)
            unique.append(node)
    unique.sort(key=lambda node: node.document_order_key())
    return unique


def singleton(items: list[Item], operation: str) -> Item:
    if len(items) != 1:
        raise XQueryTypeError(
            f"{operation} requires a singleton sequence, got "
            f"{len(items)} items", code="XPTY0004")
    return items[0]
