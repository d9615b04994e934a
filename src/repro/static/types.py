"""The XDM sequence-type lattice.

A static type is a set of *item types* plus *cardinality bounds*
``[low, high]`` (``high=None`` meaning unbounded) — the ``(prime(T),
quantifier(T))`` factorization of the XQuery 1.0 Formal Semantics,
with exact integer bounds instead of the four occurrence indicators so
the planner can seed cardinality estimates from them.  The classic
indicators are recovered for display: ``0`` (empty), ``1``, ``?``,
``*``, ``+``.

Item kinds cover the node taxonomy (``element(n)``, ``attribute(n)``,
``text()``, ``document-node()``, ``comment()``,
``processing-instruction()``, ``node()``) and the atomic ``xs:*`` /
``xdt:*`` types the engine implements.  The lattice operations are:

* :func:`union_type` — alternation (if/else branches, typeswitch);
* :func:`concat_type` — sequence concatenation (the comma operator);
* :func:`iterate` — the type of a ``for``-bound variable;
* :func:`atomized` — fn:data() over the type, consulting no schema
  (schema-typed atomization lives in :mod:`repro.static.infer`, which
  knows the document paths).

Section 3.1 comparability is a small algebra over *categories*
(numeric, string, boolean, date, dateTime, untyped): two types are
statically incomparable when both are concretely typed and their
category sets are disjoint — the static error behind Query 3's
surprise, surfaced before the query runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import XQueryTypeError
from ..xdm import atomic
from ..xdm.compare import comparison_type

__all__ = ["ItemType", "SeqType", "EMPTY", "ANY", "atomized",
           "category_of", "comparison_categories", "concat_type",
           "index_type_for", "item", "iterate", "one", "opt",
           "statically_incomparable", "star", "union_type"]

#: Node kinds (everything else is an atomic type name).
_NODE_KINDS = frozenset({
    "element", "attribute", "text", "comment",
    "processing-instruction", "document-node", "node"})


@dataclass(frozen=True)
class ItemType:
    """One item kind: a node test or an atomic type.

    ``kind`` is a node kind from ``_NODE_KINDS``, an atomic type name
    (``xs:double``, ``xdt:untypedAtomic``, …), or ``item`` (⊤).
    ``uri``/``local`` narrow element/attribute kinds to a name;
    ``None`` wildcards (so ``element()`` is ``ItemType('element')``).
    """

    kind: str
    uri: Optional[str] = None
    local: Optional[str] = None

    @property
    def is_node(self) -> bool:
        return self.kind in _NODE_KINDS

    @property
    def is_atomic(self) -> bool:
        return self.kind not in _NODE_KINDS and self.kind != "item"

    def __str__(self) -> str:
        if self.kind in ("element", "attribute"):
            if self.local is None:
                return f"{self.kind}()"
            prefix = f"{{{self.uri}}}" if self.uri else ""
            return f"{self.kind}({prefix}{self.local})"
        if self.kind in ("text", "comment", "processing-instruction",
                         "document-node", "node"):
            return f"{self.kind}()"
        return self.kind


#: The ⊤ item.
ITEM = ItemType("item")


def item(kind: str, uri: str | None = None,
         local: str | None = None) -> ItemType:
    return ItemType(kind, uri, local)


@dataclass(frozen=True)
class SeqType:
    """A sequence type: alternation of item types × cardinality bounds."""

    items: frozenset  # frozenset[ItemType]
    low: int = 0
    high: Optional[int] = None   # None = unbounded

    def __post_init__(self):
        if self.high is not None and self.high < self.low:
            object.__setattr__(self, "high", self.low)

    # -- occurrence -----------------------------------------------------

    @property
    def occurrence(self) -> str:
        """The classic indicator nearest to the exact bounds."""
        if self.high == 0:
            return "0"
        if (self.low, self.high) == (1, 1):
            return "1"
        if self.low == 0:
            return "?" if self.high == 1 else "*"
        return "+"

    @property
    def possibly_empty(self) -> bool:
        return self.low == 0

    @property
    def is_empty(self) -> bool:
        return self.high == 0

    def __str__(self) -> str:
        if self.is_empty:
            return "empty-sequence()"
        kinds = " | ".join(sorted(str(entry) for entry in self.items)) \
            or "item"
        if len(self.items) > 1:
            kinds = f"({kinds})"
        suffix = {"1": ""}.get(self.occurrence, self.occurrence)
        if suffix == "0":
            suffix = ""
        return f"{kinds}{suffix}"

    def bounds_text(self) -> str:
        high = "∞" if self.high is None else str(self.high)
        return f"[{self.low}, {high}]"

    # -- helpers --------------------------------------------------------

    def with_bounds(self, low: int, high: Optional[int]) -> "SeqType":
        return SeqType(self.items, low, high)

    def at_least_empty(self) -> "SeqType":
        """The same type with the low bound relaxed to 0 (filtering)."""
        return SeqType(self.items, 0, self.high)


EMPTY = SeqType(frozenset(), 0, 0)
ANY = SeqType(frozenset({ITEM}), 0, None)


def one(item_type: ItemType) -> SeqType:
    return SeqType(frozenset({item_type}), 1, 1)


def opt(item_type: ItemType) -> SeqType:
    return SeqType(frozenset({item_type}), 0, 1)


def star(item_types: Iterable[ItemType]) -> SeqType:
    return SeqType(frozenset(item_types), 0, None)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def union_type(left: SeqType, right: SeqType) -> SeqType:
    """Alternation: either branch's value (if/else, typeswitch arms)."""
    high = (None if left.high is None or right.high is None
            else max(left.high, right.high))
    return SeqType(left.items | right.items,
                   min(left.low, right.low), high)


def concat_type(left: SeqType, right: SeqType) -> SeqType:
    """Sequence concatenation: the comma operator (never nests, §3.4)."""
    high = (None if left.high is None or right.high is None
            else left.high + right.high)
    return SeqType(left.items | right.items, left.low + right.low, high)


def iterate(binding: SeqType) -> SeqType:
    """The type of a ``for`` variable: exactly one of the prime items."""
    if binding.is_empty:
        return EMPTY
    return SeqType(binding.items or frozenset({ITEM}), 1, 1)


def category_of(item_type: ItemType) -> str:
    """Comparison category: a concrete category, ``any`` for untyped
    atomics / nodes / ⊤ (they cast to the other side at run time)."""
    if item_type.is_node or item_type.kind == "item":
        return "any"
    return atomic.category(item_type.kind)


def atomized(seq: SeqType) -> SeqType:
    """fn:data() over the type: nodes become untyped atomics.

    Without schema knowledge an untyped node atomizes to exactly one
    ``xdt:untypedAtomic``; the bounds carry over unchanged.  Callers
    with schema knowledge (the abstract interpreter) refine the item
    type afterwards.
    """
    if seq.is_empty:
        return EMPTY
    items = frozenset(
        ItemType(atomic.T_UNTYPED) if entry.is_node else
        (ItemType(atomic.T_ANY_ATOMIC) if entry.kind == "item" else entry)
        for entry in seq.items)
    return SeqType(items, seq.low, seq.high)


def comparison_categories(seq: SeqType) -> frozenset:
    """The §3.1 category set of a type's atomized values."""
    return frozenset(category_of(entry) for entry in atomized(seq).items)


def statically_incomparable(left: SeqType, right: SeqType) -> bool:
    """True when a comparison between the two types can *never*
    succeed: every pair of their atomized item types makes the run-time
    promotion rule (:func:`repro.xdm.compare.comparison_type`) raise,
    e.g. ``xs:double`` vs ``xs:string`` (§3.1).  Untyped data (category
    ``any``) casts to the other side, so it is comparable with
    everything.
    """
    left_items, right_items = atomized(left).items, atomized(right).items
    for left_item in left_items:
        for right_item in right_items:
            if "any" in (category_of(left_item), category_of(right_item)):
                return False
            try:
                comparison_type(left_item.kind, right_item.kind)
            except XQueryTypeError:
                continue
            return False
    # An empty operand makes the comparison empty/false, not an error.
    return bool(left_items and right_items)


def index_type_for(seq: SeqType) -> str | None:
    """The index type a comparison against ``seq`` would need, or None
    when the static type is untyped / mixed — exactly the Tip-1
    distinction: only a provably-typed operand yields an index type."""
    index_types = {atomic.index_type(entry.kind)
                   for entry in atomized(seq).items}
    return index_types.pop() if len(index_types) == 1 else None
