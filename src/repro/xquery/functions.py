"""Built-in function library: fn:*, xs:* constructors, db2-fn:*.

The registry maps (namespace-uri, local-name) to a signature.  Function
arguments arrive fully evaluated (XQuery is call-by-value over
sequences).  Implementations raise the standard err:* codes.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Callable

from ..errors import CastError, XQueryDynamicError, XQueryTypeError
from ..xdm import atomic
from ..xdm.atomic import AtomicValue
from ..xdm.compare import value_compare
from ..xdm.nodes import Node
from ..xdm.qname import DB2FN_NS, FN_NS, XDT_NS, XS_NS
from ..xdm.sequence import (Item, atomize, effective_boolean_value,
                            singleton)
from .context import DynamicContext


class FunctionDef:
    __slots__ = ("name", "min_args", "max_args", "impl")

    def __init__(self, name: str, min_args: int, max_args: int,
                 impl: Callable):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.impl = impl


REGISTRY: dict[tuple[str, str], FunctionDef] = {}


def _register(uri: str, local: str, min_args: int, max_args: int):
    def decorator(impl):
        REGISTRY[(uri, local)] = FunctionDef(local, min_args, max_args, impl)
        return impl
    return decorator


def lookup_function(uri: str, local: str) -> FunctionDef | None:
    return REGISTRY.get((uri, local))


def _one_string(args: list[list[Item]], index: int = 0,
                default: str = "") -> str:
    values = atomize(args[index]) if index < len(args) else []
    if not values:
        return default
    if len(values) > 1:
        raise XQueryTypeError("expected a singleton string argument")
    return values[0].string_value()


def _optional_atomic(items: list[Item]) -> AtomicValue | None:
    values = atomize(items)
    if not values:
        return None
    if len(values) > 1:
        raise XQueryTypeError("expected zero or one atomic value")
    return values[0]


# ---------------------------------------------------------------------------
# fn: boolean / sequences
# ---------------------------------------------------------------------------

@_register(FN_NS, "true", 0, 0)
def _fn_true(ctx, args):
    return [atomic.TRUE]


@_register(FN_NS, "false", 0, 0)
def _fn_false(ctx, args):
    return [atomic.FALSE]


@_register(FN_NS, "boolean", 1, 1)
def _fn_boolean(ctx, args):
    return [atomic.boolean(effective_boolean_value(args[0]))]


@_register(FN_NS, "not", 1, 1)
def _fn_not(ctx, args):
    return [atomic.boolean(not effective_boolean_value(args[0]))]


@_register(FN_NS, "empty", 1, 1)
def _fn_empty(ctx, args):
    return [atomic.boolean(not args[0])]


@_register(FN_NS, "exists", 1, 1)
def _fn_exists(ctx, args):
    return [atomic.boolean(bool(args[0]))]


@_register(FN_NS, "count", 1, 1)
def _fn_count(ctx, args):
    return [atomic.integer(len(args[0]))]


@_register(FN_NS, "distinct-values", 1, 1)
def _fn_distinct_values(ctx, args):
    seen: list[AtomicValue] = []
    for value in atomize(args[0]):
        duplicate = False
        for kept in seen:
            try:
                result = value_compare("eq", [kept], [value])
            except XQueryTypeError:
                continue
            if result and result[0].value:
                duplicate = True
                break
        if not duplicate:
            seen.append(value)
    return list(seen)


@_register(FN_NS, "reverse", 1, 1)
def _fn_reverse(ctx, args):
    return list(reversed(args[0]))


@_register(FN_NS, "subsequence", 2, 3)
def _fn_subsequence(ctx, args):
    items = args[0]
    start = round(float(singleton(atomize(args[1]), "subsequence").value))
    if len(args) == 3:
        length = round(float(singleton(atomize(args[2]),
                                       "subsequence").value))
        end = start + length
    else:
        end = len(items) + 1
    return [item for position, item in enumerate(items, start=1)
            if start <= position < end]


@_register(FN_NS, "index-of", 2, 2)
def _fn_index_of(ctx, args):
    target = singleton(atomize(args[1]), "index-of")
    matches = []
    for position, value in enumerate(atomize(args[0]), start=1):
        try:
            result = value_compare("eq", [value], [target])
        except XQueryTypeError:
            continue
        if result and result[0].value:
            matches.append(atomic.integer(position))
    return matches


@_register(FN_NS, "exactly-one", 1, 1)
def _fn_exactly_one(ctx, args):
    if len(args[0]) != 1:
        raise XQueryTypeError("fn:exactly-one: sequence has "
                              f"{len(args[0])} items", code="FORG0005")
    return args[0]


@_register(FN_NS, "zero-or-one", 1, 1)
def _fn_zero_or_one(ctx, args):
    if len(args[0]) > 1:
        raise XQueryTypeError("fn:zero-or-one: more than one item",
                              code="FORG0003")
    return args[0]


@_register(FN_NS, "one-or-more", 1, 1)
def _fn_one_or_more(ctx, args):
    if not args[0]:
        raise XQueryTypeError("fn:one-or-more: empty sequence",
                              code="FORG0004")
    return args[0]


@_register(FN_NS, "position", 0, 0)
def _fn_position(ctx: DynamicContext, args):
    ctx.require_context_item()
    return [atomic.integer(ctx.position)]


@_register(FN_NS, "last", 0, 0)
def _fn_last(ctx: DynamicContext, args):
    ctx.require_context_item()
    return [atomic.integer(ctx.size)]


# ---------------------------------------------------------------------------
# fn: aggregates
# ---------------------------------------------------------------------------

def _to_number(value: AtomicValue) -> AtomicValue:
    if value.is_untyped:
        return atomic.cast(value, atomic.T_DOUBLE)
    if not value.is_numeric:
        raise XQueryTypeError(
            f"aggregate over non-numeric {value.type_name}")
    return value


@_register(FN_NS, "sum", 1, 2)
def _fn_sum(ctx, args):
    values = [_to_number(value) for value in atomize(args[0])]
    if not values:
        if len(args) == 2:
            return list(args[1])
        return [atomic.integer(0)]
    total = values[0]
    for value in values[1:]:
        left, right = atomic.promote_numeric_pair(total, value)
        total = AtomicValue(left.type_name, left.value + right.value)
    return [total]


@_register(FN_NS, "avg", 1, 1)
def _fn_avg(ctx, args):
    values = [_to_number(value) for value in atomize(args[0])]
    if not values:
        return []
    total = _fn_sum(ctx, [values])[0]
    if total.type_name == atomic.T_DOUBLE:
        return [atomic.double(total.value / len(values))]
    return [atomic.decimal(Decimal(total.value) / len(values))]


def _extreme(args, op: str):
    values = atomize(args[0])
    if not values:
        return []
    best = values[0]
    if best.is_untyped:
        best = atomic.cast(best, atomic.T_DOUBLE)
    for value in values[1:]:
        if value.is_untyped:
            value = atomic.cast(value, atomic.T_DOUBLE)
        result = value_compare(op, [value], [best])
        if result and result[0].value:
            best = value
    return [best]


@_register(FN_NS, "max", 1, 1)
def _fn_max(ctx, args):
    return _extreme(args, "gt")


@_register(FN_NS, "min", 1, 1)
def _fn_min(ctx, args):
    return _extreme(args, "lt")


# ---------------------------------------------------------------------------
# fn: strings
# ---------------------------------------------------------------------------

@_register(FN_NS, "string", 0, 1)
def _fn_string(ctx: DynamicContext, args):
    if args:
        if not args[0]:
            return [atomic.string("")]
        item = singleton(args[0], "fn:string")
    else:
        item = ctx.require_context_item()
    if isinstance(item, Node):
        return [atomic.string(item.string_value())]
    return [atomic.string(item.string_value())]


@_register(FN_NS, "string-length", 0, 1)
def _fn_string_length(ctx, args):
    if args:
        text = _one_string(args)
    else:
        item = ctx.require_context_item()
        text = item.string_value() if isinstance(item, Node) else \
            item.string_value()
    return [atomic.integer(len(text))]


@_register(FN_NS, "concat", 2, 256)
def _fn_concat(ctx, args):
    parts = []
    for argument in args:
        value = _optional_atomic(argument)
        parts.append(value.string_value() if value is not None else "")
    return [atomic.string("".join(parts))]


@_register(FN_NS, "string-join", 2, 2)
def _fn_string_join(ctx, args):
    separator = _one_string(args, 1)
    parts = [value.string_value() for value in atomize(args[0])]
    return [atomic.string(separator.join(parts))]


@_register(FN_NS, "contains", 2, 2)
def _fn_contains(ctx, args):
    return [atomic.boolean(_one_string(args, 1) in _one_string(args, 0))]


@_register(FN_NS, "starts-with", 2, 2)
def _fn_starts_with(ctx, args):
    return [atomic.boolean(
        _one_string(args, 0).startswith(_one_string(args, 1)))]


@_register(FN_NS, "ends-with", 2, 2)
def _fn_ends_with(ctx, args):
    return [atomic.boolean(
        _one_string(args, 0).endswith(_one_string(args, 1)))]


def _xpath_round(value: float) -> float:
    """fn:round semantics: round half toward +INF (not banker's).

    ``round(2.5) == 2`` in Python but ``fn:round(2.5) eq 3`` in XPath;
    NaN and ±INF round to themselves."""
    if math.isnan(value) or math.isinf(value):
        return value
    return math.floor(value + 0.5)


@_register(FN_NS, "substring", 2, 3)
def _fn_substring(ctx, args):
    # F&O 7.4.3: characters whose position p satisfies
    # round(start) <= p < round(start) + round(length).  The
    # comparisons are done in double arithmetic so NaN bounds make
    # every test false (empty result) and infinite bounds behave as
    # unbounded — no special-casing, no ValueError.
    text = _one_string(args, 0)
    start = _xpath_round(float(singleton(atomize(args[1]),
                                         "substring").value))
    if len(args) == 3:
        length = _xpath_round(float(singleton(atomize(args[2]),
                                              "substring").value))
        end = start + length
    else:
        end = math.inf
    result = "".join(char for position, char in enumerate(text, start=1)
                     if start <= position < end)
    return [atomic.string(result)]


@_register(FN_NS, "substring-before", 2, 2)
def _fn_substring_before(ctx, args):
    # F&O 7.5.4: an empty separator yields the zero-length string.
    text, sep = _one_string(args, 0), _one_string(args, 1)
    if not sep:
        return [atomic.string("")]
    index = text.find(sep)
    return [atomic.string(text[:index] if index >= 0 else "")]


@_register(FN_NS, "substring-after", 2, 2)
def _fn_substring_after(ctx, args):
    # F&O 7.5.5: an empty separator yields $text itself ("" occurs
    # before the first character), not "".
    text, sep = _one_string(args, 0), _one_string(args, 1)
    if not sep:
        return [atomic.string(text)]
    index = text.find(sep)
    return [atomic.string(text[index + len(sep):] if index >= 0 else "")]


@_register(FN_NS, "normalize-space", 0, 1)
def _fn_normalize_space(ctx, args):
    if args:
        text = _one_string(args)
    else:
        item = ctx.require_context_item()
        text = item.string_value()
    return [atomic.string(" ".join(text.split()))]


@_register(FN_NS, "upper-case", 1, 1)
def _fn_upper_case(ctx, args):
    return [atomic.string(_one_string(args).upper())]


@_register(FN_NS, "lower-case", 1, 1)
def _fn_lower_case(ctx, args):
    return [atomic.string(_one_string(args).lower())]


@_register(FN_NS, "translate", 3, 3)
def _fn_translate(ctx, args):
    text = _one_string(args, 0)
    source_map = _one_string(args, 1)
    target_map = _one_string(args, 2)
    table = {}
    for index, char in enumerate(source_map):
        table[ord(char)] = (target_map[index]
                            if index < len(target_map) else None)
    return [atomic.string(text.translate(table))]


@_register(FN_NS, "matches", 2, 2)
def _fn_matches(ctx, args):
    # Python re is a close approximation of XPath regular expressions.
    return [atomic.boolean(
        re.search(_one_string(args, 1), _one_string(args, 0)) is not None)]


@_register(FN_NS, "replace", 3, 3)
def _fn_replace(ctx, args):
    return [atomic.string(re.sub(_one_string(args, 1),
                                 _one_string(args, 2),
                                 _one_string(args, 0)))]


@_register(FN_NS, "tokenize", 2, 2)
def _fn_tokenize(ctx, args):
    return [atomic.string(token)
            for token in re.split(_one_string(args, 1), _one_string(args, 0))]


# ---------------------------------------------------------------------------
# fn: numerics
# ---------------------------------------------------------------------------

@_register(FN_NS, "number", 0, 1)
def _fn_number(ctx: DynamicContext, args):
    if args:
        value = _optional_atomic(args[0])
    else:
        item = ctx.require_context_item()
        value = atomize([item])[0] if atomize([item]) else None
    if value is None:
        return [atomic.double(math.nan)]
    try:
        return [atomic.cast(value, atomic.T_DOUBLE)]
    except CastError:
        # Only a failed *cast* means NaN (F&O 14.4.1.2); a programming
        # bug (TypeError, AttributeError, ...) must propagate.
        return [atomic.double(math.nan)]


@_register(FN_NS, "abs", 1, 1)
def _fn_abs(ctx, args):
    value = _optional_atomic(args[0])
    if value is None:
        return []
    value = _to_number(value)
    return [AtomicValue(value.type_name, abs(value.value))]


@_register(FN_NS, "floor", 1, 1)
def _fn_floor(ctx, args):
    value = _optional_atomic(args[0])
    if value is None:
        return []
    value = _to_number(value)
    return [AtomicValue(value.type_name, type(value.value)(
        math.floor(value.value)))]


@_register(FN_NS, "ceiling", 1, 1)
def _fn_ceiling(ctx, args):
    value = _optional_atomic(args[0])
    if value is None:
        return []
    value = _to_number(value)
    return [AtomicValue(value.type_name, type(value.value)(
        math.ceil(value.value)))]


@_register(FN_NS, "round", 1, 1)
def _fn_round(ctx, args):
    value = _optional_atomic(args[0])
    if value is None:
        return []
    value = _to_number(value)
    return [AtomicValue(value.type_name, type(value.value)(
        math.floor(float(value.value) + 0.5)))]


# ---------------------------------------------------------------------------
# fn: nodes
# ---------------------------------------------------------------------------

@_register(FN_NS, "data", 0, 1)
def _fn_data(ctx: DynamicContext, args):
    # The 0-argument form (data() over the context item) is an XPath 2.1
    # /DB2-ism the paper's §3.10 examples use.
    if args:
        return list(atomize(args[0]))
    return list(atomize([ctx.require_context_item()]))


@_register(FN_NS, "root", 0, 1)
def _fn_root(ctx: DynamicContext, args):
    if args:
        if not args[0]:
            return []
        item = singleton(args[0], "fn:root")
    else:
        item = ctx.require_context_item()
    if not isinstance(item, Node):
        raise XQueryTypeError("fn:root requires a node")
    return [item.root]


@_register(FN_NS, "name", 0, 1)
def _fn_name(ctx: DynamicContext, args):
    node = _node_argument(ctx, args)
    if node is None or node.name is None:
        return [atomic.string("")]
    return [atomic.string(node.name.lexical)]


@_register(FN_NS, "local-name", 0, 1)
def _fn_local_name(ctx: DynamicContext, args):
    node = _node_argument(ctx, args)
    if node is None or node.name is None:
        return [atomic.string("")]
    return [atomic.string(node.name.local)]


@_register(FN_NS, "namespace-uri", 0, 1)
def _fn_namespace_uri(ctx: DynamicContext, args):
    node = _node_argument(ctx, args)
    if node is None or node.name is None:
        return [atomic.string("")]
    return [atomic.string(node.name.uri)]


def _node_argument(ctx: DynamicContext, args) -> Node | None:
    if args:
        if not args[0]:
            return None
        item = singleton(args[0], "node function")
    else:
        item = ctx.require_context_item()
    if not isinstance(item, Node):
        raise XQueryTypeError("expected a node argument")
    return item


@_register(FN_NS, "deep-equal", 2, 2)
def _fn_deep_equal(ctx, args):
    return [atomic.boolean(deep_equal_sequences(args[0], args[1]))]


def deep_equal_sequences(left: list[Item], right: list[Item]) -> bool:
    if len(left) != len(right):
        return False
    return all(_deep_equal_items(a, b) for a, b in zip(left, right))


def _deep_equal_items(left: Item, right: Item) -> bool:
    left_is_node = isinstance(left, Node)
    if left_is_node != isinstance(right, Node):
        return False
    if not left_is_node:
        try:
            result = value_compare("eq", [left], [right])
        except XQueryTypeError:
            return False
        return bool(result and result[0].value)
    if left.kind != right.kind:
        return False
    if left.kind in ("text", "comment"):
        return left.string_value() == right.string_value()
    if left.kind == "processing-instruction":
        return (left.name == right.name and
                left.string_value() == right.string_value())
    if left.kind == "attribute":
        return (left.name == right.name and
                _deep_equal_items(left.typed_value()[0],
                                  right.typed_value()[0])
                if left.typed_value() and right.typed_value()
                else left.string_value() == right.string_value())
    if left.kind == "element":
        if left.name != right.name:
            return False
        left_attributes = {a.name: a.string_value() for a in left.attributes}
        right_attributes = {a.name: a.string_value()
                            for a in right.attributes}
        if left_attributes != right_attributes:
            return False
    left_children = [child for child in left.children
                     if child.kind in ("element", "text")]
    right_children = [child for child in right.children
                      if child.kind in ("element", "text")]
    return deep_equal_sequences(left_children, right_children)


# ---------------------------------------------------------------------------
# xs: constructor functions
# ---------------------------------------------------------------------------

def _make_constructor(type_name: str):
    def impl(ctx, args):
        value = _optional_atomic(args[0])
        if value is None:
            return []
        return [atomic.cast(value, type_name)]
    return impl


for _local, _type in atomic.XS_TYPES.items():
    if _type != atomic.T_ANY_ATOMIC:  # abstract: no constructor
        REGISTRY[(XS_NS, _local)] = FunctionDef(
            _local, 1, 1, _make_constructor(_type))

REGISTRY[(XDT_NS, "untypedAtomic")] = FunctionDef(
    "untypedAtomic", 1, 1, _make_constructor(atomic.T_UNTYPED))


@_register(FN_NS, "between", 3, 3)
def _fn_between(ctx, args):
    """fn:between($values, $low, $high) — the explicit between the
    paper's Section 4 asks the standards bodies for.

    True iff some *single* value in $values lies within [$low, $high]
    — i.e. both bounds apply to the same item, unlike the existential
    pair ``v > $low and v < $high``.  Untyped values are compared
    numerically when the bounds are numeric; values that fail to cast
    are skipped (consistent with general-comparison behaviour).
    """
    from ..errors import CastError

    low = _optional_atomic(args[1])
    high = _optional_atomic(args[2])
    if low is None or high is None:
        raise XQueryTypeError("fn:between requires singleton bounds")
    for value in atomize(args[0]):
        try:
            at_least = value_compare("ge", [value], [low])
            at_most = value_compare("le", [value], [high])
        except (XQueryTypeError, CastError):
            continue
        if (at_least and at_least[0].value and
                at_most and at_most[0].value):
            return [atomic.TRUE]
    return [atomic.FALSE]


# ---------------------------------------------------------------------------
# db2-fn:
# ---------------------------------------------------------------------------

@_register(DB2FN_NS, "xmlcolumn", 1, 1)
def _db2_xmlcolumn(ctx: DynamicContext, args):
    """Import an entire XML column as a sequence of document nodes."""
    reference = _one_string(args)
    if ctx.database is None:
        raise XQueryDynamicError(
            "db2-fn:xmlcolumn requires a database-bound context")
    return ctx.database.xmlcolumn(reference, stats=ctx.stats)


@_register(DB2FN_NS, "sqlquery", 1, 1)
def _db2_sqlquery(ctx: DynamicContext, args):
    """Run an SQL fullselect returning one XML column; yields its items."""
    statement = _one_string(args)
    if ctx.database is None:
        raise XQueryDynamicError(
            "db2-fn:sqlquery requires a database-bound context")
    return ctx.database.sqlquery_items(statement)
