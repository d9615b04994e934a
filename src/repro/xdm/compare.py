"""XQuery comparison semantics: value, general, and node comparisons.

Two rule sets matter enormously for index eligibility (Section 3.1):

* **Value comparisons** (``eq ne lt le gt ge``) require singleton
  operands and treat ``xdt:untypedAtomic`` as ``xs:string``.  Their
  singleton requirement is what makes them safe "between" building
  blocks (Section 3.10).
* **General comparisons** (``= != < <= > >=``) are *existential* over
  the two atomized sequences, and convert untyped operands to the type
  of the other side (``double`` for numerics) — so ``@price > 100``
  is a numeric comparison, while ``@price > "100"`` is a string one
  (Query 3).

Unlike SQL (Section 3.3), trailing blanks are significant in string
comparisons, and there is no NULL: empty sequences make value
comparisons return the empty sequence and general comparisons false.
"""

from __future__ import annotations

from typing import Callable

from ..errors import CastError, XQueryTypeError
from .atomic import (AtomicValue, T_BOOLEAN, T_DATE, T_DATETIME, T_DOUBLE,
                     T_STRING, T_UNTYPED, boolean, cast,
                     promote_numeric_pair)
from .nodes import Node
from .sequence import Item, atomize

_OPS: dict[str, Callable[[object, object], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

#: general-comparison symbol -> value-comparison operator name
GENERAL_TO_VALUE = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}


def _align_for_value_comparison(left: AtomicValue, right: AtomicValue
                                ) -> tuple[AtomicValue, AtomicValue]:
    """Value-comparison typing for untyped operands.

    We follow DB2's documented behaviour (which the paper's examples
    assume): an untypedAtomic operand is cast to the *other* operand's
    type — ``price gt 100`` is numeric on untyped data, and
    ``id eq $pid`` with a VARCHAR-passed $pid is a string comparison
    (Query 13).  When both operands are untyped they compare as
    strings.  A failed cast raises err:FORG0001 — unlike general
    comparisons, value comparisons stay strict.
    """
    if left.type_name == T_UNTYPED and right.type_name == T_UNTYPED:
        return cast(left, T_STRING), cast(right, T_STRING)
    if left.type_name == T_UNTYPED:
        target = T_DOUBLE if right.is_numeric else right.type_name
        return cast(left, target), right
    if right.type_name == T_UNTYPED:
        target = T_DOUBLE if left.is_numeric else left.type_name
        return left, cast(right, target)
    return _align_typed_pair(left, right)


def _align_typed_pair(left: AtomicValue, right: AtomicValue
                      ) -> tuple[AtomicValue, AtomicValue]:
    if left.is_numeric and right.is_numeric:
        if T_DOUBLE in (left.type_name, right.type_name):
            # Do NOT promote the other operand to double for a
            # *comparison*: float(2**53 + 1) == float(2**53), so the
            # cast collapses distinct integers above 2**53.  Python
            # compares int/Decimal against float exactly, so keeping
            # the non-double side in its own type is both correct and
            # cheaper.  (Arithmetic still promotes — §3.6's documented
            # precision loss applies to computation, not comparison.)
            return left, right
        return promote_numeric_pair(left, right)
    if left.type_name == right.type_name:
        return left, right
    # xs:date vs xs:dateTime: promote the date.
    pair = {left.type_name, right.type_name}
    if pair == {T_DATE, T_DATETIME}:
        return cast(left, T_DATETIME), cast(right, T_DATETIME)
    raise XQueryTypeError(
        f"cannot compare {left.type_name} with {right.type_name}",
        code="XPTY0004")


def _compare_aligned(op: str, left: AtomicValue, right: AtomicValue) -> bool:
    compare = _OPS[op]
    left_value, right_value = left.value, right.value
    if left.type_name == T_DOUBLE or right.type_name == T_DOUBLE:
        # ``x != x`` is the NaN test that works for float and Decimal
        # alike — no ``float()`` coercion, so an exact integer operand
        # stays exact (values straddling 2**53 compare correctly).
        if left_value != left_value or right_value != right_value:
            return op == "ne"
        return compare(left_value, right_value)
    if left.type_name == T_BOOLEAN:
        return compare(bool(left_value), bool(right_value))
    if left.type_name in (T_DATE, T_DATETIME):
        try:
            return compare(left_value, right_value)
        except TypeError as exc:  # naive vs aware datetimes
            raise XQueryTypeError(
                f"cannot compare {left_value} with {right_value}: {exc}"
            ) from exc
    return compare(left_value, right_value)


def value_compare(op: str, left: list[Item], right: list[Item]
                  ) -> list[AtomicValue]:
    """``eq ne lt le gt ge`` — empty-propagating, singleton-requiring."""
    left_atoms = atomize(left)
    right_atoms = atomize(right)
    if not left_atoms or not right_atoms:
        return []
    if len(left_atoms) > 1 or len(right_atoms) > 1:
        raise XQueryTypeError(
            f"value comparison '{op}' requires singleton operands "
            f"({len(left_atoms)} vs {len(right_atoms)} items)",
            code="XPTY0004")
    aligned_left, aligned_right = _align_for_value_comparison(
        left_atoms[0], right_atoms[0])
    return [boolean(_compare_aligned(op, aligned_left, aligned_right))]


def _align_for_general_comparison(left: AtomicValue, right: AtomicValue
                                  ) -> tuple[AtomicValue, AtomicValue]:
    """General-comparison typing for untyped operands (XPath 2.0 3.5.2)."""
    if left.type_name == T_UNTYPED and right.type_name == T_UNTYPED:
        return cast(left, T_STRING), cast(right, T_STRING)
    if left.type_name == T_UNTYPED:
        target = T_DOUBLE if right.is_numeric else (
            T_STRING if right.type_name == T_STRING else right.type_name)
        return cast(left, target), right
    if right.type_name == T_UNTYPED:
        target = T_DOUBLE if left.is_numeric else (
            T_STRING if left.type_name == T_STRING else left.type_name)
        return left, cast(right, target)
    return _align_typed_pair(left, right)


def general_compare(symbol: str, left: list[Item], right: list[Item]) -> bool:
    """``= != < <= > >=`` — existentially quantified (Section 3.10).

    A pair whose *untyped* operand fails to cast to the comparison type
    (e.g. ``"20 USD" > 100``) counts as a non-match instead of raising.
    XQuery 1.0 §2.3.4 ("Errors and Optimization") explicitly permits
    this, and it is what makes numeric predicates usable over
    schema-flexible collections — precisely the behaviour the paper's
    Query 1/Query 3 discussion assumes: documents with non-numeric
    prices are silently not returned by a numeric predicate, and are
    absent from a DOUBLE index.  Pairs of *typed* incompatible values
    (string vs number) still raise XPTY0004.
    """
    return compare_atoms(GENERAL_TO_VALUE[symbol], atomize(left),
                         atomize(right))


def compare_atoms(op: str, left_atoms: list[AtomicValue],
                  right_atoms: list[AtomicValue]) -> bool:
    """:func:`general_compare` over atomized operands; ``op`` is the
    value-comparison name (``GENERAL_TO_VALUE[symbol]``)."""
    for left_atom in left_atoms:
        for right_atom in right_atoms:
            try:
                aligned = _align_for_general_comparison(left_atom,
                                                        right_atom)
            except CastError:
                if (left_atom.type_name == T_UNTYPED or
                        right_atom.type_name == T_UNTYPED):
                    continue
                raise
            if _compare_aligned(op, *aligned):
                return True
    return False


# ---------------------------------------------------------------------------
# Hash-join keys for ``=`` / ``eq``
# ---------------------------------------------------------------------------

#: Atom classes an operand's join key records (bit flags).  Operands
#: whose classes clash may *raise* instead of comparing false, so a hash
#: join must hand such pairs to the comparison itself.
KEY_STRING = 1        # typed xs:string
KEY_NUMBER = 2        # any numeric type
KEY_UNCASTABLE = 4    # untypedAtomic with no xs:double lexical form
KEY_OTHER = 8         # any other type; for ``eq`` also a non-singleton


def equality_keys(items: list[Item], general: bool, build: bool
                  ) -> tuple[set, int]:
    """Hash keys and atom classes of one operand of ``=`` (``general``)
    or ``eq``.

    The keys mirror the alignment rules above: an untyped atom compares
    as a string against strings and untyped atoms, and as a double
    against numbers; numbers compare by exact value (Python hashes int,
    Decimal and float consistently with ``==``, which is the comparison
    ``_compare_aligned`` makes).  Keys are tagged asymmetrically so that
    a ``build`` key of one operand equals a probe key (``build=False``)
    of the other exactly when some atom pair compares equal — two
    untyped atoms meet only as strings.  NaN has no key: it equals
    nothing.  Whenever :func:`keys_may_raise` is false for the two
    operands' classes, the comparison cannot raise and is true iff the
    key sets intersect.
    """
    atoms = atomize(items)
    keys: set = set()
    if not general and len(atoms) > 1:
        return keys, KEY_OTHER
    flags = 0
    for atom in atoms:
        name = atom.type_name
        if name == T_STRING:
            flags |= KEY_STRING
            keys.add(("s", atom.value))
        elif name == T_UNTYPED:
            keys.add(("s", atom.value))
            try:
                number = cast(atom, T_DOUBLE).value
            except XQueryTypeError:
                flags |= KEY_UNCASTABLE
                continue
            if number == number:
                keys.add(("u" if build else "n", number))
        elif atom.is_numeric:
            flags |= KEY_NUMBER
            number = atom.value
            if number == number:
                keys.add(("n", number))
                if not build:
                    keys.add(("u", number))
        else:
            flags |= KEY_OTHER
    return keys, flags


def keys_may_raise(left: int, right: int, general: bool) -> bool:
    """Can an ``=`` / ``eq`` comparison of operands with these
    :func:`equality_keys` classes raise rather than return?"""
    if (left | right) & KEY_OTHER:
        return True
    if (left & KEY_STRING and right & KEY_NUMBER
            or left & KEY_NUMBER and right & KEY_STRING):
        return True   # XPTY0004: typed string vs number
    # eq casts an untyped operand strictly (FORG0001); = skips the pair.
    return not general and bool(left & KEY_UNCASTABLE and right & KEY_NUMBER
                                or left & KEY_NUMBER
                                and right & KEY_UNCASTABLE)


def node_compare(op: str, left: list[Item], right: list[Item]
                 ) -> list[AtomicValue]:
    """``is``, ``<<``, ``>>`` — identity and document order."""
    if not left or not right:
        return []
    if len(left) != 1 or len(right) != 1:
        raise XQueryTypeError(
            f"node comparison '{op}' requires singleton operands")
    left_item, right_item = left[0], right[0]
    if not isinstance(left_item, Node) or not isinstance(right_item, Node):
        raise XQueryTypeError(f"node comparison '{op}' requires nodes")
    if op == "is":
        return [boolean(left_item.is_same_node(right_item))]
    left_key = left_item.document_order_key()
    right_key = right_item.document_order_key()
    if op == "<<":
        return [boolean(left_key < right_key)]
    if op == ">>":
        return [boolean(left_key > right_key)]
    raise XQueryTypeError(f"unknown node comparison {op!r}")
