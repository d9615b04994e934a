"""XQuery comparison semantics: value, general, and node comparisons.

**The promotion rule.**  Two atomic operands compare in the one type
:func:`comparison_type` gives them (XQuery 1.0 B.2):

* an untyped operand takes the other operand's type — xs:double
  against a number, and two untyped operands compare as strings;
* an integer or decimal meeting a double compares as a double; integers
  and decimals among themselves compare exactly;
* an xs:date meeting an xs:dateTime compares as a dateTime;
* any other pair of distinct types raises XPTY0004.

:func:`promote` converts a value into that type.  Value and general
comparisons, the hash-join keys (:func:`equality_keys`) and both XML
index key paths (``XmlIndex.key_for_value`` and the keys it stores) all
call it, so a DOUBLE index holds exactly the doubles a scan compares:
``@price > 149.87`` compares the attribute and the literal as doubles
on every route (Definition 1).  Integers above 2**53 therefore collide
with their nearest double, the hazard the paper's §3.6 item 2 names.

Two rule sets matter enormously for index eligibility (Section 3.1):

* **Value comparisons** (``eq ne lt le gt ge``) require singleton
  operands, and a failed cast of an untyped operand raises FORG0001.
  Their singleton requirement is what makes them safe "between"
  building blocks (Section 3.10).
* **General comparisons** (``= != < <= > >=``) are *existential* over
  the two atomized sequences — so ``@price > 100`` is a numeric
  comparison, while ``@price > "100"`` is a string one (Query 3).

Unlike SQL (Section 3.3), trailing blanks are significant in string
comparisons, and there is no NULL: empty sequences make value
comparisons return the empty sequence and general comparisons false.
"""

from __future__ import annotations

import datetime
import operator
from typing import Callable

from ..errors import CastError, XQueryTypeError
from .atomic import (NUMERIC_TYPES, AtomicValue, T_DATE, T_DATETIME,
                     T_DOUBLE, T_STRING, T_UNTYPED, boolean, cast,
                     numeric_type, parse_double)
from .nodes import Node
from .sequence import Item, atomize

#: operator -> its test on promoted values (C functions, so
#: ``map(test, values, repeat(fixed))`` runs a column without a Python
#: frame per value).
_OPS: dict[str, Callable[[object, object], bool]] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

_UTC = datetime.timezone.utc

#: general-comparison symbol -> value-comparison operator name
GENERAL_TO_VALUE = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}

#: operator -> the operator with its operands swapped (``a < b`` is
#: ``b > a``).
MIRRORED = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge", "gt": "lt",
            "ge": "le"}


def comparison_type(left: str, right: str) -> str:
    """The type operands of types ``left`` and ``right`` compare as —
    the promotion rule of the module docstring."""
    if left == right:
        return left
    if left == T_UNTYPED:
        return T_DOUBLE if right in NUMERIC_TYPES else right
    if right == T_UNTYPED:
        return T_DOUBLE if left in NUMERIC_TYPES else left
    if left in NUMERIC_TYPES and right in NUMERIC_TYPES:
        return numeric_type(left, right)
    if {left, right} == {T_DATE, T_DATETIME}:
        return T_DATETIME
    raise XQueryTypeError(f"cannot compare {left} with {right}",
                          code="XPTY0004")


def promote(value: AtomicValue, target: str):
    """``value``'s Python value as type ``target`` (raises CastError);
    with ``target`` a :func:`comparison_type`, the value the comparison
    sees.  A dateTime is normalized to naive UTC: one without a
    timezone is taken as UTC (the implicit timezone), so zoned and
    unzoned values compare instead of raising."""
    source = value.type_name
    if source == target or source == T_UNTYPED and target == T_STRING:
        promoted = value.value
    elif source == T_UNTYPED and target == T_DOUBLE:
        return parse_double(value.value)
    else:
        promoted = cast(value, target).value
    if target == T_DATETIME and promoted.tzinfo is not None:
        return promoted.astimezone(_UTC).replace(tzinfo=None)
    return promoted


def _promote_pair(left: AtomicValue, right: AtomicValue) -> tuple:
    target = comparison_type(left.type_name, right.type_name)
    return promote(left, target), promote(right, target)


def _holds(compare, left, right) -> bool:
    try:
        return compare(left, right)
    except TypeError as exc:  # naive vs aware dateTimes
        raise XQueryTypeError(
            f"cannot compare {left} with {right}: {exc}") from exc


def value_compare(op: str, left: list[Item], right: list[Item]
                  ) -> list[AtomicValue]:
    """``eq ne lt le gt ge`` — empty-propagating, singleton-requiring.

    We follow DB2's documented behaviour (which the paper's examples
    assume): an untyped operand takes the other operand's type, so
    ``price gt 100`` is numeric on untyped data and ``id eq $pid`` with
    a VARCHAR-passed $pid is a string comparison (Query 13).
    """
    left_atoms = atomize(left)
    right_atoms = atomize(right)
    if not left_atoms or not right_atoms:
        return []
    if len(left_atoms) > 1 or len(right_atoms) > 1:
        raise XQueryTypeError(
            f"value comparison '{op}' requires singleton operands "
            f"({len(left_atoms)} vs {len(right_atoms)} items)",
            code="XPTY0004")
    return [boolean(_holds(_OPS[op], *_promote_pair(left_atoms[0],
                                                     right_atoms[0])))]


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
    compare = _OPS[op]
    for left_atom in left_atoms:
        for right_atom in right_atoms:
            try:
                left_value, right_value = _promote_pair(left_atom,
                                                        right_atom)
            except CastError:
                if (left_atom.type_name == T_UNTYPED or
                        right_atom.type_name == T_UNTYPED):
                    continue
                raise
            if _holds(compare, left_value, right_value):
                return True
    return False


def compare_with(op: str, constant: AtomicValue
                 ) -> Callable[[list[AtomicValue]], bool]:
    """``compare_atoms(op, atoms, [constant])`` as a function of
    ``atoms``.  ``constant`` is promoted once, here, for the untyped
    atoms (node values) that make up almost every operand; other atoms
    take the general path."""
    compare = _OPS[op]
    target = comparison_type(T_UNTYPED, constant.type_name)
    fixed = promote(constant, target)

    def test(atoms: list[AtomicValue]) -> bool:
        for atom in atoms:
            if atom.type_name == T_UNTYPED:
                try:
                    value = promote(atom, target)
                except CastError:
                    continue
                if _holds(compare, value, fixed):
                    return True
            elif compare_atoms(op, [atom], [constant]):
                return True
        return False
    return test


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

#: Class of a build atom's double key ("d" double, "n" integer or
#: decimal, "u" untyped) -> the build classes a probe atom of that class
#: meets as doubles: every pair but two integers/decimals (compared
#: exactly) and two untyped atoms (compared as strings).
_MEETS_AS_DOUBLE = {"d": ("d", "n", "u"), "n": ("d", "u"), "u": ("d", "n")}


def equality_keys(items: list[Item], general: bool, build: bool
                  ) -> tuple[set, int]:
    """Hash keys and atom classes of one operand of ``=`` (``general``)
    or ``eq``.

    The keys follow the promotion rule: each atom's key is its
    :func:`promote`-d value in the type a pair compares as — a string
    for strings and untyped atoms, the exact value between integers and
    decimals, a double in every other numeric or untyped pair (Python
    hashes int, Decimal and float consistently with ``==``).  Keys are
    tagged asymmetrically so that a ``build`` key of one operand equals
    a probe key (``build=False``) of the other exactly when some atom
    pair compares equal.  NaN has no key: it equals nothing.  Whenever
    :func:`keys_may_raise` is false for the two operands' classes, the
    comparison cannot raise and is true iff the key sets intersect.
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
            continue
        if name == T_UNTYPED:
            keys.add(("s", atom.value))
            try:
                number = promote(atom, T_DOUBLE)
            except CastError:
                flags |= KEY_UNCASTABLE
                continue
            kind = "u"
        elif name == T_DOUBLE:
            flags |= KEY_NUMBER
            number, kind = atom.value, "d"
        elif name in NUMERIC_TYPES:
            flags |= KEY_NUMBER
            keys.add(("e", atom.value))  # exact against integer/decimal
            number, kind = promote(atom, T_DOUBLE), "n"
        else:
            flags |= KEY_OTHER
            continue
        if number != number:  # NaN equals nothing
            continue
        if build:
            keys.add((kind, number))
        else:
            keys.update((partner, number)
                        for partner in _MEETS_AS_DOUBLE[kind])
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
