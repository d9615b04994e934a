"""SQL value domain and comparison semantics.

The SQL side differs from XQuery in exactly the ways Sections 3.3 and
3.6 call out, and this module is where those differences live:

* SQL string comparison ignores trailing blanks (``'a' = 'a  '`` is
  TRUE); XQuery's codepoint comparison does not.
* SQL has NULL and three-valued logic; XQuery has empty sequences.
* SQL values are strongly typed; there is no untypedAtomic.

An SQL value is one of: ``None`` (NULL), ``bool``, ``int``,
``decimal.Decimal``, ``float``, ``str``, ``datetime.date``,
``datetime.datetime``, or :class:`XMLValue` (a wrapped XDM sequence).
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from decimal import Decimal

from ..errors import SQLError
from ..xdm.sequence import Item

_TYPE_RE = re.compile(
    r"^\s*([A-Za-z ]+?)\s*(?:\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\))?\s*$")

_KNOWN_TYPES = {"INTEGER", "INT", "BIGINT", "DOUBLE", "DECIMAL", "NUMERIC",
                "VARCHAR", "CHAR", "DATE", "TIMESTAMP", "XML", "BOOLEAN"}


@dataclass(frozen=True)
class SQLType:
    """A parsed SQL type with optional length/precision."""

    name: str
    length: int | None = None
    scale: int | None = None

    @classmethod
    def parse(cls, text: str) -> "SQLType":
        match = _TYPE_RE.match(text)
        if not match:
            raise SQLError(f"malformed SQL type {text!r}", "42601")
        name = match.group(1).upper()
        if name == "INT":
            name = "INTEGER"
        if name == "NUMERIC":
            name = "DECIMAL"
        if name not in _KNOWN_TYPES:
            raise SQLError(f"unknown SQL type {text!r}", "42601")
        length = int(match.group(2)) if match.group(2) else None
        scale = int(match.group(3)) if match.group(3) else None
        return cls(name, length, scale)

    def __str__(self) -> str:
        if self.length is not None and self.scale is not None:
            return f"{self.name}({self.length},{self.scale})"
        if self.length is not None:
            return f"{self.name}({self.length})"
        return self.name

    @property
    def is_xml(self) -> bool:
        return self.name == "XML"

    @property
    def is_string(self) -> bool:
        return self.name in ("VARCHAR", "CHAR")

    @property
    def is_numeric(self) -> bool:
        return self.name in ("INTEGER", "BIGINT", "DOUBLE", "DECIMAL")


@dataclass
class XMLValue:
    """An SQL value of type XML: an XQuery data model sequence."""

    items: list[Item]

    def __bool__(self) -> bool:
        return bool(self.items)


def coerce_to_type(value, sql_type: SQLType):
    """Coerce a Python value into the column's SQL type (for INSERT).

    A value the type cannot hold raises :class:`SQLError` with SQLSTATE
    ``22018`` (a ``22001`` when a string is too long)."""
    if value is None:
        return None
    name = sql_type.name
    if name in ("VARCHAR", "CHAR"):
        text = str(value)
        if sql_type.length is not None and len(text) > sql_type.length:
            raise SQLError(
                f"value {text!r} too long for {sql_type}", "22001")
        return text
    if name == "BOOLEAN":
        return bool(value)
    try:
        if name in ("INTEGER", "BIGINT"):
            return int(value)
        if name == "DOUBLE":
            return float(value)
        if name == "DECIMAL":
            result = Decimal(str(value))
            if sql_type.scale is not None:
                result = result.quantize(
                    Decimal(1).scaleb(-sql_type.scale))
            return result
        if name == "DATE":
            if isinstance(value, _dt.date) and \
                    not isinstance(value, _dt.datetime):
                return value
            return _dt.date.fromisoformat(str(value))
        if name == "TIMESTAMP":
            if isinstance(value, _dt.datetime):
                return value
            return _dt.datetime.fromisoformat(str(value))
    # ArithmeticError covers decimal.InvalidOperation and int(inf).
    except (ValueError, TypeError, ArithmeticError) as error:
        raise SQLError(f"cannot cast {value!r} to {sql_type}: {error}",
                       "22018") from error
    raise SQLError(f"cannot coerce into {sql_type}", "42846")


def sql_equality_key(value) -> tuple[str, object]:
    """(class, key) of one operand of an SQL ``=``, for hash joins.

    Two operands of one class ``"s"`` (strings, trailing blanks
    dropped), ``"b"`` (booleans) or ``"v"`` (numbers, dates,
    timestamps) compare equal under :func:`sql_compare` exactly when
    their keys are equal; a key of None (NaN) equals nothing.  Operands
    of different classes make :func:`sql_compare` raise, and so may
    class ``"x"`` (XML values, anything else); class ``"null"`` compares
    UNKNOWN.
    """
    if value is None:
        return "null", None
    if isinstance(value, str):
        return "s", value.rstrip(" ")
    if isinstance(value, bool):
        return "b", value
    if isinstance(value, Decimal) and value.is_nan():
        return "x", None
    if isinstance(value, (int, float, Decimal, _dt.date)):
        return "v", (value if value == value else None)
    return "x", None


def sql_compare(op: str, left, right) -> bool | None:
    """SQL scalar comparison with three-valued logic (None = UNKNOWN).

    String operands use padded semantics: trailing blanks are ignored —
    unlike XQuery (Section 3.3).
    """
    if left is None or right is None:
        return None
    if isinstance(left, XMLValue) or isinstance(right, XMLValue):
        raise SQLError("XML values cannot be compared with SQL "
                       "operators; use XMLEXISTS or XMLCAST", "42818")
    if isinstance(left, str) and isinstance(right, str):
        left = left.rstrip(" ")
        right = right.rstrip(" ")
    elif isinstance(left, str) != isinstance(right, str):
        raise SQLError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}", "42818")
    if isinstance(left, bool) != isinstance(right, bool):
        raise SQLError("cannot compare BOOLEAN with non-BOOLEAN", "42818")
    if op == "=":
        return left == right
    if op in ("<>", "!="):
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SQLError(f"unknown comparison operator {op!r}", "42601")


def normalize_key(value):
    """Normalize an SQL scalar into a B+Tree key (padded strings)."""
    if isinstance(value, str):
        return value.rstrip(" ")
    if isinstance(value, bool):
        return int(value)
    return value
