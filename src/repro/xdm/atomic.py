"""Atomic values of the XQuery Data Model and the casting lattice.

The repertoire covers every type the paper exercises:

* ``xs:string`` and ``xdt:untypedAtomic`` — the §3.1 distinction between
  string predicates (``"100"``) and numeric ones (``100``);
* ``xs:double``, ``xs:decimal``, ``xs:integer``, ``xs:long`` — the §3.6
  long-integer pitfall: an integer meeting a double (or an untyped
  operand, which becomes a double) is converted to double and loses
  precision above 2**53, in comparisons as in arithmetic;
* ``xs:boolean`` — the XMLEXISTS pitfall of Query 9;
* ``xs:date`` / ``xs:dateTime`` — the two temporal index types of §2.1.

Casting follows the XPath 2.0 casting table restricted to these types.
:data:`TYPES` is the one table of what each type means elsewhere: its
comparison category and the XML index type whose keys it meets.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from decimal import Decimal, InvalidOperation

from ..errors import CastError, XQueryTypeError

# Canonical type names, used as dictionary keys throughout the engine.
T_STRING = "xs:string"
T_UNTYPED = "xdt:untypedAtomic"
T_DOUBLE = "xs:double"
T_DECIMAL = "xs:decimal"
T_INTEGER = "xs:integer"
T_LONG = "xs:long"
T_BOOLEAN = "xs:boolean"
T_DATE = "xs:date"
T_DATETIME = "xs:dateTime"
T_QNAME = "xs:QName"
T_ANY_ATOMIC = "xdt:anyAtomicType"

#: type -> base type, for subtype checks (integer ⊆ decimal, etc.).
_BASE_TYPE = {
    T_LONG: T_INTEGER,
    T_INTEGER: T_DECIMAL,
    T_DECIMAL: T_ANY_ATOMIC,
    T_DOUBLE: T_ANY_ATOMIC,
    T_STRING: T_ANY_ATOMIC,
    T_UNTYPED: T_ANY_ATOMIC,
    T_BOOLEAN: T_ANY_ATOMIC,
    T_DATE: T_ANY_ATOMIC,
    T_DATETIME: T_ANY_ATOMIC,
    T_QNAME: T_ANY_ATOMIC,
}


# ---------------------------------------------------------------------------
# The type table
# ---------------------------------------------------------------------------

#: xs:/xdt: local name -> canonical type: the constructor functions
#: (``xs:double(...)``) and the ``cast as`` / ``castable as`` targets.
XS_TYPES = {
    "string": T_STRING, "double": T_DOUBLE, "float": T_DOUBLE,
    "decimal": T_DECIMAL, "integer": T_INTEGER, "int": T_INTEGER,
    "long": T_LONG, "boolean": T_BOOLEAN, "date": T_DATE,
    "dateTime": T_DATETIME, "untypedAtomic": T_UNTYPED,
    "anyAtomicType": T_ANY_ATOMIC,
}

#: canonical type -> (§3.1 comparison category, the §2.1 XML index type
#: whose keys a comparison against the type meets, or None).  Types of
#: one category (and xs:date with xs:dateTime) compare with each other
#: after :func:`repro.xdm.compare.comparison_type` promotes them; types
#: not listed (untyped, ⊤) have category ``any``: they take the other
#: operand's type.
TYPES = {
    T_DOUBLE: ("numeric", "DOUBLE"),
    T_DECIMAL: ("numeric", "DOUBLE"),
    T_INTEGER: ("numeric", "DOUBLE"),
    T_LONG: ("numeric", "DOUBLE"),
    T_STRING: ("string", "VARCHAR"),
    T_BOOLEAN: ("boolean", None),
    T_DATE: ("date", "DATE"),
    T_DATETIME: ("dateTime", "TIMESTAMP"),
    T_QNAME: ("QName", None),
}

NUMERIC_TYPES = frozenset(type_name for type_name, (kind, _index)
                          in TYPES.items() if kind == "numeric")

#: XML index type -> the type of its keys: the first type listed for it
#: in :data:`TYPES`, the one every other type listed for it promotes to.
INDEX_KEY_TYPES = {index: type_name for type_name, (_category, index)
                   in reversed(TYPES.items()) if index is not None}

#: SQL scalar type -> the atomic type its values take in XQuery: the
#: cast behind ``XMLCAST(... AS type)`` and the comparison type of a
#: SQL-typed ``PASSING`` operand.
SQL_TYPES = {
    "VARCHAR": T_STRING, "CHAR": T_STRING, "INTEGER": T_INTEGER,
    "BIGINT": T_INTEGER, "DOUBLE": T_DOUBLE, "DECIMAL": T_DECIMAL,
    "DATE": T_DATE, "TIMESTAMP": T_DATETIME, "BOOLEAN": T_BOOLEAN,
}


def category(type_name: str) -> str:
    """The §3.1 comparison category of a type (``any`` if unlisted)."""
    entry = TYPES.get(type_name)
    return "any" if entry is None else entry[0]


def index_type(type_name: str | None) -> str | None:
    """The XML index type a comparison against ``type_name`` needs."""
    entry = TYPES.get(type_name)
    return None if entry is None else entry[1]


def is_subtype(type_name: str, of: str) -> bool:
    """True when ``type_name`` equals ``of`` or derives from it."""
    current: str | None = type_name
    while current is not None:
        if current == of:
            return True
        current = _BASE_TYPE.get(current)
    return of == T_ANY_ATOMIC and type_name in _BASE_TYPE


class AtomicValue:
    """An immutable atomic value with a type annotation.

    ``value`` holds the Python-native representation:

    =================  =======================================
    xs:string/untyped  str
    xs:double          float
    xs:decimal         decimal.Decimal
    xs:integer/long    int
    xs:boolean         bool
    xs:date            datetime.date
    xs:dateTime        datetime.datetime
    =================  =======================================
    """

    __slots__ = ("type_name", "value")

    def __init__(self, type_name: str, value):
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AtomicValue is immutable")

    def __copy__(self) -> "AtomicValue":
        return self  # immutable

    def __deepcopy__(self, memo) -> "AtomicValue":
        return self  # immutable

    def __repr__(self) -> str:
        return f"{self.type_name}({self.string_value()!r})"

    def __eq__(self, other: object) -> bool:
        """Structural (Python-level) equality used by tests and dedup.

        XQuery comparison semantics live in :mod:`repro.xdm.compare`;
        this is deliberately strict: same type annotation, same value.
        """
        if not isinstance(other, AtomicValue):
            return NotImplemented
        return self.type_name == other.type_name and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.type_name, str(self.value)))

    # -- accessors ---------------------------------------------------

    def string_value(self) -> str:
        """The lexical (canonical-ish) string form of the value."""
        name = self.type_name
        if name in (T_STRING, T_UNTYPED):
            return self.value
        if name == T_BOOLEAN:
            return "true" if self.value else "false"
        if name == T_DOUBLE:
            return format_double(self.value)
        if name == T_DECIMAL:
            return format_decimal(self.value)
        if name in (T_INTEGER, T_LONG):
            return str(self.value)
        if name == T_DATE:
            return self.value.isoformat()
        if name == T_DATETIME:
            return format_datetime(self.value)
        if name == T_QNAME:
            return str(self.value)
        raise XQueryTypeError(f"no string value for {name}")

    @property
    def is_numeric(self) -> bool:
        return self.type_name in NUMERIC_TYPES

    @property
    def is_untyped(self) -> bool:
        return self.type_name == T_UNTYPED


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def string(value: str) -> AtomicValue:
    return AtomicValue(T_STRING, value)


def untyped(value: str) -> AtomicValue:
    return AtomicValue(T_UNTYPED, value)


def double(value: float) -> AtomicValue:
    return AtomicValue(T_DOUBLE, float(value))


def decimal(value) -> AtomicValue:
    return AtomicValue(T_DECIMAL, Decimal(value))


def integer(value: int) -> AtomicValue:
    return AtomicValue(T_INTEGER, int(value))


def long_integer(value: int) -> AtomicValue:
    return AtomicValue(T_LONG, int(value))


def boolean(value: bool) -> AtomicValue:
    return AtomicValue(T_BOOLEAN, bool(value))


def date(value: _dt.date) -> AtomicValue:
    return AtomicValue(T_DATE, value)


def date_time(value: _dt.datetime) -> AtomicValue:
    return AtomicValue(T_DATETIME, value)


TRUE = boolean(True)
FALSE = boolean(False)


# ---------------------------------------------------------------------------
# Lexical parsing / formatting
# ---------------------------------------------------------------------------

_DOUBLE_RE = re.compile(
    r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$|^[+-]?INF$|^NaN$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_DATE_RE = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})(Z|[+-]\d{2}:\d{2})?$")
_DATETIME_RE = re.compile(
    r"^(-?\d{4,})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?"
    r"(Z|[+-]\d{2}:\d{2})?$")


def format_double(value: float) -> str:
    """Serialize a double roughly per the XML Schema canonical form."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_decimal(value: Decimal) -> str:
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def format_datetime(value: _dt.datetime) -> str:
    text = value.isoformat()
    return text.replace("+00:00", "Z")


def _parse_timezone(token: str | None) -> _dt.tzinfo | None:
    if not token:
        return None
    if token == "Z":
        return _dt.timezone.utc
    sign = 1 if token[0] == "+" else -1
    hours, minutes = int(token[1:3]), int(token[4:6])
    return _dt.timezone(sign * _dt.timedelta(hours=hours, minutes=minutes))


def parse_date(text: str) -> _dt.date:
    match = _DATE_RE.match(text.strip())
    if not match:
        raise CastError(f"invalid xs:date literal {text!r}")
    year, month, day = int(match.group(1)), int(match.group(2)), int(match.group(3))
    try:
        return _dt.date(year, month, day)
    except ValueError as exc:
        raise CastError(f"invalid xs:date literal {text!r}: {exc}") from exc


def parse_date_time(text: str) -> _dt.datetime:
    match = _DATETIME_RE.match(text.strip())
    if not match:
        raise CastError(f"invalid xs:dateTime literal {text!r}")
    year, month, day = int(match.group(1)), int(match.group(2)), int(match.group(3))
    hour, minute, second = int(match.group(4)), int(match.group(5)), int(match.group(6))
    fraction = match.group(7)
    microsecond = int(round(float(fraction) * 1_000_000)) if fraction else 0
    tz = _parse_timezone(match.group(8))
    try:
        return _dt.datetime(year, month, day, hour, minute, second,
                            microsecond, tzinfo=tz)
    except ValueError as exc:
        raise CastError(f"invalid xs:dateTime literal {text!r}: {exc}") from exc


def parse_double(text: str) -> float:
    stripped = text.strip()
    if not _DOUBLE_RE.match(stripped):
        raise CastError(f"cannot cast {text!r} to xs:double")
    if stripped == "NaN":
        return math.nan
    if stripped.endswith("INF"):
        return math.inf if not stripped.startswith("-") else -math.inf
    return float(stripped)


def parse_boolean(text: str) -> bool:
    stripped = text.strip()
    if stripped in ("true", "1"):
        return True
    if stripped in ("false", "0"):
        return False
    raise CastError(f"cannot cast {text!r} to xs:boolean")


# ---------------------------------------------------------------------------
# Casting
# ---------------------------------------------------------------------------

#: Long range per XML Schema.
LONG_MIN, LONG_MAX = -(2 ** 63), 2 ** 63 - 1


def cast(value: AtomicValue, target: str) -> AtomicValue:
    """Cast ``value`` to atomic type ``target`` (raises CastError)."""
    source = value.type_name
    if source == target:
        return value

    # Everything casts to string / untypedAtomic via the string value.
    if target == T_STRING:
        return string(value.string_value())
    if target == T_UNTYPED:
        return untyped(value.string_value())

    # From string-ish sources: parse the lexical form.
    if source in (T_STRING, T_UNTYPED):
        return _cast_from_text(value.value, target)

    if target == T_DOUBLE:
        if value.is_numeric:
            try:
                return double(float(value.value))
            except OverflowError:  # an integer beyond the double range
                return double(math.inf if value.value > 0 else -math.inf)
        if source == T_BOOLEAN:
            return double(1.0 if value.value else 0.0)
        raise CastError(f"cannot cast {source} to xs:double")
    if target == T_DECIMAL:
        if source == T_DOUBLE:
            if math.isnan(value.value) or math.isinf(value.value):
                raise CastError("cannot cast NaN/INF to xs:decimal")
            return decimal(Decimal(repr(value.value)))
        if value.is_numeric:
            return decimal(Decimal(value.value))
        if source == T_BOOLEAN:
            return decimal(1 if value.value else 0)
        raise CastError(f"cannot cast {source} to xs:decimal")
    if target in (T_INTEGER, T_LONG):
        if source == T_DOUBLE:
            if math.isnan(value.value) or math.isinf(value.value):
                raise CastError("cannot cast NaN/INF to xs:integer")
            result = int(value.value)
        elif value.is_numeric:
            result = int(value.value)
        elif source == T_BOOLEAN:
            result = 1 if value.value else 0
        else:
            raise CastError(f"cannot cast {source} to {target}")
        if target == T_LONG and not LONG_MIN <= result <= LONG_MAX:
            raise CastError(f"{result} out of xs:long range")
        return AtomicValue(target, result)
    if target == T_BOOLEAN:
        if value.is_numeric:
            number = float(value.value)
            return boolean(not (number == 0 or math.isnan(number)))
        raise CastError(f"cannot cast {source} to xs:boolean")
    if target == T_DATETIME and source == T_DATE:
        base = value.value
        return date_time(_dt.datetime(base.year, base.month, base.day))
    if target == T_DATE and source == T_DATETIME:
        return date(value.value.date())
    raise CastError(f"cannot cast {source} to {target}")


def _cast_from_text(text: str, target: str) -> AtomicValue:
    stripped = text.strip()
    if target == T_DOUBLE:
        return double(parse_double(stripped))
    if target == T_DECIMAL:
        if not _DECIMAL_RE.match(stripped):
            raise CastError(f"cannot cast {text!r} to xs:decimal")
        try:
            return decimal(Decimal(stripped))
        except InvalidOperation as exc:
            raise CastError(f"cannot cast {text!r} to xs:decimal") from exc
    if target in (T_INTEGER, T_LONG):
        if not _INTEGER_RE.match(stripped):
            raise CastError(f"cannot cast {text!r} to {target}")
        result = int(stripped)
        if target == T_LONG and not LONG_MIN <= result <= LONG_MAX:
            raise CastError(f"{result} out of xs:long range")
        return AtomicValue(target, result)
    if target == T_BOOLEAN:
        return boolean(parse_boolean(stripped))
    if target == T_DATE:
        return date(parse_date(stripped))
    if target == T_DATETIME:
        return date_time(parse_date_time(stripped))
    raise CastError(f"cannot cast to unknown type {target}")


def castable(value: AtomicValue, target: str) -> bool:
    try:
        cast(value, target)
    except CastError:
        return False
    return True


def numeric_type(left: str, right: str) -> str:
    """The type two numeric types promote to (XQuery 1.0 B.2): double
    if either is, else decimal if either is, else integer."""
    if T_DOUBLE in (left, right):
        return T_DOUBLE
    if T_DECIMAL in (left, right):
        return T_DECIMAL
    return left if left == right else T_INTEGER


def promote_numeric_pair(left: AtomicValue, right: AtomicValue
                         ) -> tuple[AtomicValue, AtomicValue]:
    """Promote two numeric operands of an arithmetic operation to
    :func:`numeric_type`.  Mixing with xs:double converts both to
    double — the precision loss Section 3.6 (item 2) warns about."""
    if not (left.is_numeric and right.is_numeric):
        raise XQueryTypeError(
            f"numeric operation on {left.type_name} and {right.type_name}")
    target = numeric_type(left.type_name, right.type_name)
    return cast(left, target), cast(right, target)
