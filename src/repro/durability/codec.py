"""JSON encoding of SQL values and schemas.

WAL records and checkpoints share one value codec.  The SQL value
domain (:mod:`repro.sql.values`) is JSON-native except for four cases,
which are tagged with single-key objects so decoding is unambiguous:

=============================  =======================================
``{"$d": "12.50"}``            ``decimal.Decimal`` (exact text form)
``{"$date": "2006-09-12"}``    ``datetime.date`` (ISO)
``{"$ts": "…T…"}``             ``datetime.datetime`` (ISO)
``{"$f": "nan" | "inf" …}``    non-finite floats (invalid JSON)
=============================  =======================================

A stored document is an object keyed ``$seg`` and ``$text``: its column
segment (:func:`repro.storage.segment.encode_document`).
Plain strings never collide with tags (tags are objects), and finite
floats/ints/bools/None pass through as JSON scalars.  Decoded scalars
re-enter the engine through ``Table.new_row``'s ``coerce_to_type``,
which is idempotent on already-coerced values.
"""

from __future__ import annotations

import datetime
import decimal
import math

from ..errors import DurabilityError
from ..schema.schema import Schema, TypeDeclaration

__all__ = ["encode_value", "decode_value", "encode_schema",
           "decode_schema"]


def encode_value(value):
    """A non-XML SQL value → its JSON-safe form."""
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {"$f": "nan"}
        return {"$f": "inf" if value > 0 else "-inf"}
    if isinstance(value, str):
        return value
    if isinstance(value, decimal.Decimal):
        return {"$d": str(value)}
    if isinstance(value, datetime.datetime):
        return {"$ts": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    raise DurabilityError(
        f"cannot encode value of type {type(value).__name__} "
        f"in a WAL record")


def decode_value(obj):
    """Inverse of :func:`encode_value` for non-XML scalars."""
    if not isinstance(obj, dict):
        return obj
    if "$d" in obj:
        return decimal.Decimal(obj["$d"])
    if "$date" in obj:
        return datetime.date.fromisoformat(obj["$date"])
    if "$ts" in obj:
        return datetime.datetime.fromisoformat(obj["$ts"])
    if "$f" in obj:
        return float(obj["$f"])
    raise DurabilityError(f"unknown tagged value {sorted(obj)!r}")


def encode_schema(schema: Schema) -> dict:
    return {
        "name": schema.name,
        "strict": schema.strict,
        "declarations": [[decl.path, decl.type_name, decl.is_list]
                         for decl in schema.declarations],
    }


def decode_schema(obj: dict) -> Schema:
    return Schema(
        obj["name"],
        [TypeDeclaration(path, type_name, is_list)
         for path, type_name, is_list in obj["declarations"]],
        strict=obj["strict"])
