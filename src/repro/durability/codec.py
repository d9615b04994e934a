"""The record grammar: JSON encoding of values, schemas and records.

WAL records and checkpoints (a compacted log) are one grammar: each
record shape is built by one function at the end of this module and
applied by :mod:`repro.durability.recovery`.  The SQL value
domain (:mod:`repro.sql.values`) is JSON-native except for four cases,
which are tagged with single-key objects so decoding is unambiguous:

=============================  =======================================
``{"$d": "12.50"}``            ``decimal.Decimal`` (exact text form)
``{"$date": "2006-09-12"}``    ``datetime.date`` (ISO)
``{"$ts": "…T…"}``             ``datetime.datetime`` (ISO)
``{"$f": "nan" | "inf" …}``    non-finite floats (invalid JSON)
=============================  =======================================

A stored document is ``{"$seg": bytes}``: its column segment
(:func:`repro.storage.segment.encode_document`), raw in the frame.
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
from ..storage.segment import SegmentTables, encode_document
from ..storage.table import StoredDocument

__all__ = ["encode_value", "decode_value", "encode_schema",
           "decode_schema", "create_table_record", "schema_record",
           "xml_index_record", "relational_index_record",
           "encode_row", "insert_record"]


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


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def create_table_record(table) -> dict:
    return {"op": "create_table", "name": table.name,
            "columns": [[column, str(sql_type)]
                        for column, sql_type in table.columns.items()]}


def schema_record(schema: Schema) -> dict:
    return {"op": "register_schema", "schema": encode_schema(schema)}


def xml_index_record(index) -> dict:
    return {"op": "create_xml_index", "name": index.name,
            "table": index.table, "column": index.column,
            "pattern": index.pattern_text, "type": index.index_type}


def relational_index_record(index) -> dict:
    return {"op": "create_relational_index", "name": index.name,
            "table": index.table, "column": index.column}


def encode_row(row, tables: SegmentTables,
               documents: list | None = None) -> tuple[dict, dict]:
    """One row for :func:`insert_record`: its values encoded (each
    document read once, as a column segment indexing ``tables``, the
    record's or a checkpoint's) and, by column, the schema object that
    validated each document; ``documents`` gets a (document, tables)
    pair per segment, in order (see ``WriteAheadLog.append``)."""
    values: dict[str, object] = {}
    validated: dict[str, Schema] = {}
    for column, value in row.values.items():
        if isinstance(value, StoredDocument):
            values[column] = encode_document(value.columns, tables)
            if documents is not None:
                documents.append((value, tables))
            if value.schema is not None:
                validated[column] = value.schema
        else:
            values[column] = encode_value(value)
    return values, validated


def insert_record(schemas: dict, table: str, rows,
                  tables: SegmentTables | None = None) -> dict:
    """The record that inserts ``rows`` (:func:`encode_row` pairs) into
    ``table``, in order (the WAL logs one row per record, a checkpoint
    a batch; a WAL record carries the ``tables`` its segments index).
    A validated document names its schema as ``{"$ref":
    name}`` only while that very schema is the one ``schemas``
    registers under its name; otherwise as ``{"$inline": i}``, the
    record's ``inline`` list embedding each such schema once, so a
    later replacement cannot retype the document on replay."""
    inline: list[dict] = []
    positions: dict[int, int] = {}
    references = []
    for _values, validated in rows:
        entry: dict[str, dict] = {}
        for column, schema in validated.items():
            if schemas.get(schema.name) is schema:
                entry[column] = {"$ref": schema.name}
                continue
            if id(schema) not in positions:
                positions[id(schema)] = len(inline)
                inline.append(encode_schema(schema))
            entry[column] = {"$inline": positions[id(schema)]}
        references.append(entry)
    record = {"op": "insert", "table": table,
              "rows": [values for values, _validated in rows]}
    if tables is not None:
        record["names"], record["scopes"] = tables.to_json()
    if any(references):
        record["schemas"] = references
    if inline:
        record["inline"] = inline
    return record
