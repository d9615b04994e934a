"""Atomic checkpoints: the catalog and data as one JSON document.

A checkpoint is the full logical state of the database — tables with
their typed columns and rows, registered (and per-document) schemas,
index *definitions*, and per-document path-table shapes — written to
a temp file, fsynced, and atomically renamed to ``checkpoint.json``.
Readers of the directory therefore always see either the previous
complete checkpoint or the new complete checkpoint, never a partial
one.

Two deliberate shape choices:

* **Indexes are not serialized.**  B+Trees are derived state; the
  checkpoint records each index's defining DDL (table, column,
  XMLPATTERN text, SQL type) and recovery replays the ``CREATE
  INDEX``, rebuilding the tree from the recovered documents.  That
  keeps the checkpoint small and immune to index-format drift.
* **Path tables are persisted as counts, not slot lists.**  Recovery
  parses each document's text straight into columns, path partitions
  included.  The top-level ``paths`` is one
  :class:`~repro.storage.columnar.PathTable` of every document's
  paths; each document's ``$paths`` is its path counts as sorted
  ``[path row, count]`` pairs, which ``recover --verify`` compares
  against the path tables the parse built — an end-to-end integrity
  oracle over serialize → parse into columns.

XML column values are serialized with :func:`repro.xmlio.serializer.
serialize`; the round-trip property test in
``tests/property/test_xml_roundtrip.py`` is what makes that a safe
persistence format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import DurabilityError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..storage.columnar import PathTable
from ..storage.table import StoredDocument
from ..xmlio.serializer import serialize
from . import fsio
from .codec import encode_schema, encode_value
from .faults import NO_FAULTS

__all__ = ["CHECKPOINT_NAME", "CheckpointInfo", "write_checkpoint",
           "load_checkpoint"]

CHECKPOINT_NAME = "checkpoint.json"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class CheckpointInfo:
    """What a completed checkpoint covers."""

    last_lsn: int
    tables: int
    rows: int
    bytes_written: int


def encode_database(database, last_lsn: int, *,
                    ship_columns: bool = False) -> dict:
    """The checkpoint document for the database's current state.

    Caller holds the exclusive write lock, so the traversal sees one
    consistent version.

    ``ship_columns=True`` additionally embeds each document's columnar
    payload (``$columns``) next to its canonical text.  This is the
    *replica shipping* variant (see :mod:`repro.parallel.pool`):
    followers rebuild trees directly from the columns — one
    materialization pass, no re-parse, no summary walk — with the
    primary's node ids preserved.  Disk checkpoints never set it, so
    the on-disk format bytes are unchanged."""
    paths = PathTable()
    tables = []
    for table in database.tables.values():
        rows = []
        for row in table.rows:
            encoded_row = {}
            for column, value in row.values.items():
                if isinstance(value, StoredDocument):
                    document = value.document
                    store = value.columns
                    paths.add(store.paths)
                    encoded_row[column] = {
                        "$xml": serialize(document),
                        "$schema": value.schema_name,
                        "$paths": sorted(
                            [paths.index[path], count]
                            for path, count in store.path_counts().items()),
                    }
                    if ship_columns:
                        encoded_row[column]["$columns"] = store.to_payload()
                else:
                    encoded_row[column] = encode_value(value)
            rows.append(encoded_row)
        tables.append({
            "name": table.name,
            "columns": [[column, str(sql_type)]
                        for column, sql_type in table.columns.items()],
            "rows": rows,
        })
    schemas = [dict(encode_schema(schema), registered=True)
               for schema in database.schemas.values()]
    noted = getattr(database, "_doc_schemas", {})
    schemas.extend(dict(encode_schema(schema), registered=False)
                   for name, schema in noted.items()
                   if name not in database.schemas)
    return {
        "format": FORMAT_VERSION,
        "last_lsn": last_lsn,
        "index_order": database.index_order,
        "paths": paths.rows,
        "tables": tables,
        "schemas": schemas,
        "xml_indexes": [
            {"name": index.name, "table": index.table,
             "column": index.column, "pattern": index.pattern_text,
             "type": index.index_type}
            for index in database.xml_indexes.values()],
        "rel_indexes": [
            {"name": index.name, "table": index.table,
             "column": index.column}
            for index in database.rel_indexes.values()],
    }


# sa: ok(SA403: the checkpoint serializes state under the writer lock
# so the snapshot and its LSN agree; that is the whole protocol)
def write_checkpoint(database, directory, last_lsn: int, *,
                     faults=NO_FAULTS, tracer=None) -> CheckpointInfo:
    """Serialize, write-temp, fsync, rename: the atomic protocol.

    The WAL reset that completes a checkpoint is the caller's step
    (``DurableDatabase.checkpoint``) so its crash points wrap the
    actual truncation."""
    state = encode_database(database, last_lsn)
    data = json.dumps(state, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    destination = directory / CHECKPOINT_NAME
    temp = directory / (CHECKPOINT_NAME + ".tmp")
    tracer = tracer or NULL_TRACER
    with tracer.span("checkpoint.write", lsn=last_lsn, bytes=len(data)):
        fsio.write_bytes(temp, data)
        faults.crash_point("checkpoint.before_tmp_fsync")
        fsio.fsync_path(temp)
        faults.crash_point("checkpoint.after_tmp_fsync")
        faults.crash_point("checkpoint.before_rename")
        fsio.replace(temp, destination)
        fsio.fsync_dir(directory)
        faults.crash_point("checkpoint.after_rename")
    rows = sum(len(table["rows"]) for table in state["tables"])
    if METRICS.enabled:
        METRICS.inc("checkpoint.writes")
        METRICS.inc("checkpoint.bytes_written", len(data))
    return CheckpointInfo(last_lsn=last_lsn, tables=len(state["tables"]),
                          rows=rows, bytes_written=len(data))


def load_checkpoint(directory) -> dict | None:
    """The checkpoint document, or None for a fresh directory.

    A leftover ``checkpoint.json.tmp`` (crash between write and
    rename) is ignorable garbage: the rename never happened, so the
    previous checkpoint — or none — is still the truth."""
    path = directory / CHECKPOINT_NAME
    if not fsio.exists(path):
        return None
    try:
        state = json.loads(fsio.read_bytes(path).decode("utf-8"))
    except ValueError as error:
        raise DurabilityError(
            f"{path}: corrupt checkpoint: {error}") from error
    if state.get("format") != FORMAT_VERSION:
        raise DurabilityError(
            f"{path}: unsupported checkpoint format "
            f"{state.get('format')!r}")
    if METRICS.enabled:
        METRICS.inc("checkpoint.loads")
    return state
