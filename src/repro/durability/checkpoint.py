"""Atomic checkpoints: the catalog and data as one JSON document.

A checkpoint is the full logical state of the database — tables with
their typed columns and rows, registered (and per-document) schemas,
index *definitions*, and every stored document as one column segment —
written to a temp file, fsynced, and atomically renamed to
``checkpoint.json``.  Readers of the directory therefore always see
either the previous complete checkpoint or the new complete
checkpoint, never a partial one.

Two deliberate shape choices:

* **Indexes are not serialized.**  B+Trees are derived state; the
  checkpoint records each index's defining DDL (table, column,
  XMLPATTERN text, SQL type) and recovery replays the ``CREATE
  INDEX``, rebuilding the tree from the recovered documents' columns.
  That keeps the checkpoint small and immune to index-format drift.
* **Documents are stored columns, not text.**  Each XML value is its
  :class:`~repro.storage.segment.Segment` (``{"$seg", "$text"}``,
  CRC'd), whose names and namespace scopes index the checkpoint's one
  shared ``names`` / ``scopes`` tables; recovery *adopts* each segment
  (re-deriving post, level, path partitions and text offsets) and
  parses nothing.  ``recover --verify`` checks the adoption end to end
  by a round trip: materialize, serialize, parse back, compare the
  columns slot by slot.

Format 3 is the only one read; older checkpoints are a
:class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import DurabilityError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..storage.segment import SegmentTables, encode_document
from ..storage.table import StoredDocument
from . import fsio
from .codec import encode_schema, encode_value
from .faults import NO_FAULTS

__all__ = ["CHECKPOINT_NAME", "CheckpointInfo", "write_checkpoint",
           "load_checkpoint"]

CHECKPOINT_NAME = "checkpoint.json"
FORMAT_VERSION = 3


@dataclass(frozen=True)
class CheckpointInfo:
    """What a completed checkpoint covers."""

    last_lsn: int
    tables: int
    rows: int
    bytes_written: int


def encode_database(database, last_lsn: int) -> dict:
    """The checkpoint document for the database's current state — also
    what a process pool ships to bootstrap its replicas.

    Caller holds the exclusive write lock (a pool: the shared one,
    which excludes writers too), so the traversal sees one consistent
    version.  No document is materialized: each is encoded from its
    columns."""
    segment_tables = SegmentTables()
    tables = []
    for table in database.tables.values():
        rows = []
        for row in table.rows:
            encoded_row = {}
            for column, value in row.values.items():
                if isinstance(value, StoredDocument):
                    encoded = encode_document(value.columns, segment_tables)
                    if value.schema_name is not None:
                        encoded["$schema"] = value.schema_name
                    encoded_row[column] = encoded
                else:
                    encoded_row[column] = encode_value(value)
            rows.append(encoded_row)
        tables.append({
            "name": table.name,
            "columns": [[column, str(sql_type)]
                        for column, sql_type in table.columns.items()],
            "rows": rows,
        })
    names, scopes = segment_tables.to_json()
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
        "names": names,
        "scopes": scopes,
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
