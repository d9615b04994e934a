"""Atomic checkpoints: the database as a compacted log.

A checkpoint is the database's state as the records the engine logs,
in the WAL's frames (same magic, header and CRC), written to a temp
file, fsynced and renamed to ``checkpoint.log``: readers see the old
checkpoint or the new one, never a mix.  The records, numbered 1, 2, …
in file order::

    checkpoint               last LSN, index order, shared names/scopes
    create_table …           every table with its typed columns
    register_schema …        the registered schemas
    insert …                 every row, in row order, batched
    create_xml_index …       index definitions: recovery builds each
    create_relational_index …  tree once, in bulk, over the rows

A document is its column segment (:mod:`repro.storage.segment`), whose
names and scopes index the header's shared tables; recovery adopts it
without parsing, and under a buffer pool the document points at it.
Recovery reads the file with :func:`~repro.durability.wal.scan_wal`
and replays it through the WAL's own apply.  Being renamed into place
whole, a checkpoint has no torn tail: a bad frame is a
:class:`~repro.errors.DurabilityError` naming the file, and so is a
``checkpoint.json`` (the older format, which has no reader).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import DurabilityError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..storage.segment import SegmentTables
from . import fsio
from .codec import (create_table_record, encode_row, insert_record,
                    relational_index_record, schema_record,
                    xml_index_record)
from .faults import NO_FAULTS
from .wal import (MAGIC, WalScan, encode_record, point_documents,
                  scan_wal)

__all__ = ["CHECKPOINT_NAME", "CheckpointInfo", "encode_database",
           "write_checkpoint", "load_checkpoint"]

CHECKPOINT_NAME = "checkpoint.log"
_OLD_NAME = "checkpoint.json"
#: Insert records hold at most this many bytes of rows each (a row
#: larger than that alone), far below a frame's limit, so a row pays
#: next to nothing for frame and keys.
_BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class CheckpointInfo:
    """What a completed checkpoint covers."""

    last_lsn: int
    tables: int
    rows: int
    bytes_written: int


def encode_database(database, last_lsn: int,
                    documents: list | None = None) -> list[dict]:
    """The checkpoint records for the database's current state — also
    what a process pool ships to bootstrap its workers (``documents``:
    :func:`~repro.durability.codec.encode_row`).

    Caller holds the exclusive write lock (a pool: the shared one,
    which excludes writers too), so the traversal sees one consistent
    version.  No document is materialized, and none is evicted: each
    is encoded from its ``StoredDocument.columns``."""
    tables = SegmentTables()
    records = [create_table_record(table)
               for table in database.tables.values()]
    records.extend(schema_record(schema)
                   for schema in database.schemas.values())
    for table in database.tables.values():
        records.extend(insert_record(database.schemas, table.name, batch)
                       for batch in _batches(table.rows, tables,
                                             documents))
    records.extend(xml_index_record(index)
                   for index in database.xml_indexes.values())
    records.extend(relational_index_record(index)
                   for index in database.rel_indexes.values())
    names, scopes = tables.to_json()
    header = {"op": "checkpoint", "last_lsn": last_lsn,
              "index_order": database.index_order,
              "names": names, "scopes": scopes}
    return [header, *records]


def _batches(rows, tables: SegmentTables, documents: list | None):
    """``rows``, each encoded once (:func:`encode_row`), in consecutive
    batches of at most ``_BATCH_BYTES``: a row counts its ASCII-escaped
    JSON (a blob as long as it is), never less than what is written,
    but not its record's inline schemas (each written once per record);
    :func:`~repro.durability.wal.encode_record` refuses a frame too
    large to read back."""
    batch, size = [], 0
    for row in rows:
        encoded = encode_row(row, tables, documents)
        row_size = len(json.dumps(encoded[0], separators=(",", ":"),
                                  default=lambda blob: " " * len(blob)))
        if batch and size + row_size > _BATCH_BYTES:
            yield batch
            batch, size = [], 0
        batch.append(encoded)
        size += row_size
    if batch:
        yield batch


def frame_records(records: list[dict]) -> bytes:
    """``records`` as a checkpoint file: the WAL's magic and frames,
    numbered from 1."""
    return MAGIC + b"".join(encode_record(number, record)
                            for number, record in enumerate(records, 1))


# sa: ok(SA403: the checkpoint serializes state under the writer lock
# so the snapshot and its LSN agree; that is the whole protocol)
def write_checkpoint(database, directory, last_lsn: int, *,
                     faults=NO_FAULTS, tracer=None) -> CheckpointInfo:
    """Serialize, write-temp, fsync, rename: the atomic protocol.

    A state that cannot be framed (a record over the frame limit) is a
    :class:`~repro.errors.DurabilityError` before any byte is written,
    so the previous checkpoint and the WAL stay as they were.  After
    the rename every document is re-pointed at the new file.
    The WAL reset that completes a checkpoint is the caller's step
    (``DurableDatabase.checkpoint``) so its crash points wrap the
    actual truncation."""
    documents = [] if database.buffer_pool.enabled else None
    data = frame_records(encode_database(database, last_lsn, documents))
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
        faults.crash_point("checkpoint.before_repoint")
        if documents:
            point_documents(documents, fsio.ReadHandle(destination), data,
                            0, len(MAGIC))
    if METRICS.enabled:
        METRICS.inc("checkpoint.writes")
        METRICS.inc("checkpoint.bytes_written", len(data))
    return CheckpointInfo(
        last_lsn=last_lsn, tables=len(database.tables),
        rows=sum(len(table.rows) for table in database.tables.values()),
        bytes_written=len(data))


def load_checkpoint(directory) -> WalScan | None:
    """The checkpoint's records, header first, with their blobs'
    offsets, or None for a fresh directory.

    A leftover ``checkpoint.log.tmp`` (crash between write and
    rename) is ignorable garbage: the rename never happened, so the
    previous checkpoint — or none — is still the truth."""
    old = directory / _OLD_NAME
    if fsio.exists(old):
        raise DurabilityError(
            f"{old}: a checkpoint in the older JSON format, which has "
            f"no reader")
    path = directory / CHECKPOINT_NAME
    if not fsio.exists(path):
        return None
    scan = scan_wal(path)
    if scan.torn_bytes:
        raise DurabilityError(
            f"{path}: corrupt checkpoint: bad frame at byte "
            f"{scan.valid_size} of {scan.file_size}")
    if not scan.records or scan.records[0][1].get("op") != "checkpoint":
        raise DurabilityError(
            f"{path}: corrupt checkpoint: no header record")
    if METRICS.enabled:
        METRICS.inc("checkpoint.loads")
    return scan
