"""Crash recovery: last checkpoint + WAL tail → a live database.

The protocol::

    scan checkpoint.log (if any), strictly → records as of checkpoint_lsn
    scan wal.log, repair torn tail         → records, longest valid prefix
    replay records with lsn > checkpoint_lsn, in LSN order

Both files hold one record grammar (:mod:`repro.durability.codec`) and
go through one per-operation apply; only a bad frame reads differently
(a torn WAL tail is cut, a bad checkpoint frame is corruption).

Idempotence comes from three layers: every recovery starts from a
*fresh* in-memory database, the checkpoint-LSN guard skips records the
checkpoint already covers (stale logs left by a crash between
checkpoint rename and WAL reset), and each DDL apply tolerates
already-present/already-absent targets.

Documents are *adopted* from their column segments
(:mod:`repro.storage.segment`), never parsed, and no tree is built
until a read asks for one (under a buffer pool each points at its
segment in the file it came from) — except for schema-validated documents,
re-validated against the schema their record names (``{"$ref":
name}``: registered under that name at that point of the replay) or
embeds (``{"$inline": i}``: the record's ``inline`` list).

Emits ``recovery`` trace spans and ``recovery.*`` metrics;
``verify=True`` additionally round-trips every recovered document —
materialize, serialize, parse back — and compares the parsed columns
with the adopted ones slot by slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import DurabilityError, XMLParseError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..schema.schema import Schema
from ..storage.segment import SegmentTables, decode_document
from ..storage.table import StoredDocument
from ..xmlio.parser import parse_columns
from ..xmlio.serializer import serialize
from . import fsio
from .checkpoint import CHECKPOINT_NAME, load_checkpoint
from .codec import decode_schema, decode_value
from .wal import WAL_NAME, scan_wal

__all__ = ["RecoveryResult", "VerifyReport", "recover",
           "apply_checkpoint_state", "apply_wal_record"]


@dataclass
class VerifyReport:
    """`recover --verify` findings; empty mismatch list == healthy."""

    documents_checked: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return (f"verify: {self.documents_checked} documents "
                    f"round-trip slot for slot")
        lines = [f"verify: {len(self.mismatches)} mismatch(es) over "
                 f"{self.documents_checked} documents"]
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


@dataclass
class RecoveryResult:
    """What one recovery pass did."""

    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    skipped: int
    truncated_bytes: int
    tables: int
    rows: int
    seconds: float
    verify: VerifyReport | None = None

    def render(self) -> str:
        lines = [
            f"recovered: checkpoint_lsn={self.checkpoint_lsn} "
            f"last_lsn={self.last_lsn} replayed={self.replayed} "
            f"skipped={self.skipped} "
            f"truncated_bytes={self.truncated_bytes}",
            f"state: {self.tables} table(s), {self.rows} row(s), "
            f"{self.seconds * 1000:.1f} ms",
        ]
        if self.verify is not None:
            lines.append(self.verify.render())
        return "\n".join(lines)


def recover(database, directory, *, verify: bool = False,
            tracer=None) -> RecoveryResult:
    """Rebuild ``database`` (a fresh instance) from ``directory``.

    The caller (``DurableDatabase.__init__``) sets ``_replaying`` so
    the writer overrides it routes through do not re-log; this function
    only drives the database's own public write path, which captures
    columns, validates against schemas, and maintains indexes exactly
    as live ingest does."""
    start = time.perf_counter()
    tracer = tracer or NULL_TRACER
    report = VerifyReport() if verify else None
    wal_path = directory / WAL_NAME
    with tracer.span("recovery", directory=str(directory)):
        pooled = database.buffer_pool.enabled
        with tracer.span("recovery.checkpoint"):
            checkpoint = load_checkpoint(directory)
            checkpoint_lsn = 0
            if checkpoint is not None:
                records = [record for _number, record in checkpoint.records]
                checkpoint_lsn = records[0]["last_lsn"]
                reader = (fsio.ReadHandle(directory / CHECKPOINT_NAME)
                          if pooled else None)
                apply_checkpoint_state(database, records, reader,
                                       checkpoint.blob_offsets)
        scan = scan_wal(wal_path)
        if scan.torn_bytes:
            # Torn-tail repair: drop the partial final frame so later
            # appends extend a valid log.
            fsio.truncate(wal_path, scan.valid_size)
            fsio.fsync_path(wal_path)
            if METRICS.enabled:
                METRICS.inc("wal.torn_bytes_truncated", scan.torn_bytes)
        replayed = skipped = 0
        reader = (fsio.ReadHandle(wal_path) if pooled and scan.records
                  else None)
        with tracer.span("recovery.wal", records=len(scan.records),
                         torn_bytes=scan.torn_bytes):
            for (lsn, record), offsets in zip(scan.records,
                                              scan.blob_offsets):
                if lsn <= checkpoint_lsn:
                    skipped += 1
                    continue
                apply_wal_record(database, record, lsn, reader, offsets)
                replayed += 1
        if report is not None:
            _verify_round_trips(database, report)
    seconds = time.perf_counter() - start
    if METRICS.enabled:
        METRICS.inc("recovery.runs")
        METRICS.inc("recovery.records_replayed", replayed)
        METRICS.inc("recovery.records_skipped", skipped)
        METRICS.observe("recovery.seconds", seconds)
    return RecoveryResult(
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=max(checkpoint_lsn, scan.last_lsn),
        replayed=replayed, skipped=skipped,
        truncated_bytes=scan.torn_bytes,
        tables=len(database.tables),
        rows=sum(len(table.rows)
                 for table in database.tables.values()),
        seconds=seconds, verify=report)


def _verify_round_trips(database, report: VerifyReport) -> None:
    """``recover --verify``: every recovered document, materialized and
    serialized, must parse back into the columns it was adopted as."""
    for table in database.tables.values():
        columns = table.xml_columns()
        for position, row in enumerate(table.rows):
            for column in columns:
                stored = row.values.get(column)
                if not isinstance(stored, StoredDocument):
                    continue
                report.documents_checked += 1
                try:
                    mismatch = _first_mismatch(
                        stored.columns,
                        parse_columns(serialize(stored.document)))
                except XMLParseError as error:
                    mismatch = f"does not parse back: {error}"
                if mismatch is not None:
                    report.mismatches.append(
                        f"{table.name} row {position} column {column}: "
                        f"{mismatch}")


def _first_mismatch(adopted, parsed) -> str | None:
    """Where two column stores first differ, slot by slot, or None."""
    mine, theirs = _slots(adopted), _slots(parsed)
    if len(mine) != len(theirs):
        return f"{len(mine)} adopted slots, {len(theirs)} parsed back"
    for slot, (adopted_slot, parsed_slot) in enumerate(zip(mine, theirs)):
        if adopted_slot != parsed_slot:
            return (f"slot {slot}: {adopted_slot!r} adopted, "
                    f"{parsed_slot!r} parsed back")
    return None


def _slots(store) -> list[tuple]:
    """Each slot's kind, parent, post, name and scope (by value), path
    (by identity) and heap text."""
    names, scopes, paths, text = (store.names, store.nsscopes, store.paths,
                                  store.text)
    return [(kind, parent, post,
             names[name] if name >= 0 else None,
             scopes[scope] if scope >= 0 else None,
             paths[path] if path >= 0 else None,
             text[low:high] if low >= 0 else None)
            for kind, parent, post, name, scope, path, low, high in zip(
                store.kind, store.parent, store.post, store.name_id,
                store.ns_id, store.path_id, store.text_lo, store.text_hi)]


# ---------------------------------------------------------------------------
# Record apply: one per-operation step for checkpoint and WAL records
# ---------------------------------------------------------------------------


def apply_checkpoint_state(database, records: list[dict], file=None,
                           blob_offsets=None) -> None:
    """Load a checkpoint's records (:func:`load_checkpoint`, or the
    list a process pool ships its workers) into a fresh database;
    ``file`` and ``blob_offsets`` as for :func:`_insert`."""
    header = records[0]
    database.index_order = header["index_order"]
    tables = SegmentTables.from_json(header["names"], header["scopes"],
                                     "checkpoint")
    for index, record in enumerate(records[1:], 1):
        _apply(database, record, "checkpoint", tables, file,
               blob_offsets[index] if file is not None else ())


def apply_wal_record(database, record: dict, lsn: int = 0, file=None,
                     blob_offsets=()) -> None:
    """Apply one logical WAL record — the replay step of recovery."""
    _apply(database, record, f"WAL record {lsn}: insert into", None, file,
           blob_offsets)


def _apply(database, record: dict, where: str,
           tables: SegmentTables | None, file, blob_offsets) -> None:
    """Apply one record, idempotently for DDL.  An insert's documents
    index the shared ``tables`` (a checkpoint's) or, without them, the
    record's own; errors in it name ``where``, its table and row."""
    op = record.get("op")
    if op == "create_table":
        if record["name"] not in database.tables:
            database.create_table(
                record["name"],
                [(column, type_text)
                 for column, type_text in record["columns"]])
    elif op == "drop_table":
        if record["name"] in database.tables:
            database.drop_table(record["name"])
    elif op == "register_schema":
        database.register_schema(decode_schema(record["schema"]))
    elif op == "create_xml_index":
        if record["name"] not in database.xml_indexes:
            database.create_xml_index(
                record["name"], record["table"], record["column"],
                record["pattern"], record["type"])
    elif op == "create_relational_index":
        if record["name"] not in database.rel_indexes:
            database.create_relational_index(
                record["name"], record["table"], record["column"])
    elif op == "drop_index":
        if (record["name"] in database.xml_indexes
                or record["name"] in database.rel_indexes):
            database.drop_index(record["name"])
    elif op == "insert":
        _insert(database, record, where, tables, file, blob_offsets)
    elif op == "delete_rows":
        database._delete_positions(record["table"], record["positions"])
    else:
        raise DurabilityError(f"unknown WAL record op {op!r}")


def _insert(database, record: dict, where: str,
            tables: SegmentTables | None, file, blob_offsets) -> None:
    """Insert the record's rows, one by one: scalars decoded,
    documents adopted from their segments and re-validated against the
    schemas the record names or embeds (each decoded once), and with
    ``file`` pointed at their segments, at ``blob_offsets`` in order."""
    table = record["table"]
    if tables is None:
        tables = SegmentTables.from_json(record.get("names", ()),
                                         record.get("scopes", ()), where)
    validated_rows = record.get("schemas") or [{}] * len(record["rows"])
    inline = [decode_schema(obj) for obj in record.get("inline", ())]
    offsets = iter(blob_offsets)
    for values, validated in zip(record["rows"], validated_rows):
        row_where = f"{where} {table} row {len(database.table(table).rows)}"
        decoded: dict[str, object] = {}
        document_columns = []
        for column, encoded in values.items():
            if isinstance(encoded, dict) and "$seg" in encoded:
                decoded[column] = decode_document(
                    encoded, f"{row_where} column {column}", tables)
                document_columns.append(column)
            else:
                decoded[column] = decode_value(encoded)
        schemas = {column: (_resolve_schema(database, entry["$ref"])
                            if "$ref" in entry else inline[entry["$inline"]])
                   for column, entry in validated.items()}
        row = database.insert(table, decoded, schemas or None)
        for column in document_columns if file is not None else ():
            row.values[column].point_at(file, next(offsets),
                                        len(values[column]["$seg"]), tables)


def _resolve_schema(database, name: str) -> Schema:
    schema = database.schemas.get(name)
    if schema is None:
        raise DurabilityError(
            f"recovery references unknown schema {name!r}")
    return schema
