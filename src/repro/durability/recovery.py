"""Crash recovery: last checkpoint + WAL tail → a live database.

The protocol::

    load checkpoint.json (if any)        → state as of checkpoint_lsn
      tables → schemas → rows → indexes  (indexes rebuilt from DDL)
    scan wal.log, repair torn tail       → records, longest valid prefix
    replay records with lsn > checkpoint_lsn, in LSN order

Idempotence comes from three layers: every recovery starts from a
*fresh* in-memory database (never a partially recovered one), the
checkpoint-LSN guard skips records the checkpoint already covers
(stale logs left by a crash between checkpoint rename and WAL reset),
and each DDL apply tolerates already-present/already-absent targets.
Recovering the same directory twice is therefore a no-op: same state,
same LSNs, nothing rewritten.

Emits ``recovery`` trace spans (via :mod:`repro.obs.trace`) and
``recovery.*`` metrics; ``verify=True`` additionally checks the path
table the parser built for every checkpointed document against the
shape the checkpoint recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import DurabilityError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..schema.schema import Schema
from ..storage.columnar import ColumnStore, decode_path_table
from ..storage.table import StoredDocument
from . import fsio
from .checkpoint import load_checkpoint
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
            return (f"verify: {self.documents_checked} document "
                    f"summaries match the checkpoint")
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
        with tracer.span("recovery.checkpoint"):
            state = load_checkpoint(directory)
            checkpoint_lsn = state["last_lsn"] if state else 0
            if state is not None:
                _apply_checkpoint(database, state, report)
        scan = scan_wal(wal_path)
        if scan.torn_bytes:
            # Torn-tail repair: drop the partial final frame so later
            # appends extend a valid log.
            fsio.truncate(wal_path, scan.valid_size)
            fsio.fsync_path(wal_path)
            if METRICS.enabled:
                METRICS.inc("wal.torn_bytes_truncated", scan.torn_bytes)
        replayed = skipped = 0
        with tracer.span("recovery.wal", records=len(scan.records),
                         torn_bytes=scan.torn_bytes):
            for lsn, record in scan.records:
                if lsn <= checkpoint_lsn:
                    skipped += 1
                    continue
                _apply_record(database, record)
                replayed += 1
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


# ---------------------------------------------------------------------------
# Checkpoint apply
# ---------------------------------------------------------------------------


def _apply_checkpoint(database, state: dict,
                      report: VerifyReport | None) -> None:
    database.index_order = state["index_order"]
    paths = decode_path_table(state["paths"], "checkpoint path table")
    for table in state["tables"]:
        database.create_table(
            table["name"],
            [(column, type_text)
             for column, type_text in table["columns"]])
    for entry in state["schemas"]:
        schema = decode_schema(entry)
        if entry["registered"]:
            database.register_schema(schema)
        else:
            database._doc_schemas[schema.name] = schema
    for table in state["tables"]:
        for position, row in enumerate(table["rows"]):
            _apply_checkpoint_row(database, table["name"], position,
                                  row, report, paths)
    # Indexes last: one bulk build over the recovered documents beats
    # per-row incremental maintenance during the load above.
    for index in state["xml_indexes"]:
        if index["name"] not in database.xml_indexes:
            database.create_xml_index(
                index["name"], index["table"], index["column"],
                index["pattern"], index["type"])
    for index in state["rel_indexes"]:
        if index["name"] not in database.rel_indexes:
            database.create_relational_index(
                index["name"], index["table"], index["column"])


def _apply_checkpoint_row(database, table_name: str, position: int,
                          row: dict, report: VerifyReport | None,
                          paths: list) -> None:
    values: dict[str, object] = {}
    schema_map: dict[str, Schema] = {}
    stored_paths: dict[str, list] = {}
    for column, encoded in row.items():
        if isinstance(encoded, dict) and "$xml" in encoded:
            columns_payload = encoded.get("$columns")
            if columns_payload is not None:
                # Replica-shipped columnar payload: materialize the
                # tree straight from the columns (primary node ids
                # preserved) instead of re-parsing the canonical text;
                # the ingest path reuses the attached store as-is.
                values[column] = ColumnStore.from_payload(
                    columns_payload).materialize()
            else:
                values[column] = encoded["$xml"]
            schema_name = encoded.get("$schema")
            if schema_name:
                schema_map[column] = _resolve_schema(database,
                                                     schema_name)
            stored_paths[column] = encoded.get("$paths")
        else:
            values[column] = decode_value(encoded)
    inserted = database.insert(table_name, values,
                               schema_map or None)
    if report is None:
        return
    for column, expected in stored_paths.items():
        stored = inserted.values.get(column)
        if not isinstance(stored, StoredDocument) or expected is None:
            continue
        where = f"{table_name} row {position} column {column}"
        for path_row, _count in expected:
            if type(path_row) is not int or not 0 <= path_row < len(paths):
                raise DurabilityError(
                    f"checkpoint {where}: $paths row {path_row!r} outside "
                    f"the path table's {len(paths)} rows")
        report.documents_checked += 1
        recorded = {paths[path_row]: count for path_row, count in expected}
        rebuilt = stored.columns.path_counts()
        if rebuilt != recorded or len(recorded) != len(expected):
            report.mismatches.append(
                f"{where}: re-captured path table has {len(rebuilt)} "
                f"path(s), checkpoint recorded {len(expected)}"
                + ("" if len(rebuilt) != len(expected)
                   else " with differing shapes"))


def _resolve_schema(database, name: str) -> Schema:
    schema = database.schemas.get(name)
    if schema is None:
        schema = database._doc_schemas.get(name)
    if schema is None:
        raise DurabilityError(
            f"recovery references unknown schema {name!r}")
    return schema


# ---------------------------------------------------------------------------
# WAL record apply (idempotent per record)
# ---------------------------------------------------------------------------


def _apply_record(database, record: dict) -> None:
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
        values: dict[str, object] = {}
        schema_map: dict[str, Schema] = {}
        for column, encoded in record["values"].items():
            if isinstance(encoded, dict) and "$xml" in encoded:
                values[column] = encoded["$xml"]
            else:
                values[column] = decode_value(encoded)
        for column, entry in record.get("schemas", {}).items():
            if "$ref" in entry:
                schema_map[column] = _resolve_schema(database,
                                                     entry["$ref"])
            else:
                schema_map[column] = decode_schema(entry)
        database.insert(record["table"], values, schema_map or None)
    elif op == "delete_rows":
        database._delete_positions(record["table"], record["positions"])
    else:
        raise DurabilityError(f"unknown WAL record op {op!r}")


# ---------------------------------------------------------------------------
# Replica-facing entry points (log shipping)
# ---------------------------------------------------------------------------

#: Load an encoded checkpoint document into a fresh database — the
#: replica-bootstrap half of recovery, reused by
#: :mod:`repro.parallel.replica` on state shipped over a pipe instead
#: of read from disk.
apply_checkpoint_state = _apply_checkpoint

#: Apply one logical WAL record — the replay step a follower runs for
#: every record the primary ships.
apply_wal_record = _apply_record
