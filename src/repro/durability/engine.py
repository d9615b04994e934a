"""``DurableDatabase``: the in-memory engine plus WAL + checkpoints.

Same public API as :class:`repro.storage.catalog.Database` — queries
and snapshots are inherited untouched and keep their shared-read-lock / copy-on-write semantics.  Only the eight
writer entry points are overridden, each with the same shape::

    with self._rwlock.write():          # reentrant: nests the base op
        result = super().op(...)        # apply in memory (may raise)
        self._log(op_record(...))       # append the logical record
        return result

Each record is built by the one function of :mod:`.codec` that the
checkpoint writer uses too (a checkpoint is a compacted log).

Holding the one exclusive lock across apply **and** log is what makes
WAL order equal apply order (concurrent writers cannot interleave the
two halves), and logging *after* a successful apply means failed
operations — validation errors, duplicate DDL — never pollute the log:
this is redo logging of committed operations only.  Conversely, an
insert whose record never reaches the log (it cannot be encoded, or
its write fails) is rolled back before the error propagates, so no
unlogged row stays visible; a failure after the record reached the
log (its fsync) keeps the row, which replay restores.
An insert record holds each document as its column segment, encoded
from the columns the insert parsed, so no tree is built to log it, and
names a validating schema by reference only while it is the registered
one (:func:`~repro.durability.codec.insert_record`); under a buffer
pool, once its frame is written, the document points at it there.

Once a group write or fsync has failed the log
(:class:`~repro.durability.wal.WriteAheadLog`), memory may hold rows
whose records were lost: from then on every writer *and* every read
entry point (``xquery``, ``sql``, ``snapshot``, ``explain``,
``process_pool``) raises :class:`~repro.errors.DurabilityError` before
touching state, until the database is reopened and recovery gives the
authoritative state.

``delete_rows`` has the one non-obvious record shape: an arbitrary
Python predicate cannot be replayed, so the record stores the victim
**row positions** within the table's row list.  Replay reconstructs
rows in their original order (inserts are replayed in LSN order), so
positions are deterministic.  It logs first, then removes the rows iff
the record reached the log, even if a later step (fsync) raises.
"""

from __future__ import annotations

import pathlib

from ..analysis import sanitizer as _sanitizer
from ..schema.schema import Schema
from ..storage.catalog import Database
from ..storage.segment import SegmentTables
from ..storage.table import Row, Table
from . import fsio
from .checkpoint import CheckpointInfo, write_checkpoint
from .codec import (create_table_record, encode_row, insert_record,
                    relational_index_record, schema_record,
                    xml_index_record)
from .faults import NO_FAULTS, CrashError
from .recovery import RecoveryResult, recover
from .wal import WAL_NAME, WriteAheadLog

__all__ = ["DurableDatabase"]


class DurableDatabase(Database):
    """A Database whose committed state survives restarts.

    Opening a directory recovers whatever state it holds (checkpoint +
    WAL tail); an empty directory starts an empty database.  See the
    README "Durability & recovery" section for the on-disk format and
    the fsync policy trade-offs.
    """

    def __init__(self, directory, *, fsync_policy: str = "always",
                 group_size: int = 256, index_order: int = 64,
                 buffer_pool_bytes: int | None = None,
                 faults=NO_FAULTS, verify: bool = False, tracer=None):
        super().__init__(index_order=index_order,
                         buffer_pool_bytes=buffer_pool_bytes)
        self.directory = pathlib.Path(directory)
        fsio.ensure_dir(self.directory)
        self._faults = faults
        self._replaying = True
        try:
            self.last_recovery: RecoveryResult = recover(
                self, self.directory, verify=verify, tracer=tracer)
        finally:
            self._replaying = False
        self._wal = WriteAheadLog(
            self.directory / WAL_NAME, fsync_policy=fsync_policy,
            group_size=group_size, faults=faults,
            start_lsn=self.last_recovery.last_lsn)

    # ------------------------------------------------------------------
    # Logged writers (apply under the write lock, then log)
    # ------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: list[tuple[str, str]]) -> Table:
        with self._rwlock.write():
            self._refuse_if_failed()
            table = super().create_table(name, columns)
            self._log(create_table_record(table))
            return table

    def drop_table(self, name: str) -> None:
        with self._rwlock.write():
            self._refuse_if_failed()
            key = self.table(name).name
            super().drop_table(name)
            self._log({"op": "drop_table", "name": key})

    def register_schema(self, schema: Schema) -> None:
        with self._rwlock.write():
            self._refuse_if_failed()
            super().register_schema(schema)
            self._log(schema_record(schema))

    def create_xml_index(self, name: str, table: str, column: str,
                         pattern: str, index_type: str):
        with self._rwlock.write():
            self._refuse_if_failed()
            index = super().create_xml_index(name, table, column,
                                             pattern, index_type)
            self._log(xml_index_record(index))
            return index

    def _publish_xml_index(self, index) -> None:
        """Online-build commit point: install + WAL-log atomically.

        The record shape is identical to :meth:`create_xml_index`'s, so
        recovery replays an online build as an ordinary offline one —
        a crash before this point leaves no WAL trace (no index after
        recovery), a crash after it replays a complete build."""
        with self._rwlock.write():
            self._refuse_if_failed()
            super()._publish_xml_index(index)
            self._log(xml_index_record(index))

    def create_relational_index(self, name: str, table: str,
                                column: str):
        with self._rwlock.write():
            self._refuse_if_failed()
            index = super().create_relational_index(name, table, column)
            self._log(relational_index_record(index))
            return index

    def drop_index(self, name: str) -> None:
        with self._rwlock.write():
            self._refuse_if_failed()
            super().drop_index(name)
            self._log({"op": "drop_index", "name": name.lower()})

    def insert(self, table: str, values: dict[str, object],
               schema=None) -> Row:
        with self._rwlock.write():
            self._refuse_if_failed()
            row = super().insert(table, values, schema)
            if self._replaying:
                return row
            table_obj = self.table(table)
            last_lsn = self._wal.last_lsn
            tables = SegmentTables()
            documents = [] if self.buffer_pool.enabled else None
            try:
                self._log(insert_record(
                    self.schemas, table_obj.name,
                    [encode_row(row, tables, documents)], tables),
                    documents)
            except CrashError:
                raise
            # sa: ok(SA408: an insert whose record is not logged must not
            # stay applied, whatever failed; the error propagates as is)
            except Exception:
                if self._wal.last_lsn == last_lsn:  # nothing was logged
                    self._remove_rows(table_obj, [row])
                raise
            return row

    def delete_rows(self, table: str, predicate=None) -> int:
        with self._rwlock.write():
            self._refuse_if_failed()
            table_obj = self.table(table)
            positions = [position for position, row
                         in enumerate(table_obj.rows)
                         if predicate is None or predicate(row.values)]
            if not positions:
                return 0
            victims = [table_obj.rows[position]
                       for position in positions]
            last_lsn = self._wal.last_lsn
            try:
                self._log({"op": "delete_rows",
                           "table": table_obj.name,
                           "positions": positions})
            finally:
                if self._wal.last_lsn != last_lsn:  # the record is logged
                    self._remove_rows(table_obj, victims)
            return len(victims)

    # ------------------------------------------------------------------
    # Reads (refused, like writes, once the log has failed)
    # ------------------------------------------------------------------

    def snapshot(self):
        self._refuse_if_failed()
        return super().snapshot()

    def xquery(self, query: str, *args, **kwargs):
        self._refuse_if_failed()
        return super().xquery(query, *args, **kwargs)

    def sql(self, statement: str, *args, **kwargs):
        self._refuse_if_failed()
        return super().sql(statement, *args, **kwargs)

    def explain(self, query: str) -> str:
        self._refuse_if_failed()
        return super().explain(query)

    def process_pool(self, processes: int = 2, **options):
        self._refuse_if_failed()
        return super().process_pool(processes, **options)

    # ------------------------------------------------------------------
    # Durability operations
    # ------------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        """The live write-ahead log; :attr:`WriteAheadLog.last_lsn` is
        the LSN a checkpoint or a process pool's cut is taken at."""
        return self._wal

    def checkpoint(self, tracer=None) -> CheckpointInfo:
        """Write an atomic checkpoint and truncate the WAL.

        Runs as one exclusive-writer section: the serialized state, the
        recorded LSN, and the log truncation all describe the same
        version."""
        with self._rwlock.write():
            self._wal.sync()
            info = write_checkpoint(self, self.directory,
                                    self._wal.last_lsn,
                                    faults=self._faults, tracer=tracer)
            self._faults.crash_point("checkpoint.before_wal_reset")
            self._wal.reset(info.last_lsn)
            self._faults.crash_point("checkpoint.after_wal_reset")
            return info

    def sync(self) -> None:
        """Make every logged record durable regardless of policy."""
        with self._rwlock.write():
            self._wal.sync()

    def close(self) -> None:
        with self._rwlock.write():
            self._wal.close()

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _refuse_if_failed(self) -> None:
        """Once the log has failed, every operation raises until reopen:
        records the log lost may hold rows that memory still shows, and
        a DDL applied now could never be logged."""
        if not self._replaying:
            self._wal.raise_if_failed()

    # sa: ok(SA403: WAL append fsyncs inside the writer section BY
    # DESIGN — the write lock is what serializes the log with the
    # in-memory mutation it describes; see the class docstring)
    def _log(self, record: dict, documents=None) -> None:
        if self._replaying:
            return
        lsn = self._wal.append(record, documents)
        if _sanitizer.ACTIVE is not None:
            # Append order == apply order only while the exclusive
            # lock spans both; the sanitizer checks exactly that.
            _sanitizer.ACTIVE.note_wal_append(self, lsn)
