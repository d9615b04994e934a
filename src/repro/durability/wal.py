"""The write-ahead log: logical records, CRC framing, group commit.

File layout::

    REPROWAL3\\n                      10-byte magic
    <lsn:u32><length:u32><crc:u32>   per-record frame header (LE)
    <payload: length bytes>          UTF-8 JSON of one logical record

Records are built by :mod:`repro.durability.codec`; an insert record
holds each document as a column segment with its own name and scope
tables, so replay adopts it without parsing.  ``REPROWAL1`` (XML text)
and ``REPROWAL2`` (an insert's one row as ``values``) logs have no
reader: opening one is a :class:`~repro.errors.DurabilityError`.

The log is *logical* (operation-level), mirroring how the engine's
writers are already atomic critical sections: one committed writer call
(``create_table``, ``insert``, ``delete_rows``, …) is exactly one
record, appended *after* the in-memory apply succeeds but inside the
same exclusive-lock section, so log order always equals apply order
and failed operations never reach the log.

LSNs increase by exactly 1 per record and restart from
``checkpoint_lsn + 1`` after a checkpoint truncates the log.  The CRC
covers the LSN and the payload, so frame corruption anywhere is
detected; scanning stops at the first invalid frame and
:meth:`WriteAheadLog.__init__` (via :func:`scan_wal`) truncates the
file there — torn-tail repair.

Group commit (``fsync_policy``):

``always``
    write + fsync per record: every committed operation is durable.
``batch``
    records accumulate in memory and one write+fsync covers each group
    of ``group_size`` — an order-of-magnitude cheaper per commit, at
    the cost of losing up to a group on a crash (recovery then yields
    the longest durable prefix, which the crash-matrix test verifies
    is a consistent database).
``off``
    write + flush, never fsync: bounded only by the OS page cache.

A failed group write or fsync *fails the log*: buffered records may be
lost or a frame torn, and a record written behind that gap would
replay out of order.  From then on :meth:`WriteAheadLog.append`,
``flush`` and ``sync`` (so a checkpoint too) raise
:class:`~repro.errors.DurabilityError` until the database is reopened,
whose torn-tail repair and replay give the authoritative state;
``close`` only releases the handle.  The one failure that does not
fail the log is a write of the one record being appended that left the
file's size unchanged: that record is simply not logged.  A checkpoint
(:mod:`repro.durability.checkpoint`) is the same frames, read by the
same :func:`scan_wal`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

from ..errors import DurabilityError
from ..obs.metrics import METRICS
from . import fsio
from .faults import NO_FAULTS

__all__ = ["WAL_NAME", "WriteAheadLog", "WalScan", "scan_wal",
           "encode_record"]

WAL_NAME = "wal.log"
MAGIC = b"REPROWAL3\n"
_FRAME = struct.Struct("<III")  # lsn, payload length, crc32
_MAX_RECORD = 64 * 1024 * 1024


def _crc(lsn: int, payload: bytes) -> int:
    return zlib.crc32(struct.pack("<I", lsn) + payload)


def encode_record(lsn: int, record: dict) -> bytes:
    """``record``'s frame; a payload :func:`scan_wal` would not read
    back (over ``_MAX_RECORD``) is a
    :class:`~repro.errors.DurabilityError` instead."""
    payload = json.dumps(record, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    if len(payload) > _MAX_RECORD:
        raise DurabilityError(
            f"a {record.get('op')!r} record of {len(payload)} bytes is "
            f"over the {_MAX_RECORD}-byte frame limit")
    return _FRAME.pack(lsn, len(payload), _crc(lsn, payload)) + payload


@dataclass
class WalScan:
    """The readable prefix of a WAL file."""

    records: list[tuple[int, dict]] = field(default_factory=list)
    #: Byte size of the valid prefix (magic + whole records).
    valid_size: int = 0
    #: Actual file size; > valid_size means a torn/corrupt tail.
    file_size: int = 0
    #: Offset where the last *valid* record's frame begins (-1: none).
    last_record_start: int = -1

    @property
    def torn_bytes(self) -> int:
        return self.file_size - self.valid_size

    @property
    def last_lsn(self) -> int:
        return self.records[-1][0] if self.records else 0


def scan_wal(path) -> WalScan:
    """Read every whole, CRC-valid record; stop at the first bad frame.

    Missing file → empty scan.  A corrupt magic header is a hard error
    (the file is not ours to repair); everything after it follows the
    torn-tail rule: the valid prefix is the log.
    """
    scan = WalScan()
    if not fsio.exists(path):
        return scan
    data = fsio.read_bytes(path)
    scan.file_size = len(data)
    if len(data) < len(MAGIC) or not data.startswith(MAGIC):
        if data.startswith(MAGIC[:-2]):
            raise DurabilityError(
                f"{path}: unsupported WAL format "
                f"{data[:len(MAGIC) - 1].decode('ascii', 'replace')!r}")
        raise DurabilityError(f"{path}: not a repro WAL (bad magic)")
    offset = len(MAGIC)
    scan.valid_size = offset
    previous_lsn = 0
    while offset + _FRAME.size <= len(data):
        lsn, length, crc = _FRAME.unpack_from(data, offset)
        if length > _MAX_RECORD:
            break
        end = offset + _FRAME.size + length
        if end > len(data):
            break
        payload = data[offset + _FRAME.size:end]
        if _crc(lsn, payload) != crc:
            break
        if previous_lsn and lsn <= previous_lsn:
            raise DurabilityError(
                f"{path}: LSN order violated at byte {offset}: "
                f"{lsn} after {previous_lsn}")
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        scan.records.append((lsn, record))
        scan.last_record_start = offset
        previous_lsn = lsn
        offset = end
        scan.valid_size = offset
    return scan


class WriteAheadLog:
    """Append side of the log; one instance per open database.

    ``start_lsn`` is the LSN already consumed (recovery's
    ``max(checkpoint_lsn, last WAL lsn)``); appends continue at
    ``start_lsn + 1``.
    """

    def __init__(self, path, *, fsync_policy: str = "always",
                 group_size: int = 256, faults=NO_FAULTS,
                 start_lsn: int = 0):
        if fsync_policy not in ("always", "batch", "off"):
            raise DurabilityError(
                f"unknown fsync policy {fsync_policy!r}; "
                f"expected always/batch/off")
        if group_size < 1:
            raise DurabilityError("group_size must be >= 1")
        self.path = path
        self.fsync_policy = fsync_policy
        self.group_size = group_size
        self._faults = faults
        self._directory = fsio.parent_dir(path)
        if not fsio.exists(path):
            fsio.write_bytes(path, MAGIC)
            fsio.fsync_path(path)
            fsio.fsync_dir(self._directory)
        self._handle = fsio.open_append(path)
        self._written_size = fsio.file_size(path)
        self._synced_size = self._written_size
        self._next_lsn = start_lsn + 1
        self._pending: list[bytes] = []
        #: The error that failed the log; None while it is usable.
        self._failure: BaseException | None = None

    # -- properties -----------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    # -- appending ------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one logical record; returns its LSN.

        Durability on return depends on the fsync policy; callers that
        need a hard guarantee regardless of policy follow with
        :meth:`sync`.  If it raises before the record is written or
        buffered, :attr:`last_lsn` is unchanged: the record is not in
        the log and its LSN goes to the next append.
        """
        self.raise_if_failed()
        lsn = self._next_lsn
        data = encode_record(lsn, record)
        self._next_lsn += 1
        self._pending.append(data)
        if (self.fsync_policy != "batch"
                or len(self._pending) >= self.group_size):
            self._write_pending(self.fsync_policy != "off", appending=lsn)
        if METRICS.enabled:
            METRICS.inc("wal.appends")
        return lsn

    def flush(self) -> None:
        """Write buffered records; fsync unless the policy is ``off``."""
        self.raise_if_failed()
        if self._pending:
            self._write_pending(self.fsync_policy != "off")

    # sa: ok(SA403: callers fsync under the writer lock on purpose —
    # durability must be ordered with the mutation it covers)
    def sync(self) -> None:
        """Force full durability: drain the buffer and fsync."""
        self.raise_if_failed()
        if self._pending:
            self._write_pending(sync=True)
        elif self._synced_size < self._written_size:
            try:
                self._fsync()
            except BaseException as error:
                self._failure = error
                raise

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.DurabilityError` if the log has
        failed: nothing may be written, or read as committed, until the
        database is reopened."""
        if self._failure is not None:
            raise DurabilityError(
                f"{self.path}: the log failed ({self._failure!r}); "
                f"reopen the database to recover") from self._failure

    def _write_pending(self, sync: bool, appending: int = 0) -> None:
        """Write the buffered records as one group (fsync with
        ``sync``); a failure fails the log, except one that left the
        file's size as it was when the only buffered record is the one
        an :meth:`append` of LSN ``appending`` logs: its LSN is free
        again.  (After a torn frame, the next record would be cut off
        with the torn tail.)"""
        alone = appending > 0 and len(self._pending) == 1
        data = b"".join(self._pending)
        self._pending.clear()
        written = self._written_size
        try:
            self._write_group(data, sync)
        except BaseException as error:
            if (alone and self._written_size == written
                    and self._size_on_disk_is(written)):
                self._next_lsn = appending
            else:
                self._failure = error
            raise

    def _size_on_disk_is(self, size: int) -> bool:
        """Whether the file still holds ``size`` bytes; a size that
        cannot be read counts as changed."""
        try:
            return fsio.file_size(self.path) == size
        # sa: ok(SA408: any failure to stat means the size is unknown;
        # the caller then fails the log with the write's own error)
        except Exception:
            return False

    def _write_group(self, data: bytes, sync: bool) -> None:
        self._faults.crash_point("wal.append.before_write",
                                 path=self.path,
                                 durable_bytes=self._synced_size)
        view = memoryview(data)
        while view:  # an unbuffered write may take only part of it
            view = view[self._handle.write(view):]
        self._written_size += len(data)
        if METRICS.enabled:
            METRICS.inc("wal.bytes_written", len(data))
        if sync:
            self._faults.crash_point("wal.append.before_fsync",
                                     path=self.path,
                                     durable_bytes=self._synced_size)
            self._fsync()
            self._faults.crash_point("wal.append.after_fsync",
                                     path=self.path,
                                     durable_bytes=self._synced_size)

    def _fsync(self) -> None:
        fsio.fsync_file(self._handle)
        self._synced_size = self._written_size
        if METRICS.enabled:
            METRICS.inc("wal.fsyncs")

    # -- truncation (after a checkpoint) --------------------------------

    # sa: ok(SA403: truncation runs inside the checkpoint's exclusive
    # section so no writer can append to the log being replaced)
    def reset(self, last_lsn: int) -> None:
        """Truncate the log after a checkpoint at ``last_lsn``.

        A fresh header-only file is written, fsynced, and atomically
        renamed over the old log; a crash on either side of the rename
        leaves a log recovery handles (the stale records are skipped by
        the checkpoint-LSN guard)."""
        self._pending.clear()
        self._handle.close()
        fresh = str(self.path) + ".new"
        fsio.write_bytes(fresh, MAGIC)
        fsio.fsync_path(fresh)
        try:
            self._faults.crash_point("wal.reset.before_rename")
            fsio.replace(fresh, self.path)
            fsio.fsync_dir(self._directory)
            self._faults.crash_point("wal.reset.after_rename")
        finally:
            # Keep the in-memory object usable even across an injected
            # crash: tests recover the directory with a new instance,
            # but this one must close cleanly.
            self._handle = fsio.open_append(self.path)
            self._written_size = fsio.file_size(self.path)
            self._synced_size = self._written_size
        self._next_lsn = last_lsn + 1

    # sa: ok(SA403: the final flush+fsync happens under the writer
    # lock so close cannot race a concurrent append)
    def close(self) -> None:
        """Flush and release the handle; a failed log only releases it."""
        if self._handle.closed:
            return
        try:
            if self._failure is None:
                self.flush()
        finally:
            self._handle.close()

    def abandon(self) -> None:
        """Drop the handle *without* draining buffered records.

        The fault harness calls this after an injected crash: a dead
        process never flushes its group-commit buffer, and a tidy
        :meth:`close` here would quietly undo the simulated data loss.
        """
        self._pending.clear()
        if not self._handle.closed:
            self._handle.close()
