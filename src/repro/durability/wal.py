"""The write-ahead log: logical records, CRC framing, group commit.

File layout::

    REPROWAL4\\n                      10-byte magic
    <lsn:u32><length:u32><crc:u32>   per-record frame header (LE)
    <payload: length bytes>          one logical record:
      <json length:u32><json>        its UTF-8 JSON header
      (<blob length:u32><blob>)*     its byte strings, raw

Records are built by :mod:`repro.durability.codec`; an insert record
holds each document as a column segment (``bytes``: a blob, ``{"$blob":
i}`` in the JSON) indexing the record's own name and scope tables, so
replay adopts it without parsing and the buffer pool can read it back.
``REPROWAL1`` (XML text), ``REPROWAL2`` (an insert's one row as
``values``) and ``REPROWAL3`` (segments as text inside JSON) logs have
no reader: opening one is a :class:`~repro.errors.DurabilityError`.

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
           "encode_record", "point_documents"]

WAL_NAME = "wal.log"
MAGIC = b"REPROWAL4\n"
_FRAME = struct.Struct("<III")  # lsn, payload length, crc32
_LENGTH = struct.Struct("<I")   # a payload's JSON or blob length
_MAX_RECORD = 64 * 1024 * 1024


def _crc(lsn: int, payload) -> int:
    return zlib.crc32(payload, zlib.crc32(_LENGTH.pack(lsn)))


def encode_record(lsn: int, record: dict) -> bytes:
    """``record``'s frame, its ``bytes`` values as blobs; a payload
    :func:`scan_wal` would not read back (over ``_MAX_RECORD``) is a
    :class:`~repro.errors.DurabilityError` instead."""
    blobs: list[bytes] = []  # each blob after its length

    def lift(blob: bytes) -> dict:
        blobs.extend((_LENGTH.pack(len(blob)), blob))
        return {"$blob": len(blobs) // 2 - 1}

    header = json.dumps(record, separators=(",", ":"), ensure_ascii=False,
                        default=lift).encode("utf-8")
    payload = b"".join([_LENGTH.pack(len(header)), header, *blobs])
    if len(payload) > _MAX_RECORD:
        raise DurabilityError(
            f"a {record.get('op')!r} record of {len(payload)} bytes is "
            f"over the {_MAX_RECORD}-byte frame limit")
    return _FRAME.pack(lsn, len(payload), _crc(lsn, payload)) + payload


def point_documents(documents, file, frames: bytes, base: int,
                    start: int = 0) -> None:
    """Point each (stored document, tables) pair at its segment, the
    blobs of the frames in ``frames[start:]`` in order (``frames`` sits
    at byte ``base`` of ``file``)."""
    spans = []
    while start < len(frames):
        end = start + _FRAME.size + _FRAME.unpack_from(frames, start)[1]
        spans += _blob_spans(frames, start + _FRAME.size, end)[1]
        start = end
    for (stored, tables), (offset, length) in zip(documents, spans):
        stored.point_at(file, base + offset, length, tables)


def _blob_spans(data, start: int, end: int) -> tuple[int, list]:
    """Where the JSON of the payload at ``data[start:end]`` ends, and
    the (offset, length) of each blob after it."""
    at = json_end = (start + _LENGTH.size
                     + _LENGTH.unpack_from(data, start)[0])
    spans = []
    while at < end:
        length = _LENGTH.unpack_from(data, at)[0]
        spans.append((at + _LENGTH.size, length))
        at += _LENGTH.size + length
    if at != end:
        raise ValueError("a payload's blobs do not end where it does")
    return json_end, spans


@dataclass
class WalScan:
    """The readable prefix of a WAL file."""

    records: list[tuple[int, dict]] = field(default_factory=list)
    #: Per record, the file offset of each of its blobs, in order.
    blob_offsets: list[list[int]] = field(default_factory=list)
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
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            break
        if _crc(lsn, data[start:end]) != crc:
            break
        if previous_lsn and lsn <= previous_lsn:
            raise DurabilityError(
                f"{path}: LSN order violated at byte {offset}: "
                f"{lsn} after {previous_lsn}")
        try:
            json_end, spans = _blob_spans(data, start, end)
            blobs = [data[at:at + length] for at, length in spans]
            record = json.loads(
                data[start + _LENGTH.size:json_end],
                object_hook=lambda value: (blobs[value["$blob"]]
                                           if "$blob" in value else value))
        except (ValueError, LookupError, TypeError, struct.error):
            break
        scan.records.append((lsn, record))
        scan.blob_offsets.append([at for at, _length in spans])
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
        self._pending: list[tuple[bytes, list | None]] = []
        self._reader = fsio.ReadHandle(path)  # what documents point at
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

    def append(self, record: dict, documents=None) -> int:
        """Append one logical record; returns its LSN.

        Durability on return depends on the fsync policy; callers that
        need a hard guarantee regardless of policy follow with
        :meth:`sync`.  If it raises before the record is written or
        buffered, :attr:`last_lsn` is unchanged: the record is not in
        the log and its LSN goes to the next append.

        ``documents`` (:func:`point_documents`) are pointed at their
        segments once the frame is written, not while it is pending.
        """
        self.raise_if_failed()
        lsn = self._next_lsn
        data = encode_record(lsn, record)
        self._next_lsn += 1
        self._pending.append((data, documents))
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
        pending, self._pending = self._pending, []
        written = self._written_size
        try:
            self._write_group(b"".join(frame for frame, _ in pending), sync)
        except BaseException as error:
            if (alone and self._written_size == written
                    and self._size_on_disk_is(written)):
                self._next_lsn = appending
            else:
                self._failure = error
            raise
        for frame, documents in pending:
            if documents:
                point_documents(documents, self._reader, frame, written)
            written += len(frame)

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
            self._reader = fsio.ReadHandle(self.path)  # the old one stays
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
