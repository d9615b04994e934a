"""Deterministic fault injection for the durability layer.

Crash recovery that is merely *hoped for* is indistinguishable from
crash recovery that works, so every dangerous instant in the WAL and
checkpoint protocols is a **named crash point** (:data:`FAULT_POINTS`):
immediately before and after each fsync and each atomic rename.  A test
arms a :class:`FaultInjector` at one point; when the engine reaches it
the injector raises :class:`CrashError`, optionally first truncating
the WAL back to its last-fsynced size — the on-disk picture a real
power cut leaves when the OS page cache dies with the process.

``CrashError`` subclasses :class:`Exception` directly, **not**
``ReproError``: engine code legitimately catches ``ReproError`` for
rollback, and a simulated crash must never be swallowed by those
handlers.

The *torn-write* mode is the second half of the harness: given a WAL
whose final record occupies ``[start, size)``, :func:`torn_tail_sizes`
enumerates every truncation length that leaves that record partially
written, and the crash-matrix test replays recovery at each one.
"""

from __future__ import annotations

from . import fsio

__all__ = ["CrashError", "FaultInjector", "NO_FAULTS", "FAULT_POINTS",
           "torn_tail_sizes"]

#: Every crash point the engine is instrumented with, in protocol order.
FAULT_POINTS = (
    # WAL append: record encode → write → fsync.
    "wal.append.before_write",
    "wal.append.before_fsync",
    "wal.append.after_fsync",
    # WAL reset (log truncation after a checkpoint): fresh header file
    # written+fsynced, then renamed over the old log.
    "wal.reset.before_rename",
    "wal.reset.after_rename",
    # Checkpoint: temp write → fsync → rename → re-point → WAL reset.
    "checkpoint.before_tmp_fsync",
    "checkpoint.after_tmp_fsync",
    "checkpoint.before_rename",
    "checkpoint.after_rename",
    "checkpoint.before_repoint",
    "checkpoint.before_wal_reset",
    "checkpoint.after_wal_reset",
    # Online index build (repro.storage.catalog.create_xml_index_online):
    # snapshot scan → write-locked WAL-delta catch-up → publish + log.
    "index.build.after_scan",
    "index.build.before_catchup",
    "index.build.before_publish",
    "index.build.after_publish",
)


class CrashError(Exception):
    """A simulated process crash raised at a named fault point.

    Deliberately NOT a :class:`repro.errors.ReproError`: rollback
    handlers that catch engine errors must not absorb it.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at {point}")
        self.point = point


class FaultInjector:
    """Arms one named crash point; deterministic and re-usable.

    ``crash_at=None`` (the :data:`NO_FAULTS` singleton) never fires.
    ``skip`` crashes on the (skip+1)-th hit of the point, so a test can
    let early appends through and kill a later one.  With
    ``lose_unsynced=True`` (default) a crash at a WAL point truncates
    the log file back to its last-fsynced size plus ``keep_bytes`` —
    simulating the loss of everything the OS had not yet made durable
    (``keep_bytes`` > 0 models a torn partial write that did reach the
    platter).
    """

    def __init__(self, crash_at: str | None = None, *, skip: int = 0,
                 lose_unsynced: bool = True, keep_bytes: int = 0):
        if crash_at is not None and crash_at not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {crash_at!r}; "
                             f"registered: {', '.join(FAULT_POINTS)}")
        self.crash_at = crash_at
        self.skip = skip
        self.lose_unsynced = lose_unsynced
        self.keep_bytes = keep_bytes
        self.fired = False

    def crash_point(self, point: str, *, path=None,
                    durable_bytes: int | None = None) -> None:
        """Called by the engine at each named instant; raises to crash.

        ``path``/``durable_bytes`` describe the WAL file and its
        last-fsynced size so the injector can simulate page-cache loss.
        """
        if point not in FAULT_POINTS:
            raise ValueError(f"unregistered fault point {point!r}")
        if point != self.crash_at or self.fired:
            return
        if self.skip > 0:
            self.skip -= 1
            return
        self.fired = True
        if (self.lose_unsynced and path is not None
                and durable_bytes is not None):
            size = fsio.file_size(path)
            kept = min(size, durable_bytes + self.keep_bytes)
            if kept < size:
                fsio.truncate(path, kept)
        raise CrashError(point)


#: Shared inert injector: the default for production instances.
NO_FAULTS = FaultInjector(None)


def torn_tail_sizes(last_record_start: int, file_size: int) -> list[int]:
    """Every truncation size that tears the final WAL record.

    Includes ``last_record_start`` itself (the record cleanly absent)
    through ``file_size - 1`` (one byte short); recovery must treat all
    of them as "final record never committed".
    """
    return list(range(last_record_start, file_size))
