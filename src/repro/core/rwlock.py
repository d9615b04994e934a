"""A reader-writer lock for the concurrent serving layer.

The :class:`Database` serializes DDL/ingest *writers* against any
number of concurrent query *readers*:

* readers share the lock — concurrent query threads (server sessions,
  a process pool's bootstrap) hold the read side simultaneously;
* writers are exclusive — an ``INSERT`` or ``CREATE INDEX`` runs only
  when no query is in flight, so a query never observes a half-updated
  index or a row list mid-append;
* writers are *preferred*, for one turn — once a writer is waiting,
  new reader threads queue behind it, so a steady query stream cannot
  starve ingest; a reader that has waited through one completed writer
  turn stops deferring to waiting writers, and writers wait for it, so
  an unpaced writer cannot starve queries either.

Re-entrancy rules (tracked per thread):

* a thread holding the read side may re-acquire it (``db2-fn:sqlquery``
  inside an XQuery re-enters the SQL entry point), bypassing writer
  preference — blocking would deadlock against its own outer hold;
* a thread holding the write side may re-acquire either side (the SQL
  ``INSERT`` path re-enters :meth:`Database.insert`);
* upgrading read → write is a programming error and raises — the
  entry points classify statements *before* acquiring, so the engine
  never attempts it.

Lock-wait observability: when :data:`repro.obs.metrics.METRICS` is
enabled, every acquisition increments ``rwlock.read_acquires`` /
``rwlock.write_acquires`` and contended waits are recorded in the
``rwlock.read_wait_seconds`` / ``rwlock.write_wait_seconds``
histograms.  Metrics are recorded *after* the internal condition is
released; the ordering rwlock → metrics is acyclic (metrics code never
touches this lock).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..analysis import sanitizer as _sanitizer
from ..obs.metrics import METRICS

__all__ = ["RWLock"]


class RWLock:
    """Shared-read / exclusive-write lock, writer-preferring for one
    writer turn, reentrant."""

    def __init__(self):
        self._cond = threading.Condition()
        #: Total read holds (including reentrant re-acquisitions).
        self._readers = 0
        self._writer: threading.Thread | None = None
        self._write_depth = 0
        self._writers_waiting = 0
        #: Completed writer turns (the write epoch).
        self._write_turns = 0
        #: Readers blocked in :meth:`acquire_read`.
        self._readers_waiting = 0
        #: Waiting readers that were waiting when the last writer turn
        #: ended: they go before any waiting writer.
        self._readers_due = 0
        self._local = threading.local()

    # -- per-thread hold bookkeeping ------------------------------------

    def _held_reads(self) -> int:
        return getattr(self._local, "reads", 0)

    # -- read side ------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.current_thread()
        waited = 0.0
        if _sanitizer.ACTIVE is not None:
            # Before the blocking wait: an inverted acquisition order
            # must be reported while both threads are still running.
            _sanitizer.ACTIVE.on_acquire(self, "read")
        with self._cond:
            if self._writer is me or self._held_reads():
                # Reentrant (or write-implies-read): never block on
                # writer preference while this thread already excludes
                # or shares the lock.
                self._readers += 1
                self._local.reads = self._held_reads() + 1
            else:
                if self._writer is not None or self._writers_waiting:
                    started = time.perf_counter()
                    epoch = self._write_turns
                    self._readers_waiting += 1
                    try:
                        while self._writer is not None or (
                                self._writers_waiting
                                and self._write_turns == epoch):
                            self._cond.wait()
                    finally:
                        self._readers_waiting -= 1
                        if self._write_turns != epoch:
                            self._readers_due -= 1
                    waited = time.perf_counter() - started
                self._readers += 1
                self._local.reads = 1
        if METRICS.enabled:
            METRICS.inc("rwlock.read_acquires")
            if waited:
                METRICS.observe("rwlock.read_wait_seconds", waited)

    def release_read(self) -> None:
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.on_release(self, "read")
        with self._cond:
            held = self._held_reads()
            if held <= 0:
                raise RuntimeError("release_read without acquire_read")
            self._local.reads = held - 1
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # -- write side -----------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.current_thread()
        waited = 0.0
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.on_acquire(self, "write")
        with self._cond:
            if self._writer is me:
                self._write_depth += 1
            else:
                if self._held_reads():
                    raise RuntimeError(
                        "read->write upgrade is not supported; classify "
                        "the statement before acquiring the lock")
                if self._writer is not None or self._readers or \
                        self._readers_due:
                    self._writers_waiting += 1
                    started = time.perf_counter()
                    try:
                        while self._writer is not None or self._readers \
                                or self._readers_due:
                            self._cond.wait()
                    finally:
                        self._writers_waiting -= 1
                    waited = time.perf_counter() - started
                self._writer = me
                self._write_depth = 1
        if METRICS.enabled:
            METRICS.inc("rwlock.write_acquires")
            if waited:
                METRICS.observe("rwlock.write_wait_seconds", waited)

    def release_write(self) -> None:
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.on_release(self, "write")
        with self._cond:
            if self._writer is not threading.current_thread():
                raise RuntimeError("release_write by non-owner thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._write_turns += 1
                self._readers_due = self._readers_waiting
                self._cond.notify_all()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection (tests, describe) --------------------------------

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_held(self) -> bool:
        return self._writer is not None

    @property
    def readers_waiting(self) -> int:
        return self._readers_waiting
