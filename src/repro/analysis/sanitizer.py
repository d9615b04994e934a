"""The runtime half of the concurrency sanitizer (``REPRO_SANITIZE=1``).

When installed, the RWLock's acquire/release paths report into a
global lock-order graph: every first acquisition records an edge from
each lock the thread already holds, stamped with the acquiring stack,
and a cycle detected **at acquire time** produces a violation carrying
both stacks — the inverted pair is caught the first time it happens,
not the day the schedules interleave into a real deadlock.  The same
state asserts no lock is held across ``fork``, detects mutation seen
through a pinned :class:`~repro.storage.snapshot.Snapshot`, and
verifies WAL append order equals apply order in
:class:`~repro.durability.engine.DurableDatabase`.

Violations are *recorded*, not raised: a sanitizer must observe the
engine, not change its control flow.  They surface three ways —

* ``sanitizer.*`` counters in :data:`repro.obs.metrics.METRICS`
  (when metrics are enabled),
* :func:`violations` / :func:`drain` for tests and tools,
* a hard pytest failure: the autouse fixture in ``tests/conftest.py``
  drains after every test and asserts the list is empty.

The disabled cost is one module-global load and an ``is None`` test
per lock operation (``ACTIVE`` below), mirroring the
``if METRICS.enabled:`` discipline; ``benchmarks/bench_sanitizer.py``
keeps that claim honest.

Everything here is stdlib-only (plus the metrics registry) so the
low-level modules that call in — ``core/rwlock.py``,
``storage/snapshot.py`` — can import it without cycles.
"""

from __future__ import annotations

import os
import threading
import traceback
from contextlib import contextmanager

from ..obs.metrics import METRICS

__all__ = ["SanitizerState", "Violation", "install", "uninstall",
           "current", "installed", "violations", "drain",
           "install_from_env"]

#: The live state, or None.  Call sites guard with
#: ``if sanitizer.ACTIVE is not None`` — a module-attribute load and
#: an identity test, free enough for the lock hot path.
ACTIVE: "SanitizerState | None" = None

_ENV_FLAG = "REPRO_SANITIZE"


class Violation:
    """One recorded invariant breach."""

    __slots__ = ("kind", "message", "stack", "related_stack")

    def __init__(self, kind: str, message: str, stack: str = "",
                 related_stack: str = ""):
        self.kind = kind          # lock_order | upgrade | fork | ...
        self.message = message
        self.stack = stack
        self.related_stack = related_stack

    def render(self) -> str:
        parts = [f"sanitizer.{self.kind}: {self.message}"]
        if self.stack:
            parts.append("--- acquiring stack ---\n" + self.stack)
        if self.related_stack:
            parts.append("--- conflicting stack ---\n"
                         + self.related_stack)
        return "\n".join(parts)

    def __repr__(self) -> str:
        return f"<Violation {self.kind}: {self.message[:60]}>"


class _Held:
    __slots__ = ("lock_id", "mode", "depth")

    def __init__(self, lock_id: int, mode: str):
        self.lock_id = lock_id
        self.mode = mode
        self.depth = 1


def _stack() -> str:
    return "".join(traceback.format_stack(limit=12)[:-2])


class SanitizerState:
    """Global lock-order graph + per-thread hold tracking.

    The internal ``_mutex`` is a leaf lock: every critical section is
    a few dict operations and never calls back into the engine, so it
    cannot participate in the cycles it is hunting.
    """

    def __init__(self):
        self._mutex = threading.Lock()
        #: Strong references keyed by id() — retaining the lock objects
        #: prevents id reuse from stitching phantom edges between a
        #: dead lock and a new one at the same address.
        self._objects: dict[int, object] = {}
        self._names: dict[int, str] = {}
        #: lock-order edges: a_id -> {b_id: stack that added the edge}.
        self._edges: dict[int, dict[int, str]] = {}
        #: thread ident -> [_Held] in acquisition order.  Kept in one
        #: dict (not threading.local) so the fork check can see every
        #: thread's holds.
        self._held: dict[int, list] = {}
        self._violations: list[Violation] = []

    # -- bookkeeping ----------------------------------------------------

    def _register(self, lock, name: str | None) -> int:
        lock_id = id(lock)
        if lock_id not in self._objects:
            self._objects[lock_id] = lock
            self._names[lock_id] = name or type(lock).__name__
        return lock_id

    def _name(self, lock_id: int) -> str:
        return f"{self._names.get(lock_id, '?')}@{lock_id:#x}"

    def _reaches(self, start: int, goal: int) -> bool:
        seen = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
        return False

    def note_violation(self, kind: str, message: str, stack: str = "",
                       related_stack: str = "") -> None:
        violation = Violation(kind, message, stack, related_stack)
        with self._mutex:
            self._violations.append(violation)
        if METRICS.enabled:
            METRICS.inc(f"sanitizer.{kind}")
            METRICS.inc("sanitizer.violations")

    # -- RWLock hooks ---------------------------------------------------

    def on_acquire(self, lock, mode: str, name: str | None = None
                   ) -> None:
        """Called at acquire entry, *before* any blocking wait — so an
        inverted order is reported while both threads still run."""
        ident = threading.get_ident()
        with self._mutex:
            lock_id = self._register(lock, name)
            held = self._held.setdefault(ident, [])
            for entry in held:
                if entry.lock_id == lock_id:
                    if entry.mode == "read" and mode == "write":
                        # The RWLock raises on upgrade — the acquire
                        # never succeeds, so the hold depth must not
                        # change here.
                        self.record_upgrade(lock_id)
                        return
                    entry.depth += 1
                    return
            conflicts = [
                (entry.lock_id,
                 self._edges.get(lock_id, {}).get(entry.lock_id, ""))
                for entry in held
                if self._reaches(lock_id, entry.lock_id)]
            new_edges = [entry.lock_id for entry in held
                         if lock_id not in
                         self._edges.get(entry.lock_id, ())]
            if new_edges:
                stack = _stack()
                for held_id in new_edges:
                    self._edges.setdefault(held_id, {})[lock_id] = stack
            held.append(_Held(lock_id, mode))
        for held_id, related in conflicts:
            self.note_violation(
                "lock_order",
                f"acquiring {self._name(lock_id)} ({mode}) while "
                f"holding {self._name(held_id)}; the opposite order "
                f"was seen earlier — potential deadlock",
                stack=_stack(), related_stack=related)

    def record_upgrade(self, lock_id: int) -> None:
        # Called with _mutex held; defer the violation append.
        violation = Violation(
            "upgrade",
            f"read->write upgrade attempted on {self._name(lock_id)}",
            stack=_stack())
        self._violations.append(violation)
        if METRICS.enabled:
            METRICS.inc("sanitizer.upgrade")
            METRICS.inc("sanitizer.violations")

    def on_release(self, lock, mode: str) -> None:
        ident = threading.get_ident()
        with self._mutex:
            held = self._held.get(ident)
            if not held:
                return
            lock_id = id(lock)
            for index in range(len(held) - 1, -1, -1):
                if held[index].lock_id == lock_id:
                    held[index].depth -= 1
                    if held[index].depth == 0:
                        del held[index]
                    break
            if not held:
                del self._held[ident]

    # -- fork safety ----------------------------------------------------

    def check_fork(self, where: str = "fork") -> None:
        """No instrumented lock may be held across a fork.

        The forking thread must hold nothing at all; *other* threads
        may legitimately be inside shared read sections (the pool
        forks workers while readers run), but a concurrent **write**
        hold means the child clones catalog state mid-mutation."""
        ident = threading.get_ident()
        with self._mutex:
            mine = list(self._held.get(ident, ()))
            other_writes = [
                entry for thread, entries in self._held.items()
                if thread != ident for entry in entries
                if entry.mode == "write"]
        for entry in mine:
            self.note_violation(
                "fork", f"{where}: forking thread holds "
                f"{entry.mode}({self._name(entry.lock_id)}); the "
                f"child would clone a held lock", stack=_stack())
        for entry in other_writes:
            self.note_violation(
                "fork", f"{where}: another thread holds "
                f"write({self._name(entry.lock_id)}) across the "
                f"fork; the child clones mid-mutation state",
                stack=_stack())

    # -- snapshot pinning -----------------------------------------------

    def fingerprint_snapshot(self, snapshot) -> None:
        snapshot._sanitizer_rows = {
            name: (id(table.rows), len(table.rows))
            for name, table in snapshot.tables.items()}
        snapshot._sanitizer_classes = {
            (name, column): (id(classes), sum(classes.values()))
            for name, table in snapshot.tables.items()
            for column, classes in table.path_classes.items()}

    def verify_snapshot(self, snapshot) -> None:
        expected = getattr(snapshot, "_sanitizer_rows", None)
        if expected is None:
            return
        for name, (rows_id, length) in expected.items():
            table = snapshot.tables.get(name)
            if table is None:
                continue
            if id(table.rows) == rows_id and len(table.rows) != length:
                self._snapshot_mutated(
                    snapshot, f"table {name!r}: the row list",
                    f"changed length {length} -> {len(table.rows)}")
        for (name, column), (classes_id, docs) in \
                snapshot._sanitizer_classes.items():
            table = snapshot.tables.get(name)
            if table is None:
                continue
            classes = table.path_classes.get(column, {})
            if id(classes) != classes_id:
                self._snapshot_mutated(
                    snapshot, f"table {name!r}: the path classes of "
                    f"column {column!r}", "were replaced")
            elif sum(classes.values()) != docs:
                self._snapshot_mutated(
                    snapshot, f"table {name!r}: the path classes of "
                    f"column {column!r}",
                    f"changed document total {docs} -> "
                    f"{sum(classes.values())}")

    def _snapshot_mutated(self, snapshot, what: str, how: str) -> None:
        self.note_violation(
            "snapshot_mutation",
            f"{what} pinned by {snapshot!r} {how} in place; writers "
            f"must replace containers, never mutate them",
            stack=_stack())

    # -- WAL order ------------------------------------------------------

    def note_wal_append(self, engine, lsn: int) -> None:
        rwlock = getattr(engine, "_rwlock", None)
        if rwlock is not None and \
                getattr(rwlock, "_writer", None) is not \
                threading.current_thread():
            self.note_violation(
                "wal_order",
                f"WAL append of LSN {lsn} outside the writer's "
                f"critical section; append order is only apply order "
                f"while the exclusive lock spans both", stack=_stack())
        last = getattr(engine, "_sanitizer_last_lsn", None)
        if last is not None and lsn != last + 1:
            self.note_violation(
                "wal_order",
                f"WAL LSN jumped {last} -> {lsn}; appends must be "
                f"contiguous within one engine", stack=_stack())
        engine._sanitizer_last_lsn = lsn

    # -- inspection -----------------------------------------------------

    def violations(self) -> list:
        with self._mutex:
            return list(self._violations)

    def drain(self) -> list:
        with self._mutex:
            drained = list(self._violations)
            self._violations.clear()
            return drained

    def held_by_current_thread(self) -> list:
        with self._mutex:
            return [(self._names.get(entry.lock_id, "?"), entry.mode)
                    for entry in
                    self._held.get(threading.get_ident(), ())]


def install() -> SanitizerState:
    """Install a fresh global state (idempotent per call: replaces)."""
    global ACTIVE
    ACTIVE = SanitizerState()
    return ACTIVE


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


def current() -> SanitizerState | None:
    return ACTIVE


@contextmanager
def installed():
    """A fresh state for the duration of a block (tests); restores
    whatever was active before — including None."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = SanitizerState()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


def install_from_env() -> SanitizerState | None:
    """Install when ``REPRO_SANITIZE=1`` (called on package import)."""
    if os.environ.get(_ENV_FLAG) == "1" and ACTIVE is None:
        return install()
    return ACTIVE


def violations() -> list:
    return ACTIVE.violations() if ACTIVE is not None else []


def drain() -> list:
    return ACTIVE.drain() if ACTIVE is not None else []
