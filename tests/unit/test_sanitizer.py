"""The runtime half of the concurrency sanitizer (``REPRO_SANITIZE=1``).

Every test runs inside ``sanitizer.installed()`` so the hooks in the
RWLock, Snapshot, pool and WAL engine are live, and drains the
violations it deliberately provokes — the autouse conftest fixture
turns any leftover into a test failure, which is itself part of the
contract under test.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.analysis import sanitizer
from repro.core.rwlock import RWLock
from repro.obs.metrics import METRICS, enabled_metrics


def _kinds(violations) -> list:
    return [violation.kind for violation in violations]


# -- lock-order graph ---------------------------------------------------


def test_deliberate_lock_inversion_is_caught():
    with sanitizer.installed() as state:
        first, second = RWLock(), RWLock()
        with first.read():
            with second.read():
                pass
        with second.read():
            with first.read():
                pass
        violations = state.drain()
    assert "lock_order" in _kinds(violations)
    caught = next(v for v in violations if v.kind == "lock_order")
    # Both witnesses travel with the finding: the acquiring stack and
    # the stack that recorded the opposite-order edge.
    assert caught.stack and caught.related_stack


def test_consistent_order_and_reentrancy_are_clean():
    with sanitizer.installed() as state:
        first, second = RWLock(), RWLock()
        for _ in range(3):
            with first.read():
                with second.read():
                    with second.read():     # shared re-entry
                        pass
        with first.write():
            with first.read():              # write-implies-read
                with second.write():
                    pass
        assert state.drain() == []


def test_inversion_across_threads_is_caught():
    with sanitizer.installed() as state:
        first, second = RWLock(), RWLock()

        def forward():
            with first.read():
                with second.read():
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        with second.read():
            with first.read():
                pass
        violations = state.drain()
    assert "lock_order" in _kinds(violations)


def test_upgrade_attempt_is_recorded_and_engine_still_raises():
    with sanitizer.installed() as state:
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()
        violations = state.drain()
        assert _kinds(violations) == ["upgrade"]
        # The failed upgrade must not corrupt hold bookkeeping: the
        # read hold is released cleanly and nothing is left behind.
        assert state.held_by_current_thread() == []


# -- fork safety --------------------------------------------------------


def test_fork_while_forking_thread_holds_is_flagged():
    with sanitizer.installed() as state:
        lock = RWLock()
        with lock.read():
            state.check_fork("test")
        violations = state.drain()
    assert "fork" in _kinds(violations)


def test_fork_while_another_thread_writes_is_flagged():
    with sanitizer.installed() as state:
        lock = RWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(5)

        worker = threading.Thread(target=writer)
        worker.start()
        acquired.wait(5)
        try:
            state.check_fork("test")
        finally:
            release.set()
            worker.join()
        violations = state.drain()
    assert "fork" in _kinds(violations)


def test_fork_with_concurrent_readers_is_allowed():
    # The pool's actual pattern: it forks while *other* threads sit in
    # shared read sections — legal, only writes clone torn state.
    with sanitizer.installed() as state:
        lock = RWLock()
        acquired = threading.Event()
        release = threading.Event()

        def reader():
            with lock.read():
                acquired.set()
                release.wait(5)

        worker = threading.Thread(target=reader)
        worker.start()
        acquired.wait(5)
        try:
            state.check_fork("test")
        finally:
            release.set()
            worker.join()
        assert state.drain() == []


# -- snapshot pinning ---------------------------------------------------


def _small_db() -> Database:
    database = Database()
    database.create_table("t", [("id", "INTEGER")])
    database.insert("t", {"id": 1})
    return database


def test_snapshot_mutation_is_caught():
    with sanitizer.installed() as state:
        database = _small_db()
        snapshot = database.snapshot()
        # Simulate the COW violation snapshots rule out: a writer
        # appending to the very list the snapshot pinned.
        snapshot.tables["t"].rows.append(snapshot.tables["t"].rows[0])
        snapshot.sql("SELECT id FROM t")
        violations = state.drain()
    assert "snapshot_mutation" in _kinds(violations)


def test_path_class_mutation_is_caught():
    with sanitizer.installed() as state:
        database = Database()
        database.create_table("d", [("doc", "XML")])
        database.insert("d", {"doc": "<a><b/></a>"})
        snapshot = database.snapshot()
        database.insert("d", {"doc": "<a><c/></a>"})  # COW: clean
        snapshot.sql("SELECT doc FROM d")
        assert state.drain() == []
        # A writer bumping a class count in the very map the snapshot
        # pinned, instead of replacing it.
        classes = snapshot.tables["d"].path_classes["doc"]
        key = next(iter(classes))
        classes[key] += 1
        snapshot.sql("SELECT doc FROM d")
        violations = state.drain()
    assert "snapshot_mutation" in _kinds(violations)
    caught = next(v for v in violations if v.kind == "snapshot_mutation")
    assert "path classes" in caught.message


def test_pinned_index_tree_shrink_is_caught():
    with sanitizer.installed() as state:
        database = Database()
        database.create_table("d", [("n", "INTEGER"), ("doc", "XML")])
        database.create_xml_index("xi", "d", "doc", "//k", "DOUBLE")
        database.create_relational_index("ri", "d", "n")
        for number in range(4):
            database.insert("d", {"n": number,
                                  "doc": f"<a><k>{number}</k></a>"})
        snapshot = database.snapshot()
        # Deletes forget, inserts grow, compaction swaps objects: clean.
        database.delete_rows("d", lambda values: values["n"] < 3)
        database.insert("d", {"n": 9, "doc": "<a><k>9</k></a>"})
        assert database.xml_indexes["xi"] is not snapshot.xml_indexes["xi"]
        snapshot.sql("SELECT n FROM d WHERE n = 1")
        assert state.drain() == []
        # A compaction that shrank the pinned tree in place instead.
        pinned = snapshot.xml_indexes["xi"]
        pinned.tree = pinned.compacted().tree
        snapshot.xquery("db2-fn:xmlcolumn('D.DOC')/a[k > 0]")
        violations = state.drain()
    assert "snapshot_mutation" in _kinds(violations)
    caught = next(v for v in violations if v.kind == "snapshot_mutation")
    assert "xml index 'xi': the tree" in caught.message
    assert "shrank from 4 to 1 entries" in caught.message


def test_copy_on_write_keeps_snapshots_clean():
    with sanitizer.installed() as state:
        database = _small_db()
        snapshot = database.snapshot()
        before = snapshot.sql("SELECT id FROM t").rows
        database.insert("t", {"id": 2})   # COW: replaces the list
        after = snapshot.sql("SELECT id FROM t").rows
        assert before == after == [(1,)]
        assert state.drain() == []


# -- WAL append order ---------------------------------------------------


def test_durable_writes_are_clean_under_sanitizer(tmp_path):
    from repro.durability.engine import DurableDatabase
    with sanitizer.installed() as state:
        with DurableDatabase(tmp_path / "data") as database:
            database.create_table("t", [("id", "INTEGER")])
            database.insert("t", {"id": 1})
            database.checkpoint()
            database.insert("t", {"id": 2})
        assert state.drain() == []


def test_wal_order_violations_are_caught(tmp_path):
    from repro.durability.engine import DurableDatabase
    with sanitizer.installed() as state:
        with DurableDatabase(tmp_path / "data") as database:
            database.create_table("t", [("id", "INTEGER")])
            # An append claimed outside the writer's critical section,
            # with a non-contiguous LSN: both invariants break.
            state.note_wal_append(database, 999)
            violations = state.drain()
    kinds = _kinds(violations)
    assert kinds.count("wal_order") == 2


# -- surfacing ----------------------------------------------------------


def test_violations_surface_as_metrics_counters():
    with enabled_metrics():
        with sanitizer.installed() as state:
            lock = RWLock()
            with lock.read():
                state.check_fork("test")
            state.drain()
        counters = METRICS.snapshot()["counters"]
    assert counters["sanitizer.fork"] == 1
    assert counters["sanitizer.violations"] == 1


def test_install_from_env(monkeypatch):
    previous = sanitizer.ACTIVE
    monkeypatch.setattr(sanitizer, "ACTIVE", None)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert sanitizer.install_from_env() is None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    state = sanitizer.install_from_env()
    assert state is not None and sanitizer.ACTIVE is state
    # A second call keeps the existing state (one graph per process).
    assert sanitizer.install_from_env() is state
    sanitizer.ACTIVE = previous


def test_disabled_sanitizer_records_nothing(monkeypatch):
    monkeypatch.setattr(sanitizer, "ACTIVE", None)
    first, second = RWLock(), RWLock()
    with first.read():
        with second.read():
            pass
    with second.read():
        with first.read():      # inverted — but nobody is watching
            pass
    assert sanitizer.violations() == []
    assert sanitizer.drain() == []
