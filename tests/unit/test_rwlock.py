"""Unit tests for the reader-writer lock behind the Database."""

import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.core.rwlock import RWLock
from repro.obs.metrics import METRICS, enabled_metrics


class TestBasics:
    def test_readers_share(self):
        lock = RWLock()
        with lock.read():
            assert lock.readers == 1
            with lock.read():           # reentrant on the same thread
                assert lock.readers == 2
            assert lock.readers == 1
        assert lock.readers == 0

    def test_write_is_exclusive_and_reentrant(self):
        lock = RWLock()
        with lock.write():
            assert lock.write_held
            with lock.write():
                assert lock.write_held
            assert lock.write_held
        assert not lock.write_held

    def test_writer_may_take_read_side(self):
        lock = RWLock()
        with lock.write():
            with lock.read():           # write-implies-read
                assert lock.readers == 1
        assert lock.readers == 0
        assert not lock.write_held

    def test_read_to_write_upgrade_raises(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()
        assert lock.readers == 0
        # Under REPRO_SANITIZE=1 the runtime sanitizer also flags this
        # deliberate upgrade attempt (SA402's dynamic twin); swallow
        # the finding so the autouse hard-failure fixture stays green.
        sanitizer.drain()

    def test_unbalanced_release_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestExclusion:
    def test_writer_blocks_until_readers_drain(self):
        lock = RWLock()
        order = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            with lock.read():
                order.append("reader-in")
                reader_in.set()
                release_reader.wait(5)
            order.append("reader-out")

        def writer():
            reader_in.wait(5)
            with lock.write():
                order.append("writer-in")

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        reader_in.wait(5)
        time.sleep(0.05)                # give the writer time to queue
        assert "writer-in" not in order
        release_reader.set()
        for thread in threads:
            thread.join(5)
        assert order == ["reader-in", "reader-out", "writer-in"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        events = {name: threading.Event()
                  for name in ("r1_in", "release_r1", "w_done", "r2_done")}
        order = []

        def first_reader():
            with lock.read():
                events["r1_in"].set()
                events["release_r1"].wait(5)

        def writer():
            events["r1_in"].wait(5)
            with lock.write():
                order.append("writer")
            events["w_done"].set()

        def second_reader():
            events["r1_in"].wait(5)
            time.sleep(0.05)            # let the writer start waiting
            with lock.read():
                order.append("reader2")
            events["r2_done"].set()

        threads = [threading.Thread(target=target) for target in
                   (first_reader, writer, second_reader)]
        for thread in threads:
            thread.start()
        events["r1_in"].wait(5)
        time.sleep(0.1)
        # Writer preference: reader2 must queue behind the writer.
        assert order == []
        events["release_r1"].set()
        for thread in threads:
            thread.join(5)
        assert order == ["writer", "reader2"]

    def test_unpaced_writer_admits_a_waiting_reader_within_two_turns(self):
        # The writer re-acquires the moment it releases, with no pause
        # between turns.  Writer preference must last one turn: the
        # reader that waited through it goes before the next.
        lock = RWLock()
        turns_with_reader_waiting = 0
        turns = 0
        writer_running = threading.Event()
        reader_done = threading.Event()

        def writer():
            nonlocal turns, turns_with_reader_waiting
            while not reader_done.is_set() and turns < 20_000:
                with lock.write():
                    turns += 1
                    if lock.readers_waiting:
                        turns_with_reader_waiting += 1
                    writer_running.set()

        def reader():
            writer_running.wait(5)
            with lock.read():
                pass
            reader_done.set()

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert reader_done.is_set()
        assert turns_with_reader_waiting <= 2
        assert lock.readers_waiting == 0 and not lock.write_held

    def test_parallel_readers_make_progress_together(self):
        lock = RWLock()
        barrier = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read():
                barrier.wait()          # deadlocks unless all 4 share

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert lock.readers == 0


class TestMetrics:
    def test_acquisitions_and_waits_are_counted(self):
        lock = RWLock()
        with enabled_metrics():
            with lock.read():
                pass
            with lock.write():
                pass
            snapshot = METRICS.snapshot()
        assert snapshot["counters"]["rwlock.read_acquires"] >= 1
        assert snapshot["counters"]["rwlock.write_acquires"] >= 1
