"""A pool of worker processes serving the cut it was opened on.

:class:`ProcessPool` escapes the GIL for partitionable queries.  On
construction it takes the database's shared read lock once, encodes a
checkpoint of the current state (the records a disk checkpoint holds)
and notes the database ``version``; it then spawns N worker processes
and ships each that checkpoint.  Each worker recovers it into a plain
:class:`~repro.storage.catalog.Database` and serves partition requests
from it — real processes, so N partitions evaluate on N cores.

Correctness rests on two invariants:

* **One freshness rule.**  Workers hold the cut and nothing after it.
  Every write bumps ``database.version`` (DDL, insert and delete on a
  plain or a durable primary alike), so a request is fanned out only
  while the version still equals the cut's; after any write the query
  runs serially on the primary, recorded under
  ``parallel.fallback_reason.freshness``.  The check and the fan-out
  happen under one hold of the read lock, so no writer slips between.
* **Order-preserving partitions.**  Partitions are contiguous ranges
  of *positions* in the column's document list (doc_ids are process-
  local counters and do not survive the pipe), worker row order
  equals primary row order (the checkpoint lists rows in order), and
  workers document-order pure path results locally — so concatenating
  the partition results in order is byte-identical to the serial
  answer.

Every serial fallback is recorded through
:func:`repro.parallel.gate.record_fallback`, and :meth:`ProcessPool.
xquery` degrades to the primary's ordinary execution path rather than
failing the query.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

from ..analysis import sanitizer as _sanitizer
from ..core.querycache import compile_query
from ..durability.checkpoint import encode_database
from ..errors import ReplicationError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..planner.plan import plan_prefilters
from ..planner.stats import ExecutionStats
from .gate import _partition, partition_reference, record_fallback
from .worker import worker_main

__all__ = ["ProcessPool", "ShippedQueryResult"]


class ShippedQueryResult:
    """A QueryResult lookalike whose items crossed a process boundary.

    Workers serialize on their side, so there are no live ``items`` —
    only ``(text, is_atomic)`` segments.  ``serialize()`` and
    ``serialized()`` match :class:`repro.planner.plan.QueryResult`
    byte-for-byte (including the space between adjacent atomics that
    ``serialize_sequence`` inserts).
    """

    def __init__(self, segments: list[tuple[str, bool]],
                 stats: ExecutionStats, *, partitions: int = 0,
                 worker_cache_hits: int = 0):
        self.segments = segments
        self.stats = stats
        #: How many replica partitions produced this result.
        self.partitions = partitions
        #: Workers that reused a compiled plan from their own cache —
        #: after the pool's first request for a statement this should
        #: equal ``partitions`` (the per-process cache is long-lived).
        self.worker_cache_hits = worker_cache_hits

    def __iter__(self):
        return iter(text for text, _ in self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def serialize(self) -> list[str]:
        return [text for text, _ in self.segments]

    def serialized(self) -> str:
        parts: list[str] = []
        previous_atomic = False
        for text, is_atomic in self.segments:
            if is_atomic and previous_atomic:
                parts.append(" ")
            parts.append(text)
            previous_atomic = is_atomic
        return "".join(parts)


class _Worker:
    """One worker process and its pipe endpoint."""

    __slots__ = ("process", "conn", "alive", "pid")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.alive = True
        self.pid: int | None = None


class ProcessPool:
    """N worker processes serving partitioned reads of one cut.

    Use as a context manager (or call :meth:`close`); worker processes
    are daemons, but a graceful shutdown message lets them exit their
    serve loop instead of being killed mid-request.
    """

    def __init__(self, database, processes: int = 2, *,
                 start_method: str | None = None,
                 response_timeout: float = 60.0):
        if processes < 1:
            raise ReplicationError(
                f"a process pool needs at least one worker, "
                f"got {processes}")
        self._database = database
        self._response_timeout = response_timeout
        self._context = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []
        self._closed = False
        self._request_counter = 0
        #: Serializes whole fan-outs and every pipe send: responses are
        #: read off the worker pipes, and two concurrent dispatchers
        #: would interleave requests and steal each other's replies.
        self._dispatch_lock = threading.Lock()

        started = time.perf_counter() if METRICS.enabled else 0.0
        # One consistent cut: the shared lock excludes writers, so the
        # state, its LSN and its version describe the same instant.
        wal = getattr(database, "wal", None)
        with database._rwlock.read():
            self._version = database.version
            # Documents ship as column segments: workers adopt them
            # without parsing, as recovery does.
            checkpoint = encode_database(
                database, wal.last_lsn if wal is not None else 0)
        try:
            self._spawn_workers(processes, checkpoint)
        except BaseException:
            self.close()
            raise
        if METRICS.enabled:
            METRICS.observe("replication.bootstrap_seconds",
                            time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn_workers(self, processes: int,
                       checkpoint: list[dict]) -> None:
        if _sanitizer.ACTIVE is not None:
            # The bootstrap read section above has been released by
            # now; a held lock here would be cloned into every child.
            _sanitizer.ACTIVE.check_fork("ProcessPool._spawn_workers")
        for _ in range(processes):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=worker_main, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_Worker(process, parent_conn))
        for worker in self._workers:
            self._send(worker, ("init", checkpoint))
        for worker in self._workers:
            self._await_ready(worker)

    def _await_ready(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        if not worker.conn.poll(self._response_timeout):
            self._demote(worker, "init-timeout")
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._demote(worker, "init-eof")
            return
        if message[0] == "ready":
            worker.pid = message[1]
        else:
            self._demote(worker, "init-protocol")

    def close(self) -> None:
        """Graceful shutdown: signal, join, reap.

        Idempotent; also invoked by ``__exit__``.  Workers that ignore
        the shutdown message within a short grace period are
        terminated — they are daemons serving an in-memory copy, so
        nothing needs flushing.
        """
        if self._closed:
            return
        self._closed = True
        with self._dispatch_lock:
            for worker in self._workers:
                if worker.alive:
                    self._send(worker, ("shutdown",))
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                # terminate() is SIGTERM, which stays *pending* on a
                # stopped (SIGSTOPped) process; SIGKILL does not.
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.alive = False
            if not worker.conn.closed:
                worker.conn.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    # ------------------------------------------------------------------
    # Partitioned reads
    # ------------------------------------------------------------------

    def xquery(self, query: str, use_indexes: bool = True,
               tracer=None, indent: bool = False):
        """Fan one partitionable XQuery across the worker processes.

        Anything the soundness gate (:mod:`repro.parallel.gate`)
        refuses, any write since the pool opened, and any worker
        failure runs serially on the primary instead, with the reason
        recorded.  Returns a :class:`ShippedQueryResult` on the
        parallel path, the primary's ordinary ``QueryResult`` on
        fallbacks.
        """
        tracer = tracer or NULL_TRACER
        if self._closed:
            return self._fallback(query, use_indexes, tracer,
                                  "pool-closed")
        compiled = compile_query(query)
        reference = partition_reference(compiled.module)
        if reference is None:
            return self._fallback(query, use_indexes, tracer,
                                  "gate-rejected")
        alive = [worker for worker in self._workers if worker.alive]
        if len(alive) < 2:
            return self._fallback(query, use_indexes, tracer,
                                  "single-worker")
        started = time.perf_counter() if METRICS.enabled else 0.0
        database = self._database
        with self._dispatch_lock, database._rwlock.read():
            if database.version != self._version:
                # The workers hold the cut; the primary has moved on.
                return self._fallback(query, use_indexes, tracer,
                                      "freshness")
            table, column = database._split_reference(reference)
            documents = database.documents(table, column)
            if len(documents) < 2:
                # Checked against the raw column (before prefiltering):
                # an index that narrows 1000 documents to one still
                # deserves the fan-out machinery's stats/notes, but a
                # one-document column never does.
                return self._fallback(query, use_indexes, tracer,
                                      "too-few-docs")
            stats = ExecutionStats()
            positions = self._plan_positions(
                database, compiled, reference, documents, use_indexes,
                stats)
            partitions = _partition(positions, len(alive))
            stats.note(f"process-parallel: {len(positions)} documents "
                       f"of {reference} across {len(partitions)} "
                       f"replica processes")
            requests = []
            for worker, partition in zip(alive, partitions):
                request_id = self._next_request_id()
                self._send(worker, (
                    "xquery", request_id, query, reference, partition,
                    bool(tracer), indent))
                requests.append((worker, request_id))
            payloads = self._collect(requests)
        if len(payloads) != len(requests):
            return self._fallback(query, use_indexes, tracer,
                                  "worker-error")

        segments: list[tuple[str, bool]] = []
        cache_hits = 0
        for worker_index, (worker, request_id) in enumerate(requests):
            payload = payloads[request_id]
            segments.extend(payload["items"])
            stats.merge(payload["stats"])
            cache_hits += 1 if payload["cache_hit"] else 0
            if payload["spans"]:
                tracer.attach_remote(payload["spans"],
                                     worker=worker_index,
                                     pid=worker.pid or -1)
        stats.note(f"replica compiled-query cache: {cache_hits}/"
                   f"{len(requests)} partitions reused a plan")
        if METRICS.enabled:
            METRICS.inc("process.fanouts")
            METRICS.inc("process.partitions", len(partitions))
            METRICS.observe("process.seconds",
                            time.perf_counter() - started)
        return ShippedQueryResult(segments, stats,
                                  partitions=len(partitions),
                                  worker_cache_hits=cache_hits)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_positions(self, database, compiled, reference: str,
                        documents, use_indexes: bool,
                        stats: ExecutionStats) -> list[int]:
        """Index-prefilter once on the primary, return the surviving
        row positions (the wire form of a partition)."""
        positions = list(range(len(documents)))
        if not use_indexes:
            return positions
        prefilter = next((prefilter for column, prefilter in plan_prefilters(
            database, list(compiled.candidates), stats).items()
            if column.lower() == reference.lower()), None)
        if prefilter is None:
            return positions
        allowed = prefilter.run(stats)
        for note in prefilter.notes:
            stats.note(note)
        stats.note(f"prefilter {prefilter.column}: {len(allowed)} documents "
                   f"survive")
        return [position for position in positions
                if documents[position].doc_id in allowed]

    def _fallback(self, query: str, use_indexes: bool, tracer,
                  reason: str):
        record_fallback(reason, tracer)
        return self._database.xquery(query, use_indexes=use_indexes,
                                     tracer=tracer)

    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _send(self, worker: _Worker, message: tuple) -> None:
        """Send under ``_dispatch_lock`` (the caller holds it, or is
        the constructor); a dead pipe demotes the worker instead of
        failing the operation."""
        try:
            worker.conn.send(message)
        except (OSError, ValueError):
            self._demote(worker, "send-failed")

    def _demote(self, worker: _Worker, reason: str) -> None:
        """Retire a failed worker *completely*: terminate and join its
        process and close our pipe end.

        Flagging ``alive = False`` alone leaks the process (a hung
        replica keeps its core, its replica memory, and — as a child we
        never join — eventually a zombie entry) and the pipe fd.  The
        pool must shrink honestly: after demotion the process is gone,
        the fd is closed, and ``workers_alive()`` tells the truth.
        Safe against already-exited processes and double demotion.
        """
        already = not worker.alive and worker.conn.closed
        worker.alive = False
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():
            # terminate() is SIGTERM, which a *stopped* (SIGSTOPped —
            # exactly how a worker hangs without burning CPU) process
            # leaves pending forever; SIGKILL acts regardless.
            process.kill()
            process.join(timeout=5.0)
        else:
            process.join(timeout=0)  # reap an already-dead child
        if not worker.conn.closed:
            worker.conn.close()
        if not already and METRICS.enabled:
            METRICS.inc("parallel.workers_demoted")

    def _collect(self, requests) -> dict[int, dict]:
        """Await one response per request; the payloads that arrived.

        Pipes are FIFO and workers serve serially, so each worker's
        replies arrive in its own request order.  On a failure the
        remaining workers are still drained (bounded by the response
        timeout) so stray replies cannot pollute the next fan-out; an
        unresponsive worker is demoted.
        """
        payloads: dict[int, dict] = {}
        for worker, request_id in requests:
            message = self._recv_matching(worker, request_id)
            if message is not None and message[0] == "result":
                payloads[request_id] = message[2]
        return payloads

    def _recv_matching(self, worker: _Worker, request_id: int):
        """The next reply (result or error) for ``request_id``; None on
        timeout/EOF, which also demotes the worker."""
        if not worker.alive:
            return None
        deadline = time.monotonic() + self._response_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.conn.poll(remaining):
                self._demote(worker, "response-timeout")
                return None
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._demote(worker, "recv-eof")
                return None
            if message[1] == request_id:
                return message
            # A reply to an abandoned earlier request: drop it.
