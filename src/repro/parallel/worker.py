"""The follower process: bootstrap a replica, then serve the pipe.

``worker_main`` is the target of every :class:`~repro.parallel.pool.
ProcessPool` process.  Its contract is built on one property: the pipe
is FIFO.  The primary sends, in order, one ``init`` message (checkpoint
records + base LSN), then an interleaving of ``wal`` records (log
shipping, sent from inside the primary's exclusive writer section) and
request messages (sent while the primary holds its read lock).  Because
every record the primary applied before a request was *sent* before
that request, draining the pipe in order means the replica is never
behind the watermark a request carries — the ``ensure_fresh`` check is
a corruption tripwire, not an expected path.

Requests never transfer live node objects between processes: results
are serialized on the worker (each item as ``(text, is_atomic)`` so the
orchestrator can rebuild ``serialize_sequence`` byte-identically) and
the compiled query, plan notes, span tree and compiled-query-cache
outcome ride along as plain data.

Message protocol (tuples, pickled by ``multiprocessing.Connection``):

=========================================  ================================
primary → worker                           worker → primary
=========================================  ================================
``("init", records, base_lsn, order)``     ``("ready", applied, pid)``
``("wal", lsn, record)``                   —
``("xquery", id, text, ref, positions,     ``("result", id, payload)`` or
  required_lsn, trace?, indent?)``           ``("error", id, kind, msg,
``("stmt", id, text, required_lsn)``         applied)``
``("ping", id)``                           ``("pong", id, applied)``
``("shutdown",)``                          — (worker exits)
=========================================  ================================
"""

from __future__ import annotations

import os

from ..core.querycache import cache_info, compile_query, reinit_after_fork
from ..errors import ReproError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER, Tracer
from ..planner.plan import PrefilteredDatabase
from ..planner.stats import ExecutionStats
from ..xdm.nodes import Node
from ..xdm.sequence import AtomicValue, document_order
from ..xmlio.serializer import serialize
from ..xquery import ast
from ..xquery.evaluator import evaluate_module
from .replica import build_replica

__all__ = ["worker_main"]


def worker_main(conn) -> None:
    """Serve one replica over ``conn`` until shutdown or EOF."""
    # Fork safety: re-arm process-global state inherited from the
    # primary.  A forked lock captured mid-acquisition by another
    # parent thread would deadlock on first use, and a forked compiled-
    # query cache would blur the worker-side hit accounting the pool
    # reports — start both from a clean slate.
    METRICS.__init__()  # fresh lock, disabled, empty counters
    reinit_after_fork()
    try:
        message = conn.recv()
    except (EOFError, OSError):
        return
    replica = _bootstrap(conn, message)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "shutdown":
            return
        if kind == "wal":
            _lsn, _record = message[1], message[2]
            replica.apply_wal_record(_lsn, _record)
            continue
        if kind == "init":
            # Resync: rebuild the replica from freshly shipped state
            # (used for non-durable primaries whose writes don't ship).
            replica = _bootstrap(conn, message)
            continue
        if kind == "ping":
            conn.send(("pong", message[1], replica.last_applied_lsn))
            continue
        request_id = message[1]
        try:
            if kind == "xquery":
                payload = _serve_xquery(replica, *message[2:])
            elif kind == "stmt":
                payload = _serve_statement(replica, *message[2:])
            else:
                raise ReproError(f"unknown pool message kind {kind!r}")
            conn.send(("result", request_id, payload))
        # sa: ok(SA408: a worker must survive any per-request failure
        # and report it to the primary, which falls back to serial
        # execution)
        except Exception as error:
            conn.send(("error", request_id, type(error).__name__,
                       str(error), replica.last_applied_lsn))


def _bootstrap(conn, message):
    """Handle an ``init`` message: recover state into a fresh replica."""
    _kind, checkpoint, base_lsn, index_order = message
    replica = build_replica(checkpoint, [], index_order=index_order)
    if checkpoint is None:
        replica.last_applied_lsn = base_lsn
    conn.send(("ready", replica.last_applied_lsn, os.getpid()))
    return replica


def _serve_xquery(replica, query: str, reference: str,
                  positions: list[int], required_lsn: int,
                  with_trace: bool, indent: bool) -> dict:
    """One partition of a fanned-out xquery: evaluate and serialize.

    The primary already planned prefilters and resolved them to
    ``positions`` — indexes into the column's document list, which is
    identical on primary and replica because shipped records replay in
    LSN order.  The worker therefore goes straight to evaluation over a
    PrefilteredDatabase view; it never re-plans.
    """
    replica.ensure_fresh(required_lsn)
    before = cache_info()
    compiled = compile_query(query)
    cache_hit = cache_info().hits > before.hits
    table, column = replica._split_reference(reference)
    docs = replica.documents(table, column)
    chosen = {docs[position].doc_id for position in positions}
    view = PrefilteredDatabase(replica, {reference: chosen})
    stats = ExecutionStats()
    tracer = (Tracer(statement=query, language="xquery") if with_trace
              else NULL_TRACER)
    with tracer.span("replica-eval", documents=len(positions),
                     pid=os.getpid(),
                     applied_lsn=replica.last_applied_lsn) as span:
        items = evaluate_module(compiled.module, database=view,
                                stats=stats)
        span.set(actual_rows=len(items), unit="items")
    if isinstance(compiled.module.body,
                  (ast.PathExpr, ast.FunctionCall)) \
            and all(isinstance(item, Node) for item in items):
        # Pure path bodies are document-order sorted per partition; the
        # orchestrator concatenates contiguous partitions, which
        # preserves global order because replica creation order equals
        # row order (records replay in LSN order).
        items = document_order(items)
    return {
        "items": [(serialize(item, indent=indent),
                   isinstance(item, AtomicValue)) for item in items],
        "stats": stats,
        "spans": tracer.to_dict()["spans"] if with_trace else None,
        "cache_hit": cache_hit,
        "applied": replica.last_applied_lsn,
    }


def _serve_statement(replica, statement: str, required_lsn: int) -> dict:
    """One statement of a fanned-out ``execute_many`` batch.

    Read-only by construction (the pool routes any batch containing a
    write head to the primary); the replica refuses writes anyway.
    Unlike the partitioned xquery path this runs the full planner on
    the replica — its own indexes were rebuilt from shipped DDL.
    """
    replica.ensure_fresh(required_lsn)
    head = statement.lstrip().upper()
    if head.startswith(("SELECT", "VALUES")):
        result = replica.sql(statement)
        return {
            "sql": True,
            "columns": list(result.columns),
            "rows": [list(row) for row in result.serialize_rows()],
            "stats": result.stats,
            "applied": replica.last_applied_lsn,
        }
    result = replica.xquery(statement)
    return {
        "items": [(serialize(item), isinstance(item, AtomicValue))
                  for item in result.items],
        "stats": result.stats,
        "spans": None,
        "cache_hit": False,
        "applied": replica.last_applied_lsn,
    }
