"""The worker process: recover the shipped cut, then serve the pipe.

``worker_main`` is the target of every :class:`~repro.parallel.pool.
ProcessPool` process.  The primary sends one ``init`` message — the
checkpoint records of the cut the pool was opened on — and the worker
recovers them into a plain :class:`~repro.storage.catalog.Database`
through :func:`~repro.durability.recovery.apply_checkpoint_state`, the
load step of crash recovery.  Nothing is applied after that: the pool
sends requests only while the primary's version still equals the
cut's.

Requests never transfer live node objects between processes: results
are serialized on the worker (each item as ``(text, is_atomic)`` so the
orchestrator can rebuild ``serialize_sequence`` byte-identically) and
the plan notes, span tree and compiled-query-cache outcome ride along
as plain data.

Message protocol (tuples, pickled by ``multiprocessing.Connection``):

=========================================  ================================
primary → worker                           worker → primary
=========================================  ================================
``("init", records)``                      ``("ready", pid)``
``("xquery", id, text, ref, positions,     ``("result", id, payload)`` or
  trace?, indent?)``                         ``("error", id, kind, msg)``
``("shutdown",)``                          — (worker exits)
=========================================  ================================
"""

from __future__ import annotations

import os

from ..core.querycache import cache_info, compile_query, reinit_after_fork
from ..durability.recovery import apply_checkpoint_state
from ..errors import ReproError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER, Tracer
from ..planner.plan import PrefilteredDatabase
from ..planner.stats import ExecutionStats
from ..storage.catalog import Database
from ..xdm.nodes import Node
from ..xdm.sequence import AtomicValue, document_order
from ..xmlio.serializer import serialize
from ..xquery import ast
from ..xquery.evaluator import evaluate_module

__all__ = ["bootstrap", "worker_main"]


def worker_main(conn) -> None:
    """Serve one recovered cut over ``conn`` until shutdown or EOF."""
    # Fork safety: re-arm process-global state inherited from the
    # primary.  A forked lock captured mid-acquisition by another
    # parent thread would deadlock on first use, and a forked compiled-
    # query cache would blur the worker-side hit accounting the pool
    # reports — start both from a clean slate.
    METRICS.__init__()  # fresh lock, disabled, empty counters
    reinit_after_fork()
    try:
        _kind, checkpoint = conn.recv()
    except (EOFError, OSError):
        return
    database = bootstrap(checkpoint)
    cut_lsn = checkpoint[0]["last_lsn"]
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "shutdown":
            return
        request_id = message[1]
        try:
            if kind != "xquery":
                raise ReproError(f"unknown pool message kind {kind!r}")
            payload = _serve_xquery(database, cut_lsn, *message[2:])
            conn.send(("result", request_id, payload))
        # sa: ok(SA408: a worker must survive any per-request failure
        # and report it to the primary, which falls back to serial
        # execution)
        except Exception as error:
            conn.send(("error", request_id, type(error).__name__,
                       str(error)))


def bootstrap(checkpoint: list[dict]) -> Database:
    """The worker's database: a plain one recovered from the cut's
    checkpoint records (:func:`~repro.durability.checkpoint.
    encode_database`), header first."""
    database = Database()
    apply_checkpoint_state(database, checkpoint)
    return database


def _serve_xquery(database, cut_lsn: int, query: str, reference: str,
                  positions: list[int], with_trace: bool,
                  indent: bool) -> dict:
    """One partition of a fanned-out xquery: evaluate and serialize.

    The primary already planned prefilters and resolved them to
    ``positions`` — indexes into the column's document list, which is
    identical on primary and worker because both hold the same cut.
    The worker therefore goes straight to evaluation over a
    PrefilteredDatabase view; it never re-plans.
    """
    before = cache_info()
    compiled = compile_query(query)
    cache_hit = cache_info().hits > before.hits
    table, column = database._split_reference(reference)
    docs = database.documents(table, column)
    chosen = {docs[position].doc_id for position in positions}
    view = PrefilteredDatabase(database, {reference: chosen})
    stats = ExecutionStats()
    tracer = (Tracer(statement=query, language="xquery") if with_trace
              else NULL_TRACER)
    with tracer.span("replica-eval", documents=len(positions),
                     pid=os.getpid(), applied_lsn=cut_lsn) as span:
        items = evaluate_module(compiled.module, database=view,
                                stats=stats)
        span.set(actual_rows=len(items), unit="items")
    if isinstance(compiled.module.body,
                  (ast.PathExpr, ast.FunctionCall)) \
            and all(isinstance(item, Node) for item in items):
        # Pure path bodies are document-order sorted per partition; the
        # orchestrator concatenates contiguous partitions, which
        # preserves global order because the worker's creation order
        # equals row order (the checkpoint lists rows in order).
        items = document_order(items)
    return {
        "items": [(serialize(item, indent=indent),
                   isinstance(item, AtomicValue)) for item in items],
        "stats": stats,
        "spans": tracer.to_dict()["spans"] if with_trace else None,
        "cache_hit": cache_hit,
    }
