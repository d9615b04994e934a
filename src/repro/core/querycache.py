"""LRU compiled-query cache: parsed XQuery modules and lowered SQL.

Query texts repeat — benchmarks re-run the same workload, the CLI
replays history, SQL/XML statements embed the same XMLQUERY bodies row
after row.  Parsing and candidate extraction are pure functions of the
text (modules are never mutated after parse; rewrites construct new
Modules), so both are computed once per text and shared by
``xquery.evaluate``, the planner (:mod:`repro.planner.plan`), the SQL
executor, and the CLI.

SQL/XML statements are lowered once into closures
(:func:`compile_statement`).  A plan depends on the catalog, so it is
reused only under the catalog epoch it was lowered against (renewed by
every DDL); it holds no per-execution state.  Both kinds share one LRU,
one lock and the hit/miss counters.

The cache is shared process state, so all OrderedDict mutation and the
hit/miss counters sit behind one :data:`_lock`.  Parsing happens
*outside* the lock: it is pure and comparatively slow, so two threads
racing on the same new text may both parse it, but only one entry wins
a slot — correctness over de-duplication.  Lock ordering: this lock is
taken first and :data:`repro.obs.metrics.METRICS`'s lock second, never
the reverse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import METRICS

from ..xquery import ast
from ..xquery.parser import parse_xquery

__all__ = ["CompiledQuery", "compile_query", "compile_statement",
           "pin_query", "unpin_query", "cache_info", "clear_cache",
           "reinit_after_fork"]


@dataclass(frozen=True)
class CompiledQuery:
    """One cache entry: the parse result and its predicate candidates."""

    source: str
    module: ast.Module
    #: Extracted PredicateCandidates (tuple: shared read-only).
    candidates: tuple


@dataclass
class CacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int
    #: Entries held by prepared-statement handles — exempt from LRU
    #: eviction until every holder releases them.
    pinned: int = 0


_MAXSIZE = 256
_lock = threading.Lock()
#: source -> CompiledQuery; (SQL source, use_indexes) -> lowered SQL
_cache: OrderedDict = OrderedDict()
#: source -> pin refcount.  Pinned entries are skipped by eviction, so
#: a prepared-statement handle's plan survives arbitrary cache churn;
#: the cache may temporarily exceed _MAXSIZE when everything is pinned
#: (honest: the handles hold the memory either way).
_pins: dict[str, int] = {}
_hits = 0
_misses = 0


def compile_query(source: str) -> CompiledQuery:
    """Parse ``source`` and extract its predicate candidates, memoized
    with LRU eviction."""
    return _cached(source, lambda: _compile_xquery(source))


def compile_statement(view, source: str, use_indexes: bool):
    """``source`` lowered against ``view``'s catalog.  One entry per
    text: a plan of another catalog epoch is lowered again, replaced."""
    from ..sql.executor import lower_statement
    epoch = view.catalog_epoch
    return _cached((source, use_indexes),
                   lambda: lower_statement(view, source, use_indexes),
                   lambda plan: plan.epoch is epoch)


def _compile_xquery(source: str) -> CompiledQuery:
    module = parse_xquery(source)
    from ..static.infer import refine_candidates
    from .predicates import extract_candidates
    candidates = extract_candidates(module)
    # Static refinement is pure (DB-independent): inference fills in
    # comparison types and probe constants that syntax-directed
    # extraction could not see (let-hoisted casts, folded constants),
    # so every compile_query consumer — eligibility, planner, lint —
    # gets the sharpened candidates.
    refine_candidates(module, candidates)
    return CompiledQuery(source, module, tuple(candidates))


def _cached(key, build, valid=lambda entry: True):
    """The ``valid`` entry for ``key``; a miss builds it unlocked."""
    global _hits, _misses
    with _lock:
        entry = _cache.get(key)
        if entry is not None and valid(entry):
            _cache.move_to_end(key)
            _hits += 1
            if METRICS.enabled:
                METRICS.inc("querycache.hits")
            return entry
    entry = build()
    with _lock:
        _misses += 1
        if METRICS.enabled:
            METRICS.inc("querycache.misses")
        racing = _cache.get(key)
        if racing is not None and valid(racing):
            _cache.move_to_end(key)
            return racing
        _cache[key] = entry
        _cache.move_to_end(key)
        if len(_cache) > _MAXSIZE:
            for old in _cache:
                if old not in _pins:
                    del _cache[old]
                    if METRICS.enabled:
                        METRICS.inc("querycache.evictions")
                    break
    return entry


def pin_query(source: str) -> CompiledQuery:
    """Compile ``source`` and pin its cache entry against eviction.

    Prepared-statement handles call this once per ``PREPARE``; pins are
    reference-counted, so concurrent sessions preparing the same text
    share one entry.  Pair every call with :func:`unpin_query`.
    """
    with _lock:
        _pins[source] = _pins.get(source, 0) + 1
    try:
        return compile_query(source)
    except BaseException:
        unpin_query(source)
        raise


def unpin_query(source: str) -> None:
    """Release one pin on ``source`` (no-op when never pinned)."""
    with _lock:
        count = _pins.get(source)
        if count is None:
            return
        if count <= 1:
            del _pins[source]
        else:
            _pins[source] = count - 1


def cache_info() -> CacheInfo:
    with _lock:
        return CacheInfo(_hits, _misses, len(_cache), _MAXSIZE,
                         len(_pins))


def clear_cache() -> None:
    global _hits, _misses
    with _lock:
        _cache.clear()
        _pins.clear()
        _hits = 0
        _misses = 0


def reinit_after_fork() -> None:
    """Replace the module lock and start an empty cache.

    A forked child (``repro.parallel.worker``) inherits this module's
    lock in whatever state another parent thread held it at fork time —
    taking it would deadlock forever.  The child calls this before its
    first ``compile_query`` to install a fresh lock; no other thread
    can exist in the child yet, so the unguarded swap is safe.
    """
    global _lock, _hits, _misses
    _lock = threading.Lock()
    _cache.clear()
    _pins.clear()
    _hits = 0
    _misses = 0
