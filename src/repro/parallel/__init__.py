"""Process-parallel execution: a pool serves the cut it was opened on.

CPython's GIL holds threads to roughly one core of XQuery evaluation;
this package — the engine's one parallel backend — escapes it with
real processes.  The primary encodes a checkpoint of its current state
under the read lock (the same encoding :mod:`repro.durability.
checkpoint` writes to disk), ships it over a pipe to N worker
processes, and each worker recovers it into a plain
:class:`~repro.storage.catalog.Database`.  A long-lived
:class:`~repro.parallel.pool.ProcessPool` amortizes that one-time
bootstrap across every query it serves.

Workers never see a write.  The pool notes the primary's ``version``
at the cut; once any write moves it, every later query runs serially
on the primary instead, recorded under
``parallel.fallback_reason.freshness``.  A pool opened after the
writes serves the new state.
"""

from __future__ import annotations

from .pool import ProcessPool, ShippedQueryResult

__all__ = ["ProcessPool", "ShippedQueryResult"]
