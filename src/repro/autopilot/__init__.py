"""Self-driving indexing: observe the workload, advise DDL, build
online.

The package closes the loop the rest of the engine leaves open: the
eligibility checker says whether an index *can* serve a query, the
lint (``repro lint``) says *why not* — the autopilot watches what actually runs
(:mod:`.profiler`), proposes the indexes the workload deserves
(:mod:`.candidates`), and builds them without stopping writers
(:meth:`repro.storage.catalog.Database.create_xml_index_online`).

Entry points: ``database.autopilot()``, the ``repro autopilot`` CLI
command, and ``repro serve --auto-index``.
"""

from .candidates import IndexCandidate, generate_candidates
from .facade import AutoIndexPolicy, Autopilot
from .profiler import WorkloadProfiler

__all__ = [
    "Autopilot", "AutoIndexPolicy", "IndexCandidate", "WorkloadProfiler", "generate_candidates",
]
