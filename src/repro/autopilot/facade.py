"""The autopilot facade: observe → advise → apply.

:class:`Autopilot` ties the self-driving loop together on top of one
database:

* attaching it installs a :class:`~repro.autopilot.profiler.
  WorkloadProfiler` on the database (``database.workload_profiler``),
  which the executors feed on every statement;
* :meth:`advise` turns the accumulated profile into ranked CREATE
  INDEX candidates (:mod:`repro.autopilot.candidates`);
* :meth:`apply` executes the top candidates through the **online**
  build path (:meth:`Database.create_xml_index_online`), so running
  queries and writers proceed while the index backfills.

:class:`AutoIndexPolicy` runs the advise→apply half on a background
daemon thread — the opt-in ``--auto-index`` mode of the CLI and
server.

Metrics (``autopilot.*``) follow the registry discipline: every
recording site is guarded by ``METRICS.enabled``.
"""

from __future__ import annotations

import threading

from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from .candidates import generate_candidates
from .profiler import WorkloadProfiler

__all__ = ["Autopilot", "AutoIndexPolicy"]


class Autopilot:
    """Workload-driven index selection for one database."""

    def __init__(self, database, *, min_benefit: float = 0.0,
                 max_statements: int | None = None):
        self.database = database
        self.min_benefit = min_benefit
        profiler = getattr(database, "workload_profiler", None)
        if profiler is None:
            kwargs = ({"max_statements": max_statements}
                      if max_statements else {})
            profiler = WorkloadProfiler(**kwargs)
            database.workload_profiler = profiler
        self.profiler = profiler
        self.applied: list[str] = []    # DDL texts, in apply order
        self.last_advice: list = []

    # -- the loop -------------------------------------------------------

    def observe(self, statements) -> int:
        """Run a batch of statements so the profiler sees them.

        Convenience for replaying a captured workload; live traffic is
        profiled automatically once the autopilot is attached."""
        count = 0
        for statement in statements:
            self.database.execute_any(statement)
            count += 1
        return count

    def advise(self, tracer=None) -> list:
        """Ranked :class:`IndexCandidate` list for the observed load."""
        with (tracer or NULL_TRACER).span("autopilot.advise"):
            advice = generate_candidates(self.database, self.profiler)
        advice = [candidate for candidate in advice
                  if candidate.benefit > self.min_benefit]
        self.last_advice = advice
        if METRICS.enabled:
            METRICS.set_gauge("autopilot.candidates", len(advice))
        return advice

    def apply(self, limit: int | None = None, tracer=None) -> list:
        """Build the top ``limit`` advised indexes online.

        Returns the candidates actually built.  A candidate that lost
        a race with concurrent DDL is skipped, not fatal."""
        from ..errors import CatalogError
        tracer = tracer or NULL_TRACER
        built = []
        for candidate in self.advise(tracer=tracer)[:limit]:
            try:
                with tracer.span("autopilot.build", index=candidate.name):
                    self.database.create_xml_index_online(
                        candidate.name, candidate.table,
                        candidate.column, candidate.pattern,
                        candidate.index_type)
            except CatalogError:
                continue  # concurrent DDL won; advice is stale
            built.append(candidate)
            self.applied.append(candidate.ddl)
            if METRICS.enabled:
                METRICS.inc("autopilot.builds")
        return built

    # -- reporting ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "profile": self.profiler.to_dict(),
            "advice": [candidate.to_dict()
                       for candidate in self.last_advice],
            "applied": list(self.applied),
        }

    def report(self) -> str:
        profile = self.profiler.to_dict()
        lines = [
            "autopilot:",
            f"  observed queries: {profile['queries_observed']}"
            f"  writes: {profile['writes_observed']}",
        ]
        for entry in profile["statements"][:10]:
            lines.append(
                f"  [{entry['count']}x {entry['language']}] "
                f"docs/query={entry['mean_docs_scanned']} "
                f"{entry['fingerprint'][:70]}")
        if self.last_advice:
            lines.append("  advice:")
            for candidate in self.last_advice:
                lines.append(f"    benefit={candidate.benefit:.0f} "
                             f"{candidate.ddl}")
        else:
            lines.append("  advice: (none)")
        for ddl in self.applied:
            lines.append(f"  applied: {ddl}")
        return "\n".join(lines)


class AutoIndexPolicy:
    """Background advise→apply loop (the ``--auto-index`` mode).

    A daemon thread wakes every ``interval`` seconds, asks the
    autopilot for advice, and builds at most ``max_builds_per_cycle``
    indexes online.  Stopping is cooperative and bounded by one build.
    """

    def __init__(self, autopilot: Autopilot, interval: float = 1.0,
                 max_builds_per_cycle: int = 1):
        self.autopilot = autopilot
        self.interval = interval
        self.max_builds_per_cycle = max_builds_per_cycle
        self.cycles = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "AutoIndexPolicy":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-auto-index", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.run_once()

    def run_once(self) -> int:
        """One advise→apply cycle; returns how many indexes it built."""
        self.cycles += 1
        try:
            built = self.autopilot.apply(limit=self.max_builds_per_cycle)
        # sa: ok(SA408: a background policy thread must never die and
        # take auto-indexing with it; the cycle is retried at the next
        # tick)
        except Exception:
            self.errors += 1
            if METRICS.enabled:
                METRICS.inc("autopilot.policy_errors")
            return 0
        if METRICS.enabled:
            METRICS.inc("autopilot.policy_cycles")
        return len(built)

    def __enter__(self) -> "AutoIndexPolicy":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False
