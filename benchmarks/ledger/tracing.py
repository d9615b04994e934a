"""The traced run: per-layer metrics measured from outside the engine.

Nothing under ``src/`` knows about this file.  A span is recorded by
replacing a layer's *public* function (or method) with a wrapper that
opens a :class:`repro.obs.trace.Tracer` span around the call; wrappers
are installed only while a traced phase runs and removed before any
phase that serves as the untraced reference.  A layer's self time is
its spans' duration minus the part their child spans cover.

A traced run of workload W has five parts:

1. one traced set-up build — the write-path layers, per document;
2. untraced sweeps — the reference every ratio below divides by, and
   the per-statement medians of W's own templates;
3. traced sweeps — where one sweep of W spends its time, by layer;
4. probes that replay W's statements another way (cold caches, capped
   buffer pool, over the socket, through the process pool, with each
   observability switch on);
5. a census: one short pass over each *other* workload, for their
   statement ids, and traced ``write_recover`` cycles for the
   ``durability.*`` rows when W itself never writes.  The driver's
   contract wants every per-layer metric from every run; the census is
   how a read workload reports a durability number that was measured
   rather than made up.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import harness
import workloads
from repro.core import querycache
from repro.obs.metrics import METRICS, enabled_metrics
from repro.obs.trace import Tracer
from repro.server import ServerClient, ServerThread
from repro.server.client import render_payload
from repro.server.protocol import encode_frame
from repro.xquery.parser import parse_xquery as _parse_xquery_original

#: (module, class or None, attribute, span name).  The span name's
#: prefix is the layer (a package under src/repro, or ``client``).
SPANS = (
    ("repro.static.infer", None, "static_prefilter_facts", "static.facts"),
    ("repro.planner.plan", None, "plan_prefilters", "planner.plan"),
    ("repro.planner.plan", "ColumnPrefilter", "run", "planner.probe"),
    ("repro.storage.catalog", "Database", "xquery", "planner.execute"),
    ("repro.storage.xmlindex", "XmlIndex", "matching_documents",
     "storage.index_match"),
    ("repro.xquery.evaluator", None, "evaluate_module", "xquery.eval"),
    ("repro.xquery.parser", None, "parse_xquery", "xquery.parse"),
    ("repro.core.querycache", None, "compile_query", "core.compile"),
    ("repro.storage.columnar", "ColumnStore", "materialize",
     "storage.materialize"),
    # Result items are serialized one public call per item; one span
    # around the benchmark's own loop over them keeps the span count
    # (and the tracing overhead) down.  SQL cells go through
    # serialize_sequence, one call per XML cell.
    ("workloads", None, "render_items", "xmlio.serialize"),
    ("repro.xmlio.serializer", None, "serialize_sequence",
     "xmlio.serialize"),
    ("repro.sql.parser", None, "parse_statement", "sql.parse"),
    ("repro.storage.catalog", "Database", "sql", "sql.statement"),
    ("repro.sql.executor", "SQLResult", "serialize_rows", "sql.render"),
    # write path
    ("repro.xmlio.parser", None, "parse_document", "xmlio.parse"),
    ("repro.storage.columnar", "ColumnStore", "from_document",
     "storage.columnar_build"),
    ("repro.storage.xmlindex", "XmlIndex", "index_document",
     "storage.index_insert"),
    ("repro.storage.xmlindex", "XmlIndex", "remove_document",
     "storage.index_remove"),
    ("repro.storage.catalog", "Database", "insert", "storage.insert"),
    ("repro.storage.catalog", "Database", "create_xml_index",
     "storage.index_build"),
    # durability
    ("repro.durability.engine", "DurableDatabase", "insert",
     "durability.insert"),
    ("repro.durability.engine", "DurableDatabase", "delete_rows",
     "durability.delete"),
    ("repro.durability.engine", "DurableDatabase", "checkpoint",
     "durability.checkpoint"),
    ("repro.durability.engine", "DurableDatabase", "close",
     "durability.close"),
    ("repro.durability.wal", "WriteAheadLog", "append",
     "durability.wal_append"),
    ("repro.durability.recovery", None, "recover", "durability.recover"),
    ("repro.durability.checkpoint", None, "load_checkpoint",
     "durability.checkpoint_load"),
    ("repro.durability.recovery", None, "apply_checkpoint_state",
     "durability.checkpoint_load"),
    ("repro.durability.recovery", None, "apply_wal_record",
     "durability.replay"),
    ("repro.durability.fsio", None, "fsync_file", "durability.fsync"),
    ("repro.durability.fsio", None, "fsync_path", "durability.fsync"),
    ("repro.durability.fsio", None, "fsync_dir", "durability.fsync"),
)

_ENGINE_PREFIXES = ("repro", "workloads")


class Instrument:
    """Installs and removes the span wrappers."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.tracer: Tracer | None = None
        self._undo: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer) -> None:
        self.tracer = tracer
        if self._undo:
            return
        for module_name, class_name, attribute, span in self.spans:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attribute)
                self._rebind(original, self._wrap(original, span))
                continue
            owner = getattr(module, class_name)
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, span))
            else:
                wrapper = self._wrap(original, span)
            setattr(owner, attribute, wrapper)
            self._undo.append((owner, attribute, original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        self.tracer = None

    def _wrap(self, original, span_name: str):
        instrument = self

        def traced(*args, **kwargs):
            with instrument.tracer.span(span_name):
                return original(*args, **kwargs)
        traced.__wrapped__ = original
        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace every module-level binding of ``original`` — its home
        module's and each ``from x import y`` copy."""
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] not in _ENGINE_PREFIXES:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))


class Totals:
    """Span totals of one traced interval: name -> [self, inclusive,
    calls], seconds as measured (LayerTable normalises them)."""

    def __init__(self, tracer: Tracer, start: float, end: float):
        self.tracer = tracer
        self.start, self.end = start, end
        self.by_name: dict[str, list] = {}
        stack = list(tracer.roots)
        while stack:
            span = stack.pop()
            covered = 0.0
            for child in span.children:
                covered += child.duration
                stack.append(child)
            entry = self.by_name.setdefault(span.name, [0.0, 0.0, 0])
            entry[0] += span.duration - covered
            entry[1] += span.duration
            entry[2] += 1


class LayerTable:
    """Normalised span totals summed over several intervals."""

    def __init__(self, clock: harness.HostClock, intervals: list[Totals]):
        self.intervals = len(intervals)
        #: The first interval's span tree, for the trace file.
        self.first_trace = intervals[0].tracer
        self.by_name: dict[str, list] = {}
        for totals in intervals:
            factor = clock.normalise(1.0, totals.start, totals.end)
            for name, (own, inclusive, calls) in totals.by_name.items():
                entry = self.by_name.setdefault(name, [0.0, 0.0, 0])
                entry[0] += own * factor
                entry[1] += inclusive * factor
                entry[2] += calls

    def self_ms(self, name: str) -> float:
        """Self time per interval (ms)."""
        return self.by_name.get(name, (0.0,))[0] * 1000.0 / self.intervals

    def inclusive_ms(self, name: str) -> float:
        """Time inside the span, children included, per interval (ms)."""
        return self.by_name.get(name, (0.0, 0.0))[1] * 1000.0 \
            / self.intervals

    def per_call_ms(self, name: str) -> float:
        _own, inclusive, calls = self.by_name.get(name, (0.0, 0.0, 0))
        return inclusive * 1000.0 / calls if calls else 0.0

    def calls(self, name: str) -> float:
        return self.by_name.get(name, (0.0, 0.0, 0))[2] / self.intervals

    def engine_self_ms(self) -> float:
        return sum(self.self_ms(name) for name in self.by_name
                   if not name.startswith("client."))

    def ranked(self) -> list[tuple[str, float, float]]:
        rows = [(name, self.self_ms(name), self.calls(name))
                for name in self.by_name]
        return sorted(rows, key=lambda row: -row[1])


def traced_sweeps(workload, clock, instrument, count: int) -> LayerTable:
    """``count`` sweeps with the wrappers installed, one Tracer each."""
    intervals = []
    try:
        for _ in range(count):
            tracer = Tracer(f"ledger:{workload.name}:sweep")
            instrument.install(tracer)
            clock.tracer = tracer
            log = harness.SweepLog(clock)
            log.run_sweep(workload)
            start, end, _wall, _by = log.sweeps[0]
            intervals.append(Totals(tracer, start, end))
    finally:
        clock.tracer = None
        instrument.remove()
    return LayerTable(clock, intervals)


def plain_sweeps(workload, clock, count: int) -> harness.SweepLog:
    log = harness.SweepLog(clock)
    for _ in range(count):
        log.run_sweep(workload)
    return log


def sweeps_in(seconds: float, sweep_ms: float, floor: int = 2) -> int:
    return max(floor, round(seconds * 1000.0 / sweep_ms))


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def traced_run(workload, args, scratch, out_dir):
    clock = harness.HostClock()
    for _ in range(3):
        clock.reference()
    instrument = Instrument()
    values: dict[str, float] = {}

    # 1. traced set-up
    tracer = Tracer(f"ledger:{workload.name}:setup")
    instrument.install(tracer)
    try:
        clock.reference()
        start = time.perf_counter()
        database = workload.build(clock.tick)
        end = time.perf_counter()
        clock.reference()
    finally:
        instrument.remove()
    setup = LayerTable(clock, [Totals(tracer, start, end)])
    values.update(write_path_metrics(setup))
    workload.adopt(database)

    # 2. untraced reference sweeps
    for _ in range(harness.WARMUP_SWEEPS):
        plain_sweeps(workload, clock, 1)
    harness.settle_heap()
    cache_before = querycache.cache_info()
    plain = harness.SweepLog(clock)
    plain.run_for(workload, args.seconds * 0.3, min_sweeps=5)
    cache_after = querycache.cache_info()
    plain_ms = plain.sweep_ms()
    plain_p50 = statistics.median(plain_ms)
    counts = dict(workload.counts)
    lookups = ((cache_after.hits - cache_before.hits)
               + (cache_after.misses - cache_before.misses))
    values.update({
        "client.sweeps": len(plain_ms),
        "client.sweep_p50_raw_ms":
            statistics.median(plain.sweep_ms(normalised=False)),
        "client.sweep_p90_ms": harness.p90(plain_ms),
        "client.result_bytes_per_sweep": counts["result_bytes"],
        "client.result_items_per_sweep": counts["result_items"],
        "planner.docs_scanned": counts["docs_scanned"],
        "planner.index_scans": counts["index_scans"],
        "planner.index_entries_scanned": counts["index_entries_scanned"],
        "planner.summary_lookups": counts["summary_lookups"],
        "planner.docs_per_result":
            counts["docs_scanned"] / max(1, counts["result_items"]),
        "sql.rows_scanned": counts["rows_scanned"],
        "core.querycache_hit_ratio":
            (cache_after.hits - cache_before.hits) / max(1, lookups),
    })
    stmt_ms = plain.stmt_ms()

    # 3. traced sweeps
    layers = traced_sweeps(workload, clock, instrument,
                           sweeps_in(args.seconds * 0.2, plain_p50, 3))
    traced_total = sum(layers.self_ms(name) for name in layers.by_name)
    values.update({
        "static.facts_ms": layers.self_ms("static.facts"),
        "planner.plan_ms": layers.self_ms("planner.plan"),
        "planner.execute_ms": layers.self_ms("planner.execute"),
        "xquery.eval_ms": layers.self_ms("xquery.eval"),
        "xmlio.serialize_ms": layers.self_ms("xmlio.serialize"),
        "sql.parse_ms": layers.self_ms("sql.parse"),
        "sql.statement_ms": layers.self_ms("sql.statement"),
        "sql.render_ms": layers.self_ms("sql.render"),
        "client.trace_coverage": layers.engine_self_ms() / plain_p50,
        "client.trace_overhead": traced_total / plain_p50,
    })

    # 4. probes over W's own statements
    pairs = sweeps_in(0.6, plain_p50, 1)
    values.update(cold_probe(workload, clock, instrument))
    values.update(observability_probes(workload, clock, pairs))
    reads = ReadSide.of(workload)
    values.update(space_metrics(reads.database, workload.corpus))
    values.update(server_probe(reads, clock))
    values.update(pool_probe(reads, clock))
    values.update(buffer_pool_probe(reads, workload.corpus, clock))

    # 5. census of the other workloads.  A layer W's sweep never calls
    # is reported from the workload built to exercise it: index probes
    # from ``probe`` (``scan`` makes none), durability from
    # ``write_recover``.
    probing = layers if layers.calls("planner.probe") else None
    durability = layers if workload.name == "write_recover" else None
    durable_counts = None
    for name in workloads.SIZES:
        if name == workload.name:
            other, other_ms = workload, stmt_ms
        else:
            other = workloads.make(name, args.seed, args.scale, scratch)
            other.build_oracle()
            other.adopt(other.build())
            plain_sweeps(other, clock, 1)
            other_ms = plain_sweeps(other, clock, 3).stmt_ms()
        if name == "probe" and probing is None:
            probing = traced_sweeps(other, clock, instrument, 2)
        if name == "write_recover":
            if durability is None:
                durability = traced_sweeps(other, clock, instrument, 3)
            durable_counts = counted_cycle(other, clock)
        for stmt_id, value in other_ms.items():
            values[f"stmt.{stmt_id}.ms"] = value
        if other is not workload:
            other.close()
    values["planner.probe_ms"] = probing.self_ms("planner.probe")
    values["storage.index_match_us"] = \
        probing.per_call_ms("storage.index_match") * 1000.0
    values.update(durability_metrics(durability, durable_counts))

    host = clock.host_summary()
    values["host.ref_loop_ms"] = host["ref_loop_ms"]
    values["host.slowdown_max"] = host["slowdown_max"]

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "where_the_time_goes": [
            {"span": name, "self_ms_per_sweep": round(own, 4),
             "calls_per_sweep": calls,
             "share": round(own / traced_total, 4)}
            for name, own, calls in layers.ranked()],
        "setup_spans": [
            {"span": name, "self_ms": round(own, 4), "calls": calls}
            for name, own, calls in setup.ranked()],
        "metrics": values,
        "first_traced_sweep": layers.first_trace.to_dict(),
    }, indent=1), encoding="utf-8")
    info = {"trace_file": f"benchmarks/ledger/out/{trace_path.name}",
            "where_the_time_goes": "; ".join(
                f"{name} {own / traced_total:.0%}"
                for name, own, _calls in layers.ranked()[:6])}
    return values, {}, info, clock


def write_path_metrics(setup: LayerTable) -> dict:
    return {
        "xmlio.parse_ms_per_doc": setup.per_call_ms("xmlio.parse"),
        "storage.columnar_build_ms_per_doc":
            setup.per_call_ms("storage.columnar_build"),
        "storage.index_insert_ms_per_doc":
            setup.per_call_ms("storage.index_insert"),
        "storage.insert_ms_per_doc": setup.per_call_ms("storage.insert"),
        "storage.index_build_ms": setup.inclusive_ms("storage.index_build"),
    }


def durability_metrics(layers: LayerTable, counted: dict) -> dict:
    return {
        "durability.insert_ms_per_doc":
            layers.per_call_ms("durability.insert"),
        "durability.delete_ms_per_doc":
            layers.per_call_ms("durability.delete"),
        "durability.wal_append_us":
            layers.per_call_ms("durability.wal_append") * 1000.0,
        "durability.checkpoint_write_ms":
            layers.per_call_ms("durability.checkpoint"),
        "durability.checkpoint_load_ms_per_doc":
            layers.inclusive_ms("durability.checkpoint_load")
            / counted["live_docs"],
        "durability.replay_ms_per_record":
            layers.per_call_ms("durability.replay"),
        "durability.recover_ms": layers.per_call_ms("durability.recover"),
        "durability.fsync_ms": layers.self_ms("durability.fsync"),
        "durability.fsyncs_per_cycle": layers.calls("durability.fsync"),
        "durability.wal_bytes_per_user_byte":
            counted["wal_bytes"] / counted["written_user_bytes"],
        "durability.checkpoint_bytes_per_user_byte":
            counted["checkpoint_bytes"] / counted["live_user_bytes"],
    }


def counted_cycle(workload, clock) -> dict:
    """One ``write_recover`` sweep with the metrics registry on: the
    byte counts of the space axis (exact; they repeat on every run)."""
    with enabled_metrics() as metrics:
        plain_sweeps(workload, clock, 1)
        counters = metrics.snapshot()["counters"]
    block = workload.blocks[0]
    written = sum(len(text) for _id, text in block)
    return {
        "wal_bytes": counters.get("wal.bytes_written", 0),
        "checkpoint_bytes": counters.get("checkpoint.bytes_written", 0),
        "written_user_bytes": written,
        "live_user_bytes": 2 * written,
        "live_docs": (len(workload.corpus.orders)
                      + len(workload.corpus.customers)),
    }


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def cold_probe(workload, clock, instrument) -> dict:
    """One sweep with the compiled-query and parse caches emptied: the
    only place compile cost shows (a warm sweep never misses)."""
    querycache.clear_cache()
    _parse_xquery_original.cache_clear()
    cold = traced_sweeps(workload, clock, instrument, 1)
    total = sum(cold.self_ms(name) for name in cold.by_name)
    return {"core.compile_ms": cold.self_ms("core.compile"),
            "xquery.parse_ms": cold.self_ms("xquery.parse"),
            "client.cold_sweep_ms": total}


def ratio_of_sweeps(workload, clock, pairs: int, switch_on, switch_off
                    ) -> float:
    """Σ sweep time with a switch on ÷ Σ with it off, alternating."""
    on = harness.SweepLog(clock)
    off = harness.SweepLog(clock)
    for _ in range(pairs):
        off.run_sweep(workload)
        switch_on()
        try:
            on.run_sweep(workload)
        finally:
            switch_off()
    clock.reference()
    return sum(on.sweep_ms()) / sum(off.sweep_ms())


def observability_probes(workload, clock, pairs: int) -> dict:
    """What each observability switch costs a sweep when it is on.
    (Off, each is one attribute test; ROADMAP items 3 and 5 must keep
    the plain path as it is.)"""
    values = {}

    values["obs.metrics_on_overhead"] = ratio_of_sweeps(
        workload, clock, pairs, METRICS.enable, METRICS.disable)

    # The engine's own tracer= argument, as --trace and EXPLAIN ANALYZE
    # pass it: swap the workload's answer function for a traced one.
    plain_answer = workloads.answer

    def traced_answer(database, statement, use_indexes=True):
        return plain_answer(database, statement, use_indexes,
                            tracer=Tracer(statement.text, statement.kind))

    def tracer_on():
        workloads.answer = traced_answer

    def tracer_off():
        workloads.answer = plain_answer

    values["obs.trace_on_overhead"] = ratio_of_sweeps(
        workload, clock, pairs, tracer_on, tracer_off)

    def autopilot_on():
        workload.database.autopilot()

    def autopilot_off():
        workload.database.workload_profiler = None
        workload.database._autopilot = None

    values["autopilot.observe_overhead"] = ratio_of_sweeps(
        workload, clock, pairs, autopilot_on, autopilot_off)
    return values


class ReadSide:
    """A read statement list replayed over an in-memory database, each
    statement run by ``run_statement`` (in process unless a probe
    passes another route) and checked against the oracle."""

    name = "reads"

    def __init__(self, database, statements, oracle, run_statement=None):
        self.database = database
        self.statements = statements
        self.oracle = oracle
        self.run_statement = run_statement or (
            lambda statement: workloads.answer(database, statement)[0])

    @classmethod
    def of(cls, workload) -> "ReadSide":
        """W's own database for a read workload; for ``write_recover``
        a fresh twin of the initial live set (see its build_oracle)."""
        oracle = workload.oracle
        if isinstance(oracle[0], list):
            oracle = oracle[2]
        return cls(workload.reads_database(), workload.read_statements,
                   oracle)

    def routed(self, run_statement) -> "ReadSide":
        return ReadSide(self.database, self.statements, self.oracle,
                        run_statement)

    def sweep(self, op) -> None:
        run_statement = self.run_statement
        for statement, expected in zip(self.statements, self.oracle):
            op(statement.template,
               lambda: run_statement(statement) == expected)


def space_metrics(database, corpus) -> dict:
    """Resident bytes per byte of XML text (exact)."""
    columns = trees = 0
    for table, column in (("orders", "orddoc"), ("customer", "cdoc")):
        for stored in database.documents(table, column):
            columns += stored._store.nbytes()
            trees += stored._store.materialized_nbytes()
    user = corpus.user_bytes()
    return {"storage.column_bytes_per_user_byte": columns / user,
            "storage.tree_bytes_per_user_byte": trees / user}


def server_probe(reads: ReadSide, clock) -> dict:
    """W's read statements through a ServerThread and one ServerClient
    against the same statements in process."""
    response_bytes = []
    with ServerThread(reads.database, port=0) as (host, port):
        with ServerClient(host, port) as client:
            def over_the_wire(statement):
                payload = client.query(statement.text)
                response_bytes.append(len(encode_frame(payload)))
                return render_payload(payload)

            wired = reads.routed(over_the_wire)
            plain_sweeps(wired, clock, 1)
            response_bytes.clear()
            remote_log = harness.SweepLog(clock)
            local_log = harness.SweepLog(clock)
            for _ in range(2):
                local_log.run_sweep(reads)
                remote_log.run_sweep(wired)
            clock.reference()
    statements = remote_log.statements
    remote = sum(remote_log.sweep_ms()) / statements
    local_ms = sum(local_log.sweep_ms()) / statements
    return {"server.roundtrip_ms": remote,
            "server.wire_toll_ms": remote - local_ms,
            "server.response_bytes_per_stmt":
                sum(response_bytes) / len(response_bytes)}


def pool_probe(reads: ReadSide, clock) -> dict:
    """Bootstrap two replica processes, then W's first XQuery statement
    through the pool against the same statement run serially."""
    statement = next(statement for statement in reads.statements
                     if statement.kind == "xquery")
    expected = reads.oracle[reads.statements.index(statement)]
    clock.reference()
    start = time.perf_counter()
    pool = reads.database.process_pool(2)
    end = time.perf_counter()
    clock.reference()
    try:
        def pooled() -> bool:
            result = pool.xquery(statement.text)
            return "\n".join(result.serialize()) == expected

        def serial() -> bool:
            return workloads.answer(reads.database,
                                    statement)[0] == expected

        pooled()
        marks = len(clock.ops)
        for _ in range(3):
            clock.op("serial", serial)
            clock.op("pooled", pooled)
        clock.reference()
        times = {"serial": 0.0, "pooled": 0.0}
        for kind, began, wall in clock.ops[marks:]:
            times[kind] += clock.normalise(wall, began, began + wall)
    finally:
        pool.close()
    return {"parallel.bootstrap_ms":
            clock.normalise((end - start) * 1000.0, start, end),
            "parallel.scan_speedup": times["serial"] / times["pooled"]}


def buffer_pool_probe(reads: ReadSide, corpus, clock) -> dict:
    """A twin whose buffer pool holds a quarter of the resident trees
    (working set > cache) against the uncapped database, over one
    statement per template.  The capped sweep runs with the metrics
    registry on and a span around ``ColumnStore.materialize`` only, so
    its ratio carries those two instruments' (small) cost."""
    tree_bytes = sum(
        stored._store.nbytes() + stored._store.materialized_nbytes()
        for table, column in (("orders", "orddoc"), ("customer", "cdoc"))
        for stored in reads.database.documents(table, column))
    twin = workloads.memory_database(corpus,
                                     buffer_pool_bytes=tree_bytes // 4)
    templates = len({statement.template
                     for statement in reads.statements})
    uncapped = ReadSide(reads.database, reads.statements[:templates],
                        reads.oracle[:templates])
    capped = ReadSide(twin, uncapped.statements, uncapped.oracle)
    uncapped_log = plain_sweeps(uncapped, clock, 1)
    materialize_only = Instrument(
        [span for span in SPANS if span[3] == "storage.materialize"])
    with enabled_metrics() as metrics:
        traced = traced_sweeps(capped, clock, materialize_only, 1)
        counters = metrics.snapshot()["counters"]
    hits = counters.get("bufferpool.hits", 0)
    misses = counters.get("bufferpool.misses", 0)
    capped_ms = sum(traced.self_ms(name) for name in traced.by_name)
    return {
        "storage.materialize_ms_per_doc":
            traced.per_call_ms("storage.materialize"),
        "storage.bufferpool_hit_ratio": hits / max(1, hits + misses),
        "storage.bufferpool_evictions":
            counters.get("bufferpool.evictions", 0),
        "storage.capped_sweep_ratio":
            capped_ms / sum(uncapped_log.sweep_ms()),
    }
