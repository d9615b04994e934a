"""Access-path planning: turn eligibility verdicts into index prefilters.

The planner implements the execution model the paper's §2.1 sets out:
indexes are used to *filter documents from a collection* before the
query runs over the survivors (Definition 1's ``Q(I(P, D))``).

For a standalone XQuery, the planner:

1. extracts candidate predicates and checks their eligibility;
2. keeps eligible conjunctive predicates with statically-known bounds
   (plus whole eligible disjunction groups, unioned);
3. collapses between-pairs (Section 3.10) into a single range scan
   when the singleton guarantee holds, or two ANDed scans otherwise;
4. intersects the resulting doc-id sets per XML column; and
5. evaluates the query against a view of the database in which
   ``db2-fn:xmlcolumn`` returns only the surviving documents.

A probe whose verdict is *exact* goes one step past document filtering:
its entries are the very nodes its comparison selects, so it keeps
their node ids, and the evaluator's column kernel answers that
comparison's predicate from them for the surviving documents instead
of re-testing every candidate node (:func:`_only_documents` names the
conditions; :meth:`PrefilteredDatabase.node_answers`).

If nothing is eligible the query runs as a full collection scan — the
performance cliff every pitfall in Section 3 produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.between import detect_between
from ..core.eligibility import analyze_candidates, check_index
from ..core.patterns import matcher_for
from ..core.predicates import PredicateCandidate, extract_candidates
from ..core.querycache import cache_info, compile_query
from ..errors import ReproError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..storage.xmlindex import SHARED_PARENT, SKIPPED
from ..xdm.atomic import T_STRING
from ..xdm.sequence import Item
from ..xquery.evaluator import evaluate_module
from ..xquery.joins import flwor_fold_report, flwor_join_report
from .stats import ExecutionStats


@dataclass
class QueryResult:
    """Items + the statistics that make plans comparable."""

    items: list[Item]
    stats: ExecutionStats

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def serialize(self) -> list[str]:
        from ..xmlio.serializer import serialize
        return [serialize(item) for item in self.items]

    def serialized(self) -> str:
        from ..xmlio.serializer import serialize_sequence
        return serialize_sequence(self.items)


@dataclass
class _Probe:
    """One index range scan: bounds + residual path filter."""

    index: object
    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    path_filter: object = None
    #: The ``comparison_id`` of the comparison whose nodes the entries
    #: are, when the verdict is exact (:func:`_only_documents`); None
    #: for a document filter.
    answers_for: int | None = None
    #: Document facts on which the comparison may raise rather than be
    #: false (:func:`_raising_facts`): such documents are admitted too.
    admit: int = 0

    def run(self, stats: ExecutionStats, answers: dict | None = None
            ) -> set[int]:
        """The documents with entries in range (and those it admits);
        an exact probe also puts its :class:`NodeAnswer` in ``answers``
        when given."""
        nodes = (None if self.answers_for is None or answers is None
                 else {})
        docs = self.index.matching_documents(
            self.low, self.high, self.low_inclusive, self.high_inclusive,
            path_filter=self.path_filter, stats=stats, nodes=nodes,
            admit=self.admit)
        if nodes is not None:
            answers[self.answers_for] = NodeAnswer(self.path_filter, nodes)
        return docs

    def bounds_text(self) -> str:
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        open_bracket = "[" if self.low_inclusive else "("
        close_bracket = "]" if self.high_inclusive else ")"
        return f"{open_bracket}{low}, {high}{close_bracket}"


@dataclass
class NodeAnswer:
    """An exact probe's entries: the nodes its comparison selects."""

    #: The probe's path filter; only a lookup over this path may use it.
    pattern: object
    #: doc_id -> node ids, ascending.
    by_doc: dict[int, list[int]]
    #: Document node id -> node ids, for the surviving documents, filled
    #: when the view first returns them.
    by_root: dict[int, list[int]] | None = None


#: General comparisons whose index range is exactly their truth set.
_EXACT_OPS = frozenset({"=", "<", "<=", ">", ">="})
#: Value comparisons: exact too over one step, on a document whose
#: facts say no operand has two items and no value failed its cast.
_VALUE_OPS = frozenset({"eq", "lt", "le", "gt", "ge"})


def _only_documents(candidate: PredicateCandidate, index, paired: bool,
                    one_step: bool = False) -> str | None:
    """Why ``candidate``'s probe on ``index`` only filters documents, or
    None when its entries are exactly the nodes the comparison selects.

    Exact: one general comparison (not ``!=``) with a literal, alone
    (no disjunction, no between pair), on a DOUBLE index with a numeric
    literal or a VARCHAR index with a string literal.  An untyped value
    the index could not cast (or NaN) is a non-match of such a
    comparison, just as the tolerant index skips it.  The probe's path
    filter is checked against the lookup's own path where the answers
    are used.

    ``one_step`` (the compared path is one step below the predicate's
    context) also makes a value comparison exact, on the documents
    whose facts (:meth:`~repro.storage.xmlindex.XmlIndex.facts`) show
    no skipped value and no shared parent.  A join's operand is
    computed per outer row: ``=`` (or ``eq``) is exact on a DOUBLE or
    VARCHAR index, for the operands :func:`exact_atoms` accepts."""
    if candidate.comparison is None:
        return "an existence test"
    op = candidate.op
    if not (op in _EXACT_OPS or one_step and op in _VALUE_OPS):
        return f"'{op}' is not a general =, <, <=, > or >="
    if candidate.negated or candidate.in_disjunction:
        return "the comparison is negated or in a disjunction"
    if paired:
        return "the comparison is one of a between pair"
    if candidate.operand_expr is not None:
        if op not in ("=", "eq"):
            return f"a join on '{op}'"
        if index.index_type not in ("DOUBLE", "VARCHAR"):
            return f"a join on a {index.index_type} index"
        return None
    value = candidate.operand_value
    if value is None:
        return "the operand is not a literal"
    if exact_atoms(index, [value]):
        return None
    return (f"a {index.index_type} index with a {value.type_name} "
            f"literal")


def exact_atoms(index, atoms: list) -> bool:
    """Do ``atoms`` compare with the untyped values ``index`` keys in
    its own key type: numbers on a DOUBLE index, strings on VARCHAR?"""
    if index.index_type == "DOUBLE":
        return all(atom.is_numeric for atom in atoms)
    return (index.index_type == "VARCHAR"
            and all(atom.type_name == T_STRING for atom in atoms))


def _raising_facts(candidate: PredicateCandidate) -> int:
    """The document facts on which ``candidate``'s comparison may raise
    where the index has no entry: a value comparison over a skipped
    value or two items, a cast of a skipped value on the document
    side."""
    if candidate.op in _VALUE_OPS:
        return SKIPPED | SHARED_PARENT
    if candidate.cast not in (None, "VARCHAR", "ANY"):
        return SKIPPED
    return 0


def _bounds_for(candidate: PredicateCandidate, index) -> _Probe | None:
    """Translate an eligible predicate into B+Tree scan bounds."""
    if candidate.op == "exists":
        return _Probe(index, path_filter=candidate.path)
    if candidate.operand_value is None:
        return None  # join predicate: no static bound to scan with
    try:
        key = index.key_for_value(candidate.operand_value)
    except ReproError:
        # An uncastable bound legitimately disqualifies the probe (the
        # tolerant-index contract); anything else is a bug and raises.
        return None
    op = candidate.op
    admit = _raising_facts(candidate)
    if op in ("=", "eq"):
        return _Probe(index, low=key, high=key,
                      path_filter=candidate.path, admit=admit)
    if op in (">", "gt"):
        return _Probe(index, low=key, low_inclusive=False,
                      path_filter=candidate.path, admit=admit)
    if op in (">=", "ge"):
        return _Probe(index, low=key, path_filter=candidate.path,
                      admit=admit)
    if op in ("<", "lt"):
        return _Probe(index, high=key, high_inclusive=False,
                      path_filter=candidate.path, admit=admit)
    if op in ("<=", "le"):
        return _Probe(index, high=key, path_filter=candidate.path,
                      admit=admit)
    return None  # '!='/'ne' need two scans; not worth it for a prefilter


@dataclass
class ColumnPrefilter:
    """The planned index work for one XML column."""

    column: str
    #: Probes whose results are intersected (conjuncts).
    conjunct_probes: list[_Probe] = field(default_factory=list)
    #: Groups of probes whose results are unioned, then intersected in.
    disjunction_probes: list[list[_Probe]] = field(default_factory=list)
    #: Pre-computed doc-id sets (e.g. semi-join results), intersected.
    fixed_sets: list[set[int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def run(self, stats: ExecutionStats, tracer=None,
            estimator=None, answers: dict | None = None) -> set[int]:
        """The surviving doc ids; exact conjunct probes put their node
        answers in ``answers`` when given."""
        tracer = tracer or NULL_TRACER
        result: set[int] | None = None
        for probe in self.conjunct_probes:
            docs = self._run_probe(probe, stats, tracer, estimator,
                                   "conjunct", answers)
            result = docs if result is None else (result & docs)
        for group in self.disjunction_probes:
            union: set[int] = set()
            for probe in group:
                union |= self._run_probe(probe, stats, tracer, estimator,
                                         "disjunct")
            result = union if result is None else (result & union)
        for fixed in self.fixed_sets:
            with tracer.span("semi-join", column=self.column) as span:
                span.set(actual_rows=len(fixed), unit="documents")
            result = set(fixed) if result is None else (result & fixed)
        return result if result is not None else set()

    def _run_probe(self, probe: _Probe, stats: ExecutionStats, tracer,
                   estimator, role: str, answers: dict | None = None
                   ) -> set[int]:
        with tracer.span("index-scan", index=probe.index.name,
                         column=self.column, role=role) as span:
            if span:
                span.set(range=probe.bounds_text())
            entries_before = stats.index_entries_scanned
            docs = probe.run(stats, answers)
            span.set(actual_rows=len(docs), unit="documents",
                     entries_scanned=(stats.index_entries_scanned -
                                      entries_before))
            if estimator is not None:
                span.set(**estimator(self.column, probe))
        return docs


def plan_prefilters(database, candidates: list[PredicateCandidate],
                    stats: ExecutionStats) -> dict[str, ColumnPrefilter]:
    """Choose index probes per XML column from eligible candidates.

    Eligibility alone decides: every candidate with an eligible index
    and statically-known bounds is probed, however unselective.
    """
    betweens = detect_between(candidates)
    between_members: dict[int, object] = {}
    for group in betweens:
        between_members[id(group.lower)] = group
        between_members[id(group.upper)] = group

    prefilters: dict[str, ColumnPrefilter] = {}
    handled_groups: set[int] = set()
    disjunctions: dict[int, list[tuple[PredicateCandidate, _Probe]]] = {}
    disjunction_sizes: dict[int, int] = {}

    for candidate in candidates:
        if candidate.in_disjunction:
            disjunction_sizes[candidate.disjunction_group] = \
                disjunction_sizes.get(candidate.disjunction_group, 0) + 1

    for candidate in candidates:
        table, _sep, column = candidate.column.partition(".")
        probe = None
        chosen_index = None
        for index in database.xml_indexes_on(table, column):
            verdict = check_index(index, candidate)
            if not verdict.eligible:
                continue
            probe = _bounds_for(candidate, index)
            if probe is not None:
                chosen_index = index
                break
        if probe is None:
            continue

        prefilter = prefilters.setdefault(
            candidate.column, ColumnPrefilter(candidate.column))

        if candidate.in_disjunction:
            disjunctions.setdefault(candidate.disjunction_group, []).append(
                (candidate, probe))
            continue

        group = between_members.get(id(candidate))
        if group is not None and group.single_scan:
            if id(group) in handled_groups:
                continue
            handled_groups.add(id(group))
            low_probe = _bounds_for(group.lower, chosen_index)
            high_probe = _bounds_for(group.upper, chosen_index)
            if low_probe is not None and high_probe is not None:
                merged = _Probe(chosen_index,
                                low=low_probe.low,
                                low_inclusive=low_probe.low_inclusive,
                                high=high_probe.high,
                                high_inclusive=high_probe.high_inclusive,
                                path_filter=candidate.path)
                prefilter.conjunct_probes.append(merged)
                prefilter.notes.append(
                    f"between collapsed to single range scan on "
                    f"{chosen_index.name} ({group.lower.description} AND "
                    f"{group.upper.description})")
                prefilter.notes.append(
                    f"index {chosen_index.name} filters documents only "
                    f"for {candidate.description}: "
                    f"{_only_documents(candidate, chosen_index, True)}")
                continue
        if group is not None and not group.single_scan:
            prefilter.notes.append(
                f"general-comparison range pair kept as separate scans "
                f"on {chosen_index.name} (existential semantics, §3.10)")
        prefilter.conjunct_probes.append(probe)
        prefilter.notes.append(
            f"index scan {chosen_index.name} for {candidate.description} "
            f"[{candidate.context.value}]")
        refusal = _only_documents(candidate, chosen_index,
                                  group is not None)
        if refusal is None:
            probe.answers_for = candidate.comparison_id
            prefilter.notes.append(
                f"index {chosen_index.name} answers nodes for "
                f"{candidate.description}")
        else:
            prefilter.notes.append(
                f"index {chosen_index.name} filters documents only for "
                f"{candidate.description}: {refusal}")

    _plan_semi_joins(database, candidates, prefilters, stats)

    # Disjunction groups are usable only when every branch got a probe.
    for group_id, members in disjunctions.items():
        if len(members) != disjunction_sizes.get(group_id, -1):
            continue
        column = members[0][0].column
        prefilter = prefilters.setdefault(column, ColumnPrefilter(column))
        prefilter.disjunction_probes.append(
            [probe for _candidate, probe in members])
        prefilter.notes.append(
            f"disjunction answered by union of {len(members)} index scans")

    return {column: prefilter for column, prefilter in prefilters.items()
            if prefilter.conjunct_probes or prefilter.disjunction_probes
            or prefilter.fixed_sets}


def _plan_semi_joins(database, candidates: list[PredicateCandidate],
                     prefilters: dict[str, "ColumnPrefilter"],
                     stats: ExecutionStats) -> None:
    """Index-assisted semi-joins for XML-to-XML equality joins.

    When both sides of ``$i/custid/xs:double(.) = $j/id/xs:double(.)``
    (Query 4) are index-eligible, one linear pass over each index
    computes, per column, the documents whose join value appears on the
    other side.  Documents with no partner contribute no binding tuple
    (the where-conjunct eliminates them), so pre-filtering both columns
    is sound under Definition 1 — even when the other binding is itself
    filtered, since that only shrinks the true set further.
    """
    by_comparison: dict[int, list[PredicateCandidate]] = {}
    for candidate in candidates:
        if (candidate.comparison_id and candidate.operand_expr is not None
                and candidate.op in ("=", "eq")
                and not candidate.negated
                and not candidate.in_disjunction):
            by_comparison.setdefault(candidate.comparison_id,
                                     []).append(candidate)

    for pair in by_comparison.values():
        if len(pair) != 2 or pair[0].column == pair[1].column:
            continue
        sides = []
        for candidate in pair:
            table, _sep, column = candidate.column.partition(".")
            chosen = None
            for index in database.xml_indexes_on(table, column):
                if check_index(index, candidate).eligible:
                    chosen = index
                    break
            if chosen is None:
                break
            sides.append((candidate, chosen))
        if len(sides) != 2:
            continue
        (left, left_index), (right, right_index) = sides
        if left_index.index_type != right_index.index_type:
            continue  # keys would not be comparable
        if any(index.documents_with(_raising_facts(candidate))
               for candidate, index in sides):
            # The join raises on such a document wherever it meets a
            # partner candidate; dropping either side would hide that.
            stats.note(f"semi-join skipped for {left.description}: a "
                       f"document's join value may raise")
            continue
        left_docs_by_key = _keyed_docs(left_index, left.path, stats)
        right_docs_by_key = _keyed_docs(right_index, right.path, stats)
        common = left_docs_by_key.keys() & right_docs_by_key.keys()
        left_docs: set[int] = set()
        right_docs: set[int] = set()
        for key in common:
            left_docs |= left_docs_by_key[key]
            right_docs |= right_docs_by_key[key]
        for candidate, docs in ((left, left_docs), (right, right_docs)):
            prefilter = prefilters.setdefault(
                candidate.column, ColumnPrefilter(candidate.column))
            prefilter.fixed_sets.append(docs)
            prefilter.notes.append(
                f"semi-join prefilter via {left_index.name} ⋈ "
                f"{right_index.name}: {len(docs)} documents keep a "
                f"join partner for {candidate.description}")


def _keyed_docs(index, path_filter, stats: ExecutionStats
                ) -> dict[object, set[int]]:
    """One pass over an index: key -> doc ids (path-filtered)."""
    result: dict[object, set[int]] = {}
    scanned = 0
    matches = (None if path_filter is None
               else matcher_for(path_filter).matches)
    for key, entry in index.tree.items():
        scanned += 1
        if matches is None or matches(entry.path):
            result.setdefault(key, set()).add(entry.doc_id)
    stats.index_entries_scanned += scanned
    stats.record_index_use(index.name)
    if METRICS.enabled:
        METRICS.inc("index.probes")
        METRICS.inc("index.entries_scanned", scanned)
    return result


class PrefilteredDatabase:
    """A database view whose xmlcolumn() yields only surviving docs.

    This is exactly I(P, D) of Definition 1: the query runs unchanged
    over the pre-filtered collection.  The surviving documents come
    from the table's row locator, in table order, at a cost in the
    number of survivors; ids the index holds for rows outside the
    database's (possibly pinned) row list are dropped.
    """

    def __init__(self, database, doc_filters: dict[str, set[int]],
                 answers: dict[str, dict[int, NodeAnswer]] | None = None):
        self._database = database
        self._doc_filters = {column.lower(): docs
                             for column, docs in doc_filters.items()}
        #: column -> {comparison_id: NodeAnswer} of its exact probes.
        self._answers = {column.lower(): found for column, found
                         in (answers or {}).items() if found}

    def xmlcolumn(self, reference: str, stats=None) -> list[Item]:
        key = reference.lower()
        if key not in self._doc_filters:
            return self._database.xmlcolumn(reference, stats=stats)
        table, column = self._database.xml_table(
            *self._database._split_reference(reference))
        stored_docs = table.locator().documents(self._doc_filters[key],
                                                column)
        if stats is not None:
            stats.docs_scanned += len(stored_docs)
        if METRICS.enabled:
            METRICS.inc("docs.scanned", len(stored_docs))
        documents = [stored.document for stored in stored_docs]
        for answer in self._answers.get(key, {}).values():
            if answer.by_root is None:
                by_doc = answer.by_doc
                answer.by_root = {
                    document.node_id: by_doc[stored.doc_id]
                    for stored, document in zip(stored_docs, documents)
                    if stored.doc_id in by_doc}
        return documents

    def node_answers(self, key: int, pattern) -> dict[int, list[int]] | None:
        """Document node id -> node ids (ascending) that the exact probe
        of the comparison ``key`` (its ``comparison_id``) selected, per
        surviving document this view returned; None without such a
        probe, or when the asking lookup's path ``pattern`` is not the
        one the probe filtered its entries by."""
        for found in self._answers.values():
            answer = found.get(key)
            if answer is not None:
                return (answer.by_root if answer.pattern == pattern
                        else None)
        return None

    def __getattr__(self, name):
        return getattr(self._database, name)


def _make_probe_estimator(database):
    """Span-attribute estimator for EXPLAIN ANALYZE (traced runs only).

    Returns ``estimate(column, probe) -> dict`` producing the
    ``estimated_rows`` attribute (histogram selectivity capped by
    path-summary document coverage) plus supporting attrs.  Callers
    construct this only for a recording tracer, so plain executions
    never pay for histograms.
    """
    from .cost import CostModel
    model = CostModel()

    def estimate(column: str, probe: _Probe) -> dict:
        table, _sep, column_name = column.partition(".")
        try:
            total_docs = sum(database.path_classes(
                table, column_name).values())
        except ReproError:
            return {}
        docs_with_path = None
        if probe.path_filter is not None:
            try:
                docs_with_path = database.docs_with_path(
                    table, column_name, probe.path_filter)
            except ReproError:
                docs_with_path = None
        probe_estimate = model.estimate_probe(
            probe.index, probe.low, probe.high, total_docs,
            docs_with_path=docs_with_path)
        attrs = {"estimated_rows":
                 round(probe_estimate.docs_fraction * total_docs, 2)}
        if docs_with_path is not None:
            attrs["summary_cap_docs"] = docs_with_path
        return attrs

    return estimate


def _annotate_static_bounds(module, database, span) -> None:
    """Attach inferred result-cardinality bounds to a trace span.

    Traced runs only (EXPLAIN ANALYZE / ``--trace``): full inference
    walks the AST and consults path summaries, which the untraced hot
    path must not pay for.
    """
    from ..static.infer import infer_module
    try:
        inference = infer_module(module, database=database,
                                 report_unknown_vars=False)
    except ReproError:
        return
    body_type = inference.body_type
    span.set(inferred_type=str(body_type),
             estimated_low=body_type.low,
             estimated_high=("unbounded" if body_type.high is None
                             else body_type.high))


def execute_xquery(database, query: str,
                   use_indexes: bool = True,
                   rewrite_views: bool = False,
                   tracer=None,
                   variables: dict | None = None) -> QueryResult:
    """Plan and run a standalone XQuery.

    Every eligible index is used (Definition 1 decides; estimates only
    annotate traced runs, see :mod:`repro.planner.cost`).

    ``rewrite_views=True`` attempts the §3.6 view-flattening rewrite
    before planning (see :mod:`repro.core.rewriter`); when the rewrite
    is blocked by a hazard the original query runs and the hazards are
    recorded in the plan notes.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records per-stage
    spans — parse, plan, index-probe/index-scan, residual-eval — used
    by ``--trace`` and EXPLAIN ANALYZE.  ``None`` (the default) runs
    the same pipeline against :data:`repro.obs.trace.NULL_TRACER`.

    ``variables`` binds external variables (name → item sequence) in
    the dynamic context — the server's session variables ride in here.
    """
    # The workload profiler (repro.autopilot) rides on the same cheap
    # guard discipline as METRICS: one attribute read when absent.
    profiler = getattr(database, "workload_profiler", None)
    started = (time.perf_counter()
               if METRICS.enabled or profiler is not None else 0.0)
    stats = ExecutionStats()
    tracer = tracer or NULL_TRACER
    with tracer.span("parse") as span:
        hits_before = cache_info().hits if span else 0
        compiled = compile_query(query)
        if span:
            span.set(cache=("hit" if cache_info().hits > hits_before
                            else "miss"),
                     candidates=len(compiled.candidates))
    module = compiled.module
    candidates = list(compiled.candidates)
    if rewrite_views:
        from ..core.rewriter import rewrite_view_flattening
        rewrite = rewrite_view_flattening(module)
        for note in rewrite.notes:
            stats.note(note)
        for hazard in rewrite.hazards:
            stats.note(f"view flattening refused: {hazard}")
        if rewrite.module is not module:
            module = rewrite.module
            candidates = extract_candidates(module)
    runtime_db = database
    if use_indexes:
        from ..static.infer import static_prefilter_facts
        with tracer.span("static-analysis") as span:
            facts = static_prefilter_facts(database, candidates)
            span.set(checks=facts.checked,
                     empty_columns=len(facts.empty_columns))
            if span:
                _annotate_static_bounds(module, database, span)
        if METRICS.enabled and facts.checked:
            METRICS.inc("static.checks", facts.checked)
        with tracer.span("plan") as span:
            prefilters = plan_prefilters(database, candidates, stats)
            span.set(prefilter_columns=len(prefilters))
        pruned: dict[str, set[int]] = {}
        for column, path_text in facts.empty_columns.items():
            # A statically-empty filtering path behaves exactly like an
            # index probe that returned zero documents, minus the scan:
            # drop the column's probes and pin its document set to ∅.
            prefilters.pop(column, None)
            pruned[column] = set()
            stats.note(f"static prune {column}: path '{path_text}' "
                       f"matches no stored document; branch eliminated")
            if METRICS.enabled:
                METRICS.inc("static.empty_prunes")
            with tracer.span("static-prune", column=column,
                             path=path_text) as span:
                span.set(actual_rows=0, unit="documents")
        if prefilters or pruned:
            runtime_db = run_prefilters(database, prefilters, stats, tracer,
                                        pruned)
        else:
            stats.note("no eligible index: full collection scan")
    else:
        stats.note("indexes disabled: full collection scan")
    docs_before = stats.docs_scanned
    with tracer.span("residual-eval") as span:
        items = evaluate_module(module, database=runtime_db,
                                variables=variables, stats=stats,
                                plan_joins=use_indexes)
        span.set(actual_rows=len(items), unit="items",
                 docs_scanned=stats.docs_scanned - docs_before,
                 summary_lookups=stats.summary_lookups)
    if METRICS.enabled:
        METRICS.inc("queries.xquery")
        METRICS.observe("query.seconds", time.perf_counter() - started)
    if profiler is not None:
        profiler.observe_query(query, "xquery", stats,
                               time.perf_counter() - started)
    return QueryResult(items, stats)


def run_prefilters(database, prefilters: dict[str, ColumnPrefilter],
                   stats: ExecutionStats, tracer,
                   doc_filters=None) -> PrefilteredDatabase:
    """``database`` narrowed to the documents each column's planned
    probes leave (one ``index-probe`` span per column); ``doc_filters``
    holds columns already decided."""
    estimator = _make_probe_estimator(database) if tracer else None
    doc_filters = dict(doc_filters or {})
    answers: dict[str, dict[int, NodeAnswer]] = {}
    for column, prefilter in prefilters.items():
        with tracer.span("index-probe", column=column) as span:
            docs = prefilter.run(stats, tracer=tracer, estimator=estimator,
                                 answers=answers.setdefault(column, {}))
            span.set(actual_rows=len(docs), unit="documents")
        doc_filters[column] = docs
        for note in prefilter.notes:
            stats.note(note)
        stats.note(f"prefilter {column}: {len(docs)} documents survive")
    return PrefilteredDatabase(database, doc_filters, answers)


def explain_xquery(database, query: str) -> str:
    """Human-readable plan + eligibility explanation."""
    compiled = compile_query(query)
    candidates = list(compiled.candidates)
    report = analyze_candidates(database, candidates, query, "xquery")
    stats = ExecutionStats()
    from ..static.infer import static_prefilter_facts
    facts = static_prefilter_facts(database, candidates)
    prefilters = plan_prefilters(database, candidates, stats)
    lines = [report.explain(), "plan:"]
    for column, path_text in facts.empty_columns.items():
        prefilters.pop(column, None)
        lines.append(f"  {column}: statically empty "
                     f"(path '{path_text}' matches no stored document); "
                     f"branch pruned")
    if prefilters:
        for column, prefilter in prefilters.items():
            lines.append(f"  {column}:")
            for note in prefilter.notes:
                lines.append(f"    {note}")
    elif not facts.empty_columns:
        lines.append("  full collection scan")
    lines.extend(f"  {line}" for line in flwor_join_report(compiled.module))
    lines.extend(f"  {line}" for line in flwor_fold_report(compiled.module))
    return "\n".join(lines)
