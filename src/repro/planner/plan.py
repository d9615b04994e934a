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
from dataclasses import dataclass, field, replace

from ..core.between import detect_between
from ..core.eligibility import analyze_candidates, check_index
from ..core.patterns import matcher_for
from ..core.predicates import PredicateCandidate, extract_candidates
from ..core.querycache import cache_info, compile_query
from ..errors import ReproError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..storage.xmlindex import SHARED_PARENT, SKIPPED, TYPED
from ..xdm.atomic import T_STRING
from ..xdm.sequence import Item
from ..xquery import ast as xast
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
    #: Document facts on which the comparison may raise rather than be
    #: false (:func:`_raising_facts`): such documents are admitted too.
    admit: int = 0
    #: The ``comparison_id`` of the comparison probed (0: none).
    comparison: int = 0
    #: Why the entries only filter documents (:func:`_only_documents`);
    #: None: they are the very nodes the comparison selects.
    refusal: str | None = "an existence test"

    def run(self, stats: ExecutionStats, answers: dict | None = None
            ) -> set[int]:
        """The documents with entries in range (and those it admits);
        an exact probe also puts its :class:`NodeAnswer` in ``answers``
        when given, for the documents without a fact it admits for (the
        comparison may raise there; a typed store never reads it)."""
        nodes = {} if self.refusal is None and answers is not None else None
        docs = self.index.matching_documents(
            self.low, self.high, self.low_inclusive, self.high_inclusive,
            path_filter=self.path_filter, stats=stats, nodes=nodes,
            admit=self.admit)
        if nodes is not None:
            for doc_id in nodes.keys() & self.index.documents_with(
                    self.admit):
                del nodes[doc_id]
            answers[self.comparison] = NodeAnswer(self.path_filter, nodes)
        return docs

    def clean(self, docs) -> set[int]:
        """The documents among ``docs`` on which an exact probe decides
        its comparison's whole predicate: live in the index, not typed,
        and without a fact it admits for."""
        return self.index.clean(docs, TYPED | self.admit)

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


#: Value comparisons: they raise on two items or an uncastable value.
_VALUE_OPS = frozenset({"eq", "lt", "le", "gt", "ge"})


def _only_documents(candidate: PredicateCandidate, index, paired: bool,
                    value=None) -> str | None:
    """Why ``candidate``'s probe on ``index`` of the literal (or a join
    operand's atom ``value``) only filters documents, or None when its
    entries are exactly the nodes the comparison selects.

    Exact: one comparison (not ``!=`` or ``ne``, which get no probe),
    alone (no disjunction; a between pair only as its merged range
    scan, :func:`_merged_probe`), of a number on a DOUBLE
    index or a string on a VARCHAR index; a join only on ``=`` or
    ``eq``.  An untyped value the index could not cast (or NaN) is a
    non-match of a general comparison, just as the tolerant index skips
    it; a value comparison (probed over one step only: :func:`_unprobed`)
    raises there instead, so its entries decide only the documents
    :meth:`_Probe.clean` keeps.  The probe's path filter is checked
    against the lookup's own path where the answers are used."""
    if candidate.comparison is None:
        return "an existence test"
    if candidate.negated or candidate.in_disjunction:
        return "the comparison is negated or in a disjunction"
    if paired:
        return "the comparison is one of a between pair"
    if candidate.operand_expr is not None and not candidate.is_equality:
        return f"a join on '{candidate.op}'"
    value = candidate.operand_value if value is None else value
    kind = index.index_type
    if value is None:  # a join's, before its operand is known
        return None if kind in ("DOUBLE", "VARCHAR") \
            else f"a join on a {kind} index"
    if kind == "DOUBLE" and value.is_numeric or \
            kind == "VARCHAR" and value.type_name == T_STRING:
        return None
    return f"a {kind} index with a {value.type_name} operand"


def _unprobed(candidate: PredicateCandidate) -> str | None:
    """Why ``candidate`` gets no probe although an index is eligible: a
    value comparison whose compared path (:func:`~repro.xquery.ast.
    rel_path`) is not at most one child or attribute step naming one
    QName from its focus or variable, or starts at a let variable (a
    sequence), may atomize two nodes of different parents, or of one
    parent on different paths (``@*``, ``*``, ``*:x``), and raise, and
    no document fact records that (:data:`~repro.storage.xmlindex.
    SHARED_PARENT` is per path)."""
    comparison = candidate.comparison
    if not isinstance(comparison, xast.ValueComparison):
        return None
    if candidate.let_bound:
        return (f"'{candidate.op}' compares a path from a let variable, "
                f"which may hold several nodes")
    rels = [rel for side in (comparison.left, comparison.right)
            if side is not candidate.operand_expr
            and (rel := xast.rel_path(side)) is not None]
    if len(rels) == 1 and len(rels[0].steps) <= 1 and all(
            step.test.uri is not None and step.test.local is not None
            for step in rels[0].steps):
        return None
    return (f"'{candidate.op}' compares a path that is not one child or "
            f"attribute step naming one QName from its focus or variable")


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


def _bounds_for(candidate: PredicateCandidate, index, value=None,
                paired: bool = False) -> _Probe | None:
    """Translate an eligible predicate into B+Tree scan bounds: its
    literal's, or (a join's, per outer row) those of the atom
    ``value``; ``paired`` marks one of a between pair."""
    if candidate.op == "exists":
        return _Probe(index, path_filter=candidate.path)
    if value is None:
        value = candidate.operand_value
    if value is None:
        return None  # join predicate: no static bound to scan with
    try:
        key = index.key_for_value(value)
    except ReproError:
        # An uncastable bound legitimately disqualifies the probe (the
        # tolerant-index contract); anything else is a bug and raises.
        return None
    op = candidate.op
    if op in ("!=", "ne"):
        return None  # two scans; not worth it for a prefilter
    return _Probe(index, low=None if op in ("<", "lt", "<=", "le") else key,
                  high=None if op in (">", "gt", ">=", "ge") else key,
                  low_inclusive=op not in (">", "gt"),
                  high_inclusive=op not in ("<", "lt"),
                  path_filter=candidate.path,
                  admit=_raising_facts(candidate),
                  comparison=candidate.comparison_id,
                  refusal=_only_documents(candidate, index, paired, value))


def _merged_probe(group, index) -> _Probe | None:
    """The one range scan of a single-scan between pair on ``index``
    (§3.10), or None when a bound gets no probe.  Its entries are the
    nodes the pair selects, keyed by the lower bound's comparison, when
    each bound alone would be exact (:func:`_only_documents`): the
    compared item is a singleton, so a node passes both comparisons
    exactly when its value is in the range.  Documents with a fact
    either comparison may raise on are admitted and left out."""
    low = _bounds_for(group.lower, index, paired=True)
    high = _bounds_for(group.upper, index, paired=True)
    if low is None or high is None or any(
            _unprobed(member) for member in (group.lower, group.upper)):
        return None
    refusal = (_only_documents(group.lower, index, False)
               or _only_documents(group.upper, index, False))
    return replace(low, high=high.high, high_inclusive=high.high_inclusive,
                   admit=low.admit | high.admit, refusal=refusal)


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

    def on(self, database) -> "ColumnPrefilter":
        """This plan over ``database``'s own index objects: a plan kept
        across executions (the SQL executor's) names its indexes, and
        compaction swaps the object behind a name."""
        indexes = database.xml_indexes
        groups = [self.conjunct_probes, *self.disjunction_probes]
        if all(indexes.get(probe.index.name) is probe.index
               for group in groups for probe in group):
            return self
        bound = [[replace(probe, index=indexes[probe.index.name])
                  for probe in group] for group in groups]
        return replace(self, conjunct_probes=bound[0],
                       disjunction_probes=bound[1:])


def plan_prefilters(database, candidates: list[PredicateCandidate],
                    stats: ExecutionStats) -> dict[str, ColumnPrefilter]:
    """:func:`plan_probes`, plus index-assisted semi-joins of
    XML-to-XML equality joins (:func:`_plan_semi_joins`)."""
    prefilters = plan_probes(database, candidates, stats)
    _plan_semi_joins(database, candidates, prefilters, stats)
    return prefilters


def plan_probes(database, candidates: list[PredicateCandidate],
                stats: ExecutionStats) -> dict[str, ColumnPrefilter]:
    """Choose index probes per XML column from eligible candidates.

    Eligibility alone decides: every candidate with an eligible index
    and statically-known bounds is probed, however unselective, except
    a value comparison :func:`_unprobed` refuses (noted in ``stats``).
    A between pair with the singleton guarantee merges into one range
    scan; a disjunction group is the union of its branches' probes,
    used only when every branch, all on one column, got one.  Each
    probe knows whether its entries are exact (:func:`_only_documents`).
    """
    between_members = {id(member): group
                       for group in detect_between(candidates)
                       for member in (group.lower, group.upper)}
    prefilters: dict[str, ColumnPrefilter] = {}
    handled_groups: set[int] = set()
    disjunctions: dict[int, list[tuple[PredicateCandidate, _Probe]]] = {}
    disjunction_sizes: dict[int, int] = {}

    for candidate in candidates:
        if candidate.in_disjunction:
            disjunction_sizes[candidate.disjunction_group] = \
                disjunction_sizes.get(candidate.disjunction_group, 0) + 1
        table, _sep, column = candidate.column.partition(".")
        group = between_members.get(id(candidate))
        probe = None
        for index in database.xml_indexes_on(table, column):
            if check_index(index, candidate).eligible:
                probe = _bounds_for(candidate, index,
                                    paired=group is not None)
                if probe is not None:
                    break
        if probe is None:
            continue
        chosen_index = probe.index
        refusal = _unprobed(candidate)
        if refusal is not None:
            stats.note(f"index {chosen_index.name} not probed for "
                       f"{candidate.description}: {refusal}")
            continue

        prefilter = prefilters.setdefault(
            candidate.column, ColumnPrefilter(candidate.column))

        if candidate.in_disjunction:
            disjunctions.setdefault(candidate.disjunction_group, []).append(
                (candidate, probe))
            continue

        if group is not None and group.single_scan:
            if id(group) in handled_groups:
                continue
            handled_groups.add(id(group))
            merged = _merged_probe(group, chosen_index)
            if merged is not None:
                prefilter.conjunct_probes.append(merged)
                between = (f"between {group.lower.description} AND "
                           f"{group.upper.description}")
                prefilter.notes.append(
                    f"between collapsed to single range scan on "
                    f"{chosen_index.name} ({group.lower.description} AND "
                    f"{group.upper.description})")
                prefilter.notes.append(
                    f"index {chosen_index.name} answers nodes for {between}"
                    if merged.refusal is None else
                    f"index {chosen_index.name} filters documents only "
                    f"for {between}: {merged.refusal}")
                continue
        if group is not None and not group.single_scan:
            prefilter.notes.append(
                f"general-comparison range pair kept as separate scans "
                f"on {chosen_index.name} (existential semantics, §3.10)")
        prefilter.conjunct_probes.append(probe)
        prefilter.notes.append(
            f"index scan {chosen_index.name} for {candidate.description} "
            f"[{candidate.context.value}]")
        if probe.refusal is None:
            prefilter.notes.append(
                f"index {chosen_index.name} answers nodes for "
                f"{candidate.description}")
        else:
            prefilter.notes.append(
                f"index {chosen_index.name} filters documents only for "
                f"{candidate.description}: {probe.refusal}")

    # Disjunction groups are usable only when every branch got a probe.
    for group_id, members in disjunctions.items():
        columns = {candidate.column for candidate, _probe in members}
        if len(members) != disjunction_sizes[group_id] or len(columns) > 1:
            continue
        prefilter = prefilters[columns.pop()]
        prefilter.disjunction_probes.append(
            [probe for _candidate, probe in members])
        prefilter.notes.append(
            f"disjunction answered by union of {len(members)} index scans")

    return {column: prefilter for column, prefilter in prefilters.items()
            if prefilter.conjunct_probes or prefilter.disjunction_probes}


def join_index(database, candidate: PredicateCandidate,
               stats: ExecutionStats) -> tuple[object, str | None] | None:
    """The index an index nested-loop join probes for the equality
    join ``candidate``, and why its verdict only filters documents
    (:func:`_only_documents`; None: exact); None when no index is
    eligible, the candidate is in a disjunction (a probe per branch
    would intersect), or :func:`_unprobed` refuses it (noted in
    ``stats``)."""
    index = _eligible_index(database, candidate)
    if index is None or candidate.in_disjunction or not candidate.is_equality:
        return None
    refusal = _unprobed(candidate)
    if refusal is not None:
        stats.note(f"index {index.name} not probed for "
                   f"{candidate.description}: {refusal}")
        return None
    return index, _only_documents(candidate, index, False)


def probe_join(index, candidate: PredicateCandidate, atoms: list,
               stats: ExecutionStats
               ) -> tuple[set[int], set[int]] | None:
    """One outer row's probe of an index nested-loop join
    (:func:`join_index`): the documents with an entry equal to one of
    the operand's ``atoms`` or a fact the comparison may raise on, and
    those among them its exact entries decide; None when the
    comparison raises on the operand itself (scan instead)."""
    if len(atoms) > 1 and candidate.op in _VALUE_OPS:
        return None
    probes = [probe for atom in atoms
              if (probe := _bounds_for(candidate, index, atom)) is not None]
    if not probes:
        return index.documents_with(_raising_facts(candidate)), set()
    docs = set().union(*(probe.run(stats) for probe in probes))
    if len(probes) < len(atoms) or any(probe.refusal for probe in probes):
        return docs, set()
    return docs, probes[0].clean(docs)


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
        sides = [(candidate, _eligible_index(database, candidate))
                 for candidate in pair]
        if any(index is None for _candidate, index in sides):
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


def _eligible_index(database, candidate: PredicateCandidate):
    """The first index eligible for ``candidate``, or None."""
    table, _sep, column = candidate.column.partition(".")
    return next((index for index in database.xml_indexes_on(table, column)
                 if check_index(index, candidate).eligible), None)


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
        prefilters, pruned = _plan_query(database, module, candidates,
                                         stats, tracer)
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


def _plan_query(database, module, candidates: list[PredicateCandidate],
                stats: ExecutionStats, tracer=NULL_TRACER
                ) -> tuple[dict[str, ColumnPrefilter], dict[str, set]]:
    """The plan of a standalone XQuery, for running and for EXPLAIN
    alike: static facts, :func:`plan_prefilters`, and the columns whose
    filtering path is statically empty, pruned (column -> no document)."""
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
    for column, path_text in facts.empty_columns.items():
        # A statically-empty filtering path behaves exactly like an
        # index probe that returned zero documents, minus the scan:
        # drop the column's probes and pin its document set to ∅.
        prefilters.pop(column, None)
        stats.note(f"static prune {column}: path '{path_text}' "
                   f"matches no stored document; branch eliminated")
        if METRICS.enabled:
            METRICS.inc("static.empty_prunes")
        with tracer.span("static-prune", column=column,
                         path=path_text) as span:
            span.set(actual_rows=0, unit="documents")
    return prefilters, {column: set() for column in facts.empty_columns}


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
    prefilters, pruned = _plan_query(database, compiled.module, candidates,
                                     stats)
    lines = [report.explain(), "plan:"]
    for column, prefilter in prefilters.items():
        lines.append(f"  {column}:")
        lines.extend(f"    {note}" for note in prefilter.notes)
    if not (prefilters or pruned):
        lines.append("  full collection scan")
    lines.extend(f"  note: {note}" for note in stats.plan_notes)
    lines.extend(f"  {line}" for line in flwor_join_report(compiled.module))
    lines.extend(f"  {line}" for line in flwor_fold_report(compiled.module))
    return "\n".join(lines)
