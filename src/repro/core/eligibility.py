"""Index eligibility: the paper's Definition 1 as an algorithm.

An index ``I`` is eligible to answer predicate ``P`` of query ``Q`` iff
``Q(D) = Q(I(P, D))`` for every document collection ``D``.  The checker
decomposes this exactly as Section 2.2 and Section 3 do:

1. the predicate's *context* must let an empty result eliminate a
   binding (Sections 3.2, 3.4) and must not sit under negation;
2. the index pattern must be **no more restrictive** than the predicate
   path — pattern containment, covering namespaces (§3.7), ``/text()``
   alignment (§3.8) and attribute axes (§3.9);
3. the comparison's data type must guarantee that every qualifying
   value is present in the index (§3.1): a DOUBLE index only serves
   numeric comparisons, a VARCHAR index serves string comparisons and
   purely structural (existence) predicates, and an unknown comparison
   type (an uncast join) serves nothing — Tip 1.

Comparison types come from static inference, not surface syntax: the
compiled-query cache (:mod:`repro.core.querycache`) runs
:func:`repro.static.infer.refine_candidates` over the extracted
candidates, so a ``let``-hoisted cast or a folded constant yields the
same Definition-1 verdict as an inline ``xs:double(.)`` — only a
genuinely untyped operand is rejected as ``TYPE_UNKNOWN``.
"""

from __future__ import annotations

import functools

from ..errors import ReproError
from .patterns import (LinearPattern, PathPattern, PatternStep, StepTest,
                       append_text, erase_namespaces, flip_final_axis,
                       pattern_contains, strip_trailing_text)
from .predicates import (FILTERING_CONTEXTS, PredicateCandidate,
                         PredicateContext)
from .report import (EligibilityReport, IndexVerdict, PredicateReport,
                     Reason)

#: Context -> the reason explaining why it prevents filtering.
_CONTEXT_REASONS = {
    PredicateContext.LET_BINDING: Reason.LET_BINDING,
    PredicateContext.CONSTRUCTOR_CONTENT: Reason.CONSTRUCTOR_CONTENT,
    PredicateContext.KEPT_VALUE: Reason.KEPT_VALUE,
    PredicateContext.AFTER_POSITION: Reason.AFTER_POSITION,
    PredicateContext.SQL_SELECT_LIST: Reason.SQL_SELECT_LIST,
    PredicateContext.SQL_BOOLEAN_XMLEXISTS: Reason.BOOLEAN_XMLEXISTS,
    PredicateContext.SQL_XMLTABLE_COLUMN: Reason.XMLTABLE_COLUMN,
    PredicateContext.SQL_SCALAR: Reason.SQL_SELECT_LIST,
    PredicateContext.QUANTIFIED_EVERY: Reason.NEGATION,
}


def predicate_obstacles(candidate: PredicateCandidate) -> list[Reason]:
    """Why *no* index could answer this predicate, whatever its pattern.

    The index-independent half of Definition 1: negation, SQL
    comparison semantics (§3.3), a context that preserves empty results
    (§3.2, §3.4), and a comparison type that cannot be proven (§3.1).
    """
    reasons: list[Reason] = []
    if candidate.negated:
        reasons.append(Reason.NEGATION)
    if candidate.uses_sql_comparison:
        reasons.append(Reason.SQL_COMPARISON)
    if candidate.context not in FILTERING_CONTEXTS:
        reasons.append(_CONTEXT_REASONS[candidate.context])
    if candidate.op != "exists" and candidate.operand_type is None:
        reasons.append(Reason.TYPE_UNKNOWN)
    return reasons


def check_index(index, candidate: PredicateCandidate) -> IndexVerdict:
    """Decide whether one XML index can answer one predicate."""
    # An unknown comparison type is reported by the type leg below, and
    # only once the pattern fits: a pattern failure explains more.
    reasons = [reason for reason in predicate_obstacles(candidate)
               if reason is not Reason.TYPE_UNKNOWN]
    detail_parts: list[str] = []
    if candidate.context not in FILTERING_CONTEXTS:
        detail_parts.append(f"context: {candidate.context.value}")

    if not pattern_contains(index.pattern, candidate.path):
        reasons.append(_classify_pattern_failure(index.pattern,
                                                 candidate.path))
        detail_parts.append(
            f"index pattern '{index.pattern}' does not contain "
            f"predicate path '{candidate.path}'")
    else:
        type_reason = _check_type(index, candidate)
        if type_reason is not None:
            reasons.append(type_reason)
            detail_parts.append(
                f"comparison type {candidate.operand_type or 'unknown'} "
                f"vs index type {index.index_type}")

    if not reasons:
        return IndexVerdict(index.name, True, [Reason.ELIGIBLE],
                            detail=f"probe {index.index_type} index with "
                                   f"{candidate.description}")
    return IndexVerdict(index.name, False, reasons,
                        detail="; ".join(detail_parts))


@functools.lru_cache(maxsize=1024)
def _classify_pattern_failure(pattern: PathPattern,
                              path: PathPattern) -> Reason:
    """Name the pitfall whose repair makes the index contain the path.

    A §3.7–§3.9 reason is given only when the repaired predicate path
    (namespace-erased; ``/text()`` stripped or appended; final step
    flipped between element and attribute, or the index's final
    ``*``/``node()`` read as ``@*``) is contained by the pattern.
    Memoized: the planner asks on every run of a statement, and both
    patterns are frozen.
    """
    if pattern_contains(erase_namespaces(pattern), erase_namespaces(path)):
        return Reason.NAMESPACE_MISMATCH
    if _contains_variant(pattern, strip_trailing_text(path)) or \
            _contains_variant(pattern, append_text(path)):
        return Reason.TEXT_MISALIGNMENT
    if _contains_variant(pattern, flip_final_axis(path)) or \
            _contains_variant(_wildcard_final_as_attribute(pattern), path):
        return Reason.ATTRIBUTE_AXIS
    return Reason.PATTERN_NOT_CONTAINED


def _contains_variant(pattern: PathPattern | None,
                      path: PathPattern | None) -> bool:
    return pattern is not None and path is not None and \
        pattern_contains(pattern, path)


def _wildcard_final_as_attribute(pattern: PathPattern
                                 ) -> PathPattern | None:
    """``//*`` or ``//node()`` read as the ``//@*`` its author meant."""
    alternatives = []
    for alternative in pattern.alternatives:
        final = alternative.steps[-1]
        if final.test.kind not in ("element", "node") or \
                final.test.uri is not None or final.test.local is not None:
            return None
        alternatives.append(LinearPattern(
            alternative.steps[:-1]
            + (PatternStep(StepTest("attribute"), final.gap),)))
    return PathPattern(tuple(alternatives))


def _check_type(index, candidate: PredicateCandidate) -> Reason | None:
    if candidate.op == "exists":
        # Structural predicate: only an index guaranteed to contain
        # every matching node can prove existence — that is VARCHAR
        # ("all nodes appear in a string index", §2.1).
        if index.index_type == "VARCHAR":
            return None
        return Reason.TYPE_MISMATCH
    if candidate.operand_type is None:
        return Reason.TYPE_UNKNOWN
    if candidate.operand_type == index.index_type:
        return None
    return Reason.TYPE_MISMATCH


def analyze_candidates(database, candidates: list[PredicateCandidate],
                       query_text: str = "",
                       language: str = "xquery") -> EligibilityReport:
    """Evaluate every candidate against every index on its column."""
    report = EligibilityReport(query=query_text, language=language)
    for candidate in candidates:
        table, _sep, column = candidate.column.partition(".")
        predicate_report = PredicateReport(
            description=candidate.description,
            column=candidate.column,
            context=candidate.context.value)
        try:
            indexes = database.xml_indexes_on(table, column)
        except ReproError:
            indexes = []
        for index in indexes:
            predicate_report.verdicts.append(check_index(index, candidate))
        report.predicates.append(predicate_report)
    return report


def statement_language(text: str, language: str = "auto") -> str:
    """'xquery' or 'sql'; 'auto' means SQL when the text starts with
    SELECT/VALUES."""
    if language != "auto":
        return language
    head = text.lstrip().upper()
    return "sql" if head.startswith(("SELECT", "VALUES")) else "xquery"


def statement_candidates(database, text: str, language: str = "auto"
                         ) -> tuple[str, object, list[PredicateCandidate]]:
    """``(language, module, candidates)`` of one statement.

    An XQuery goes through the compiled-query cache, so its candidates
    carry inference-refined comparison types; ``module`` is its parsed
    AST (None for SQL, whose embedded modules hang off the candidates).
    """
    language = statement_language(text, language)
    if language == "sql":
        from ..sql.analyzer import extract_sql_candidates
        return language, None, extract_sql_candidates(database, text)
    from .querycache import compile_query
    compiled = compile_query(text)
    return language, compiled.module, list(compiled.candidates)


def analyze_eligibility(database, query: str,
                        language: str = "auto") -> EligibilityReport:
    """Public entry point: analyze a query's index eligibility.

    ``language`` may be 'xquery', 'sql', or 'auto'
    (:func:`statement_language`).
    """
    language, _module, candidates = statement_candidates(database, query,
                                                         language)
    return analyze_candidates(database, candidates, query, language)
