"""The rules engine behind ``repro lint`` — the one advice pipeline.

:func:`lint_statement` runs every static check the engine knows over
one XQuery or SQL/XML statement and returns reason-coded
:class:`~repro.static.diagnostics.Diagnostic` findings, each carrying
the paper's tip text as its suggestion:

* parse and inference errors (``SE001``–``SE005``) straight from the
  abstract interpreter in :mod:`repro.static.infer`;
* predicate-level pitfall warnings: every index-independent obstacle
  :func:`repro.core.eligibility.predicate_obstacles` finds — SQL
  comparison semantics (``SW303``, Tip 6) and the non-filtering
  contexts (``SW321``–``SW323``, Tips 2–4; ``SW341``/``SW342``, §3.4
  and Tip 7) — plus uncast joins (``SW301``, Tip 1) and existential
  between pairs (``SW310``, §3.10);
* the §3.5 hazard of an absolute path inside a tree rooted at a
  constructed element (``SW305``, Tip 8);
* index-aware warnings when a database is supplied: for a predicate no
  index can serve, each verdict's reason is reported as an index type
  mismatch (``SW311``, Tip 1), namespace drift (``SW307``), ``/text()``
  misalignment (``SW308``) or an attribute-axis mistake (``SW309``);
* data-aware drift detection, also database-backed but needing no
  index: when a predicate path matches *no* stored document but a
  namespace-erased / text-stripped / attribute-flipped variant does,
  the lint names the variant that would have matched — turning the
  silent empty result of §3.7–§3.9 into an explanation.

:func:`lint_index_pattern` checks an XMLPATTERN before the index is
created (Tips 10 and 12).
"""

from __future__ import annotations

from ..core.between import detect_between
from ..core.eligibility import (analyze_candidates, predicate_obstacles,
                                statement_candidates, statement_language)
from ..core.patterns import (PathPattern, append_text, erase_namespaces,
                             flip_final_axis, parse_xmlpattern,
                             strip_trailing_text)
from ..core.predicates import FILTERING_CONTEXTS
from ..core.report import Reason
from ..errors import CatalogError, ReproError
from ..xquery import ast as xast
from .diagnostics import Code, Diagnostic, DiagnosticSink
from .infer import infer_module

__all__ = ["lint_index_pattern", "lint_statement"]

#: Eligibility reason -> the code reporting the same fact.  An unknown
#: comparison type (``TYPE_UNKNOWN``) is reported once per comparison
#: by the uncast-join rule; negation is no pitfall.
_REASON_TO_CODE = {
    Reason.SQL_COMPARISON: Code.SQL_COMPARISON,
    Reason.SQL_SELECT_LIST: Code.SELECT_LIST,
    Reason.BOOLEAN_XMLEXISTS: Code.BOOLEAN_XMLEXISTS,
    Reason.XMLTABLE_COLUMN: Code.XMLTABLE_COLUMN,
    Reason.LET_BINDING: Code.LET_BINDING,
    Reason.CONSTRUCTOR_CONTENT: Code.CONSTRUCTOR_CONTENT,
    Reason.TYPE_MISMATCH: Code.INDEX_TYPE_MISMATCH,
    Reason.NAMESPACE_MISMATCH: Code.NAMESPACE_DRIFT,
    Reason.TEXT_MISALIGNMENT: Code.TEXT_MISALIGNMENT,
    Reason.ATTRIBUTE_AXIS: Code.ATTRIBUTE_AXIS,
}


def lint_statement(statement: str, database=None,
                   language: str = "auto") -> list[Diagnostic]:
    """All static findings for one statement.

    ``language`` is ``'xquery'``, ``'sql'`` or ``'auto'`` (SQL when the
    text starts with SELECT/VALUES, as in
    :func:`repro.core.eligibility.statement_candidates`).  ``database``
    unlocks the schema-, summary- and index-aware checks; without it
    the purely statement-local rules still run.
    """
    sink = DiagnosticSink()
    if statement_language(statement, language) == "sql":
        _lint_sql(statement, database, sink)
    else:
        _lint_xquery(statement, database, sink)
    return sink.findings


def lint_index_pattern(pattern_text: str) -> list[Diagnostic]:
    """Lint an XMLPATTERN before creating the index (Tips 10 and 12)."""
    pattern = parse_xmlpattern(pattern_text)
    findings: list[Diagnostic] = []
    final_tests = pattern.final_tests()
    if all(test.kind != "attribute" for test in final_tests) and any(
            test.kind in ("element", "node") and test.local is None
            for test in final_tests):
        findings.append(Diagnostic(
            Code.ATTRIBUTE_AXIS,
            f"pattern '{pattern_text}' does not index attribute nodes — "
            "//* and //node() never match attributes",
            subject=pattern_text))
    tests = [test for alternative in pattern.alternatives
             for step in alternative.steps
             for test in (step.test,) + step.extra_tests]
    if all(test.uri in ("", None) for test in tests) and any(
            test.uri == "" and test.kind == "element" for test in tests):
        findings.append(Diagnostic(
            Code.PATTERN_EMPTY_NAMESPACE,
            f"pattern '{pattern_text}' restricts element steps to the "
            "empty namespace; queries that declare a default element "
            "namespace will not match it", subject=pattern_text))
    return findings


# ---------------------------------------------------------------------------
# XQuery
# ---------------------------------------------------------------------------


def _lint_xquery(statement: str, database, sink: DiagnosticSink) -> None:
    try:
        _language, module, candidates = statement_candidates(
            database, statement, "xquery")
    except ReproError as error:
        sink.emit(Code.SYNTAX_ERROR, str(error))
        return
    inference = infer_module(module, database=database)
    for finding in inference.diagnostics:
        sink.add(finding)
    _lint_candidates(candidates, database, sink)
    _check_constructed_roots(module, sink)


# ---------------------------------------------------------------------------
# SQL
# ---------------------------------------------------------------------------


def _lint_sql(statement: str, database, sink: DiagnosticSink) -> None:
    from ..sql.parser import parse_statement
    try:
        statement_ast = parse_statement(statement)
    except ReproError as error:
        sink.emit(Code.SYNTAX_ERROR, str(error))
        return
    if database is None:
        return
    _check_sql_names(statement_ast, database, sink)
    try:
        _language, _module, candidates = statement_candidates(
            database, statement, "sql")
    except CatalogError as error:
        sink.emit(Code.UNKNOWN_NAME, str(error))
        return
    except ReproError as error:
        sink.emit(Code.SYNTAX_ERROR, str(error))
        return
    for candidate in candidates:
        _lint_embedded_xquery(candidate, database, sink)
    _lint_candidates(candidates, database, sink)


def _check_sql_names(statement_ast, database, sink: DiagnosticSink
                     ) -> None:
    from ..sql import ast as sql_ast
    tables = [entry for entry in
              getattr(statement_ast, "from_refs", None) or []
              if isinstance(entry, sql_ast.TableRef)]
    for table_ref in tables:
        name = getattr(table_ref, "name", None)
        if not name:
            continue
        try:
            database.table(name)
        except CatalogError:
            sink.emit(Code.UNKNOWN_NAME,
                      f"unknown table {name}", subject=name)
        except AttributeError:
            return  # database object exposes no table lookup


def _lint_embedded_xquery(candidate, database,
                          sink: DiagnosticSink) -> None:
    """Run inference over the XQuery embedded in an SQL candidate."""
    module = getattr(candidate, "module", None)
    if module is None:
        return
    inference = infer_module(module, database=database,
                             report_unknown_vars=False)
    for finding in inference.diagnostics:
        sink.add(finding)


# ---------------------------------------------------------------------------
# Candidate-level rules (shared between the two languages)
# ---------------------------------------------------------------------------


def _lint_candidates(candidates, database, sink: DiagnosticSink) -> None:
    _check_obstacles(candidates, sink)
    _check_uncast_joins(candidates, sink)
    _check_between(candidates, sink)
    if database is not None:
        _check_index_verdicts(candidates, database, sink)
        _check_path_drift(candidates, database, sink)


def _check_obstacles(candidates, sink: DiagnosticSink) -> None:
    """Report what keeps every index away from a predicate, whatever
    indexes exist."""
    for candidate in candidates:
        for reason in predicate_obstacles(candidate):
            code = _REASON_TO_CODE.get(reason)
            if code is None:
                continue
            sink.emit(
                code,
                f"no index can serve {candidate.description}: "
                f"{reason.description}",
                subject=candidate.description, column=candidate.column)


def _check_uncast_joins(candidates, sink: DiagnosticSink) -> None:
    """Tip 1: a comparison between paths none of which has a provable
    type (``TYPE_UNKNOWN`` on every side)."""
    by_comparison: dict[int, list] = {}
    for candidate in candidates:
        by_comparison.setdefault(candidate.comparison_id,
                                 []).append(candidate)
    for members in by_comparison.values():
        if len(members) < 2:
            continue
        if not all(Reason.TYPE_UNKNOWN in predicate_obstacles(member)
                   for member in members):
            continue  # inference proved a side's type: a real probe
        first = members[0]
        sink.emit(
            Code.UNCAST_JOIN,
            f"join {first.description} compares two untyped paths; "
            f"add xs:double(.) / xs:string(.) casts so an index can "
            f"serve either side",
            subject=first.description, column=first.column)


def _check_between(candidates, sink: DiagnosticSink) -> None:
    for group in detect_between(candidates):
        if group.single_scan:
            continue
        sink.emit(
            Code.EXISTENTIAL_BETWEEN,
            f"range pair on {group.lower.column} uses existential "
            f"general comparisons over a possibly non-singleton path; "
            f"it is two independent scans, not a between",
            subject=group.description, column=group.lower.column)


def _check_index_verdicts(candidates, database,
                          sink: DiagnosticSink) -> None:
    """For predicates no index serves, report each index's reason
    beyond the obstacles :func:`_check_obstacles` already named."""
    filtering = [candidate for candidate in candidates
                 if candidate.context in FILTERING_CONTEXTS
                 and not candidate.negated]
    report = analyze_candidates(database, filtering)
    for candidate, predicate_report in zip(filtering, report.predicates):
        verdicts = predicate_report.verdicts
        if not verdicts or any(verdict.eligible for verdict in verdicts):
            continue
        obstacles = predicate_obstacles(candidate)
        for verdict in verdicts:
            for reason in verdict.reasons:
                code = _REASON_TO_CODE.get(reason)
                if code is None or reason in obstacles:
                    continue
                sink.emit(
                    code,
                    f"index {verdict.index_name} cannot serve "
                    f"{candidate.description}: {reason.description}",
                    subject=candidate.description,
                    column=candidate.column,
                    detail=verdict.detail)


def _check_path_drift(candidates, database,
                      sink: DiagnosticSink) -> None:
    """§3.7–§3.9 against the *data*: a path matching nothing where a
    close variant matches is almost certainly the variant's pitfall."""
    seen: set[tuple] = set()
    for candidate in candidates:
        key = (candidate.column, str(candidate.path))
        if key in seen:
            continue
        seen.add(key)
        table, _sep, column = candidate.column.partition(".")
        try:
            if database.docs_with_path(table, column,
                                       candidate.path) > 0:
                continue
            if not database.path_classes(table, column):
                continue  # empty table: nothing to compare against
        except ReproError:
            continue
        for code, variant, note in _drift_variants(candidate.path):
            try:
                count = database.docs_with_path(table, column, variant)
            except ReproError:
                continue
            if count > 0:
                sink.emit(
                    code,
                    f"path '{candidate.path}' matches no stored "
                    f"document, but {note} '{variant}' matches "
                    f"{count}", subject=str(candidate.path),
                    column=candidate.column)
                break


def _drift_variants(path: PathPattern):
    """Close variants of a path, each tagged with the pitfall it
    diagnoses when it matches where the original does not."""
    erased = erase_namespaces(path)
    if erased.alternatives != path.alternatives:
        yield (Code.NAMESPACE_DRIFT, erased,
               "the namespace-erased variant")
    stripped = strip_trailing_text(path)
    if stripped is not None:
        yield (Code.TEXT_MISALIGNMENT, stripped,
               "the element (without /text()) variant")
    appended = append_text(path)
    if appended is not None:
        yield (Code.TEXT_MISALIGNMENT, appended,
               "the /text() variant")
    flipped = flip_final_axis(path)
    if flipped is not None:
        yield (Code.ATTRIBUTE_AXIS, flipped,
               "the attribute-axis variant")


# ---------------------------------------------------------------------------
# §3.5: document vs element navigation
# ---------------------------------------------------------------------------


def _check_constructed_roots(module, sink: DiagnosticSink) -> None:
    """An absolute path inside a tree rooted at a constructed element
    raises err:XPDY0050 — there is no document node above it."""
    constructed_vars = {
        node.var for node in xast.walk(module.body)
        if isinstance(node, (xast.LetClause, xast.ForClause))
        and _is_constructor(node.expr)}

    def rooted_at_constructor(expr) -> bool:
        return _is_constructor(expr) or (
            isinstance(expr, xast.VarRef)
            and expr.name in constructed_vars)

    for node in xast.walk(module.body):
        predicates: list = []
        if isinstance(node, xast.FilterExpr) and \
                rooted_at_constructor(node.primary):
            predicates = node.predicates
        elif isinstance(node, xast.PathExpr) and node.steps and \
                isinstance(node.steps[0], xast.ExprStep) and \
                rooted_at_constructor(node.steps[0].expr):
            for step in node.steps:
                predicates.extend(getattr(step, "predicates", []))
        for predicate in predicates:
            if isinstance(predicate, xast.PathExpr) and predicate.absolute:
                sink.emit(
                    Code.ABSOLUTE_PATH_IN_CONSTRUCTED_TREE,
                    "absolute path ('/' or '//') applied inside a tree "
                    "rooted at a constructed element raises "
                    "err:XPDY0050 (Query 25)")


def _is_constructor(expr) -> bool:
    return isinstance(expr, (xast.DirectElementConstructor,
                             xast.ComputedElementConstructor,
                             xast.ComputedDocumentConstructor))
