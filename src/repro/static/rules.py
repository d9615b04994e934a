"""The rules engine behind ``repro lint``.

:func:`lint_statement` runs every static check the engine knows over
one XQuery or SQL/XML statement and returns reason-coded
:class:`~repro.static.diagnostics.Diagnostic` findings:

* parse and inference errors (``SE001``–``SE005``) straight from the
  abstract interpreter in :mod:`repro.static.infer`;
* predicate-level pitfall warnings from the extracted candidates —
  non-filtering contexts (``SW320``, §3.2/§3.4), uncast joins
  (``SW301``, Tip 1), existential between pairs (``SW310``, §3.10);
* index-aware warnings when a database is supplied: for a predicate no
  index can serve, the dominant pattern failure is reported as
  namespace drift (``SW307``), ``/text()`` misalignment (``SW308``) or
  an attribute-axis mistake (``SW309``);
* data-aware drift detection, also database-backed but needing no
  index: when a predicate path matches *no* stored document but a
  namespace-erased / text-stripped / attribute-flipped variant does,
  the lint names the variant that would have matched — turning the
  silent empty result of §3.7–§3.9 into an explanation.
"""

from __future__ import annotations

from ..core.between import detect_between
from ..core.eligibility import analyze_candidates
from ..core.patterns import (LinearPattern, PathPattern, PatternStep,
                             StepTest, erase_namespaces)
from ..core.predicates import FILTERING_CONTEXTS, extract_candidates
from ..core.report import Reason
from ..errors import CatalogError, ReproError
from .diagnostics import Code, Diagnostic, DiagnosticSink
from .infer import infer_module, refine_candidates

__all__ = ["lint_statement"]

#: Index-verdict reasons that map onto pitfall warning codes.
_REASON_TO_CODE = {
    Reason.NAMESPACE_MISMATCH: Code.NAMESPACE_DRIFT,
    Reason.TEXT_MISALIGNMENT: Code.TEXT_MISALIGNMENT,
    Reason.ATTRIBUTE_AXIS: Code.ATTRIBUTE_AXIS,
}


def lint_statement(statement: str, database=None,
                   language: str = "auto") -> list[Diagnostic]:
    """All static findings for one statement.

    ``language`` is ``'xquery'``, ``'sql'`` or ``'auto'`` (SQL when the
    text starts with SELECT/VALUES, matching
    :func:`repro.core.eligibility.analyze_eligibility`).  ``database``
    unlocks the schema-, summary- and index-aware checks; without it
    the purely statement-local rules still run.
    """
    if language == "auto":
        head = statement.lstrip().upper()
        language = ("sql" if head.startswith(("SELECT", "VALUES"))
                    else "xquery")
    sink = DiagnosticSink()
    if language == "sql":
        _lint_sql(statement, database, sink)
    else:
        _lint_xquery(statement, database, sink)
    return sink.findings


# ---------------------------------------------------------------------------
# XQuery
# ---------------------------------------------------------------------------


def _lint_xquery(statement: str, database, sink: DiagnosticSink) -> None:
    from ..xquery.parser import parse_xquery
    try:
        module = parse_xquery(statement)
    except ReproError as error:
        sink.emit(Code.SYNTAX_ERROR, str(error))
        return
    inference = infer_module(module, database=database)
    for finding in inference.diagnostics:
        sink.add(finding)
    candidates = extract_candidates(module)
    refine_candidates(module, candidates)
    _lint_candidates(candidates, database, sink)


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
    _check_sql_names(statement_ast, database, sink)
    if database is None:
        return
    from ..sql.analyzer import extract_sql_candidates
    try:
        candidates = extract_sql_candidates(database, statement)
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
    if database is None:
        return
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
    _check_contexts(candidates, sink)
    _check_uncast_joins(candidates, sink)
    _check_between(candidates, sink)
    if database is not None:
        _check_index_verdicts(candidates, database, sink)
        _check_path_drift(candidates, database, sink)


def _check_contexts(candidates, sink: DiagnosticSink) -> None:
    for candidate in candidates:
        if candidate.context in FILTERING_CONTEXTS:
            continue
        sink.emit(
            Code.NON_FILTERING_CONTEXT,
            f"predicate sits in a {candidate.context.value} context; "
            f"its empty result eliminates nothing, so no index can "
            f"serve it",
            subject=candidate.description, column=candidate.column)


def _check_uncast_joins(candidates, sink: DiagnosticSink) -> None:
    """Tip 1: a comparison between two paths with no provable type."""
    by_comparison: dict[int, list] = {}
    for candidate in candidates:
        if candidate.comparison_id is not None:
            by_comparison.setdefault(candidate.comparison_id,
                                     []).append(candidate)
    for members in by_comparison.values():
        if len(members) < 2:
            continue
        if any(member.operand_type is not None for member in members):
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
    """For predicates no index serves, surface the pattern pitfalls."""
    filtering = [candidate for candidate in candidates
                 if candidate.context in FILTERING_CONTEXTS
                 and not candidate.negated]
    report = analyze_candidates(database, filtering)
    for candidate, predicate_report in zip(filtering, report.predicates):
        verdicts = predicate_report.verdicts
        if not verdicts or any(verdict.eligible for verdict in verdicts):
            continue
        for verdict in verdicts:
            for reason in verdict.reasons:
                code = _REASON_TO_CODE.get(reason)
                if code is None:
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
    stripped = _strip_trailing_text(path)
    if stripped is not None:
        yield (Code.TEXT_MISALIGNMENT, stripped,
               "the element (without /text()) variant")
    appended = _append_text(path)
    if appended is not None:
        yield (Code.TEXT_MISALIGNMENT, appended,
               "the /text() variant")
    flipped = _flip_final_axis(path)
    if flipped is not None:
        yield (Code.ATTRIBUTE_AXIS, flipped,
               "the attribute-axis variant")


def _strip_trailing_text(path: PathPattern) -> PathPattern | None:
    alternatives = []
    changed = False
    for alternative in path.alternatives:
        steps = alternative.steps
        if steps and steps[-1].test.kind == "text":
            steps = steps[:-1]
            changed = True
        if not steps:
            return None
        alternatives.append(LinearPattern(tuple(steps)))
    return PathPattern(tuple(alternatives)) if changed else None


def _append_text(path: PathPattern) -> PathPattern | None:
    alternatives = []
    for alternative in path.alternatives:
        steps = alternative.steps
        if not steps or steps[-1].test.kind != "element":
            return None
        text_step = PatternStep(StepTest("text"))
        alternatives.append(LinearPattern(steps + (text_step,)))
    return PathPattern(tuple(alternatives))


def _flip_final_axis(path: PathPattern) -> PathPattern | None:
    """``…/price`` <-> ``…/@price`` — the §3.9 confusion, both ways."""
    alternatives = []
    changed = False
    for alternative in path.alternatives:
        steps = alternative.steps
        if not steps:
            return None
        final = steps[-1]
        if final.test.kind == "element" and final.test.local:
            flipped = StepTest("attribute", final.test.uri,
                               final.test.local)
        elif final.test.kind == "attribute" and final.test.local:
            flipped = StepTest("element", final.test.uri,
                               final.test.local)
        else:
            return None
        changed = True
        steps = steps[:-1] + (PatternStep(flipped, final.gap),)
        alternatives.append(LinearPattern(steps))
    return PathPattern(tuple(alternatives)) if changed else None
