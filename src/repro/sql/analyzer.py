"""SQL/XML statement analysis: locate embedded XQuery and classify it.

Section 3.2's whole point is that *where* an XQuery expression sits in
the SQL statement decides whether its predicates may use indexes:

=======================================  ==========================
position                                 context
=======================================  ==========================
XMLQUERY in the select list              SQL_SELECT_LIST (no filter)
XMLEXISTS in WHERE                       SQL_WHERE_XMLEXISTS (filters)
XMLEXISTS in WHERE, boolean-valued body  SQL_BOOLEAN_XMLEXISTS (never
                                         filters — Query 9)
XMLTABLE row-producer                    SQL_XMLTABLE_ROW (filters)
XMLTABLE COLUMNS ... PATH                SQL_XMLTABLE_COLUMN (NULLs,
                                         no filter — Query 12)
XMLQUERY/XMLCAST elsewhere               SQL_SCALAR (no filter)
=======================================  ==========================

For each embedded query two candidate sets are extracted:

* **row candidates** — rooted at PASSING variables bound to one XML
  document per SQL row; their context is the SQL position above;
* **global candidates** — rooted at ``db2-fn:xmlcolumn`` inside the
  body; their context comes from ordinary XQuery analysis, since the
  collection access is row-independent (Query 6 vs Query 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.predicates import (Origin, PredicateCandidate, PredicateContext,
                               SQLTypedValue, extract_candidates)
from ..xquery import ast as xast
from ..xquery.parser import parse_xquery
from . import ast
from .values import SQLType


@dataclass
class EmbeddedQuery:
    """One XQuery expression embedded in an SQL statement."""

    text: str
    module: object                      # parsed xquery Module
    passing: list[ast.PassingArg]
    sql_context: PredicateContext
    #: var -> Origin | SQLTypedValue
    scope: dict[str, object] = field(default_factory=dict)
    #: var -> FROM alias the passing expression reads from
    alias_of_var: dict[str, str] = field(default_factory=dict)
    row_candidates: list[PredicateCandidate] = field(default_factory=list)
    global_candidates: list[PredicateCandidate] = field(default_factory=list)


_BOOLEAN_FUNCTIONS = {"not", "exists", "empty", "boolean", "true", "false",
                      "contains", "starts-with", "ends-with", "matches",
                      "deep-equal"}


def body_is_boolean(module) -> bool:
    """Does the XQuery body always return a (non-empty) boolean?

    This is the Query 9 trap: XMLEXISTS over such a body is always
    true, because a boolean is a one-item sequence.
    """
    body = module.body
    if isinstance(body, (xast.GeneralComparison, xast.ValueComparison,
                         xast.NodeComparison, xast.AndExpr, xast.OrExpr,
                         xast.QuantifiedExpr, xast.CastableExpr,
                         xast.InstanceOfExpr)):
        return True
    if isinstance(body, xast.FunctionCall) and \
            body.name.local in _BOOLEAN_FUNCTIONS:
        return True
    return False


def resolve_column(database, aliases: dict[str, str], ref: ast.ColumnRef
                   ) -> tuple[str, str, SQLType] | None:
    """(alias, table, type) of the one table column ``ref`` names, or
    None (an XMLTABLE column, no column, or more than one)."""
    owners = ([ref.qualifier] if ref.qualifier is not None
              else list(aliases))
    matches = [(alias, aliases[alias]) for alias in owners
               if aliases.get(alias)
               and ref.name in database.table(aliases[alias]).columns]
    if len(matches) != 1:
        return None
    alias, table_name = matches[0]
    return alias, table_name, database.table(table_name).columns[ref.name]


def build_scope(database, aliases: dict[str, str],
                passing: list[ast.PassingArg]
                ) -> tuple[dict[str, object], dict[str, str]]:
    """Map PASSING variables to Origins / SQL types, and to aliases."""
    scope: dict[str, object] = {}
    alias_of_var: dict[str, str] = {}
    for argument in passing:
        if not isinstance(argument.expr, ast.ColumnRef):
            continue
        resolved = resolve_column(database, aliases, argument.expr)
        if resolved is None:
            continue
        alias, table_name, sql_type = resolved
        if sql_type.is_xml:
            scope[argument.variable] = Origin(
                f"{table_name}.{argument.expr.name}")
        else:
            scope[argument.variable] = SQLTypedValue(sql_type.name)
        alias_of_var[argument.variable] = alias
    return scope, alias_of_var


def analyze_embedded(database, aliases: dict[str, str], text: str,
                     passing: list[ast.PassingArg],
                     sql_context: PredicateContext) -> EmbeddedQuery:
    module = parse_xquery(text)
    scope, alias_of_var = build_scope(database, aliases, passing)
    context = sql_context
    if sql_context is PredicateContext.SQL_WHERE_XMLEXISTS and \
            body_is_boolean(module):
        context = PredicateContext.SQL_BOOLEAN_XMLEXISTS
    embedded = EmbeddedQuery(text, module, passing, context, scope,
                             alias_of_var)
    embedded.row_candidates = extract_candidates(
        module, base_scope=scope, base_context=context,
        suppress_xmlcolumn=True)
    embedded.global_candidates = extract_candidates(module)
    return embedded


def collect_embedded(database, statement) -> list[EmbeddedQuery]:
    """Every embedded XQuery in the statement, fully classified."""
    #: FROM alias -> base table name (XMLTABLE aliases map to '')
    aliases = {ref.alias: getattr(ref, "name", "")
               for ref in getattr(statement, "from_refs", ())}
    found: list[EmbeddedQuery] = []

    def scan_expr(expr, context: PredicateContext) -> None:
        if isinstance(expr, (ast.XMLQueryExpr, ast.XMLExistsExpr)):
            found.append(analyze_embedded(database, aliases, expr.xquery,
                                          expr.passing, context))
        elif isinstance(expr, (ast.XMLCastExpr, ast.NotCond,
                               ast.IsNullCond)):
            scan_expr(expr.operand, context)
        elif isinstance(expr, (ast.XMLElementExpr, ast.XMLForestExpr,
                               ast.XMLConcatExpr)):
            for child in _publishing_children(expr):
                scan_expr(child, context)
        elif isinstance(expr, (ast.Comparison, ast.AndCond, ast.OrCond)):
            scan_expr(expr.left, context)
            scan_expr(expr.right, context)

    if isinstance(statement, ast.ValuesStmt):
        for expr in statement.exprs:
            scan_expr(expr, PredicateContext.SQL_SELECT_LIST)
        return found

    for item in statement.items:
        scan_expr(item.expr, PredicateContext.SQL_SELECT_LIST)
    for ref in statement.from_refs:
        if isinstance(ref, ast.XMLTableRef):
            row = analyze_embedded(database, aliases, ref.row_xquery,
                                   ref.passing,
                                   PredicateContext.SQL_XMLTABLE_ROW)
            found.append(row)
            from ..core.predicates import _Extractor
            row_origin = _Extractor().origin_of(row.module.body,
                                                dict(row.scope))
            for column in ref.columns:
                if column.path is None or column.for_ordinality:
                    continue
                column_module = parse_xquery(column.path)
                column_scope = dict(row.scope)
                if row_origin is not None:
                    column_scope["."] = row_origin
                embedded = EmbeddedQuery(
                    column.path, column_module, ref.passing,
                    PredicateContext.SQL_XMLTABLE_COLUMN, column_scope,
                    {})
                embedded.row_candidates = extract_candidates(
                    column_module, base_scope=column_scope,
                    base_context=PredicateContext.SQL_XMLTABLE_COLUMN,
                    suppress_xmlcolumn=True)
                found.append(embedded)
    if statement.where is not None:
        for conjunct in split_conjuncts(statement.where):
            if isinstance(conjunct, ast.XMLExistsExpr):
                found.append(analyze_embedded(
                    database, aliases, conjunct.xquery, conjunct.passing,
                    PredicateContext.SQL_WHERE_XMLEXISTS))
            elif isinstance(conjunct, ast.Comparison):
                _analyze_sql_comparison(database, aliases, conjunct, found)
            else:
                scan_expr(conjunct, PredicateContext.SQL_SCALAR)
    return found


def _publishing_children(expr) -> list:
    if isinstance(expr, ast.XMLElementExpr):
        return ([value for _name, value in expr.attributes] +
                list(expr.content))
    if isinstance(expr, ast.XMLForestExpr):
        return [value for _name, value in expr.items]
    return list(expr.items)


def _analyze_sql_comparison(database, aliases, comparison: ast.Comparison,
                            found: list[EmbeddedQuery]) -> None:
    """A WHERE comparison over XMLCAST(XMLQUERY(...)) — Section 3.3.

    The embedded paths are extracted and flagged ``uses_sql_comparison``
    so the eligibility report can explain that *no XML index* applies
    even though the predicate filters rows (Query 15).
    """
    for side in (comparison.left, comparison.right):
        inner = side
        if isinstance(inner, ast.XMLCastExpr):
            inner = inner.operand
        if not isinstance(inner, ast.XMLQueryExpr):
            continue
        embedded = analyze_embedded(database, aliases, inner.xquery,
                                    inner.passing,
                                    PredicateContext.SQL_WHERE_COMPARISON)
        # The path itself carries no comparison; synthesize a candidate
        # for the value the XMLCAST extracts, marked as an SQL-side
        # comparison so check_index reports Reason.SQL_COMPARISON.
        from ..core.predicates import _Extractor
        origin = _Extractor().origin_of(embedded.module.body,
                                        dict(embedded.scope))
        if origin is not None and origin.column and origin.steps:
            from ..core.patterns import LinearPattern, PathPattern
            embedded.row_candidates.append(PredicateCandidate(
                column=origin.column,
                path=PathPattern((LinearPattern(origin.steps),)),
                op=comparison.op if comparison.op != "<>" else "!=",
                operand_type=None,
                operand_value=None,
                context=PredicateContext.SQL_WHERE_COMPARISON,
                uses_sql_comparison=True,
                description=f"SQL comparison over XMLCAST("
                            f"XMLQUERY('{embedded.text[:40]}...'))"))
        found.append(embedded)


def split_conjuncts(condition) -> list:
    if isinstance(condition, ast.AndCond):
        return (split_conjuncts(condition.left) +
                split_conjuncts(condition.right))
    return [condition]


def extract_sql_candidates(database, statement_text: str
                           ) -> list[PredicateCandidate]:
    """All candidates in an SQL statement (for eligibility reports)."""
    from .parser import parse_statement
    statement = parse_statement(statement_text)
    candidates: list[PredicateCandidate] = []
    for embedded in collect_embedded(database, statement):
        candidates.extend(embedded.row_candidates)
        # Global (xmlcolumn-rooted) candidates keep their XQuery
        # contexts; they matter for Queries 6/7-style statements.
        candidates.extend(embedded.global_candidates)
    return candidates
