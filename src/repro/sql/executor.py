"""SQL/XML executor with index-aware access paths.

Executes SELECT/VALUES/INSERT/DELETE statements over the catalog with
exactly the semantics Section 3.2/3.3 describe:

* ``XMLQUERY`` in the select list runs per row and returns possibly
  empty sequences — rows are never eliminated (Query 5);
* ``XMLEXISTS`` in WHERE filters rows on sequence non-emptiness, which
  makes a boolean-valued body useless (Query 9);
* ``XMLTABLE`` performs a lateral join; its row-producer determines
  cardinality while column paths yield NULL on empty (Queries 11/12);
* ``XMLCAST`` enforces singletons and VARCHAR length limits — the
  Query 14 runtime errors;
* SQL comparisons use padded string semantics, unlike XQuery.

A statement is lowered once (:func:`lower_statement`, cached for one
catalog epoch by :func:`repro.core.querycache.compile_statement`) into
closures ``f(run, env)``, ``env`` holding one row per FROM item: columns
resolved, bodies compiled, join order and strategy planned (and printed
by :func:`explain_sql`).  A :class:`_Run` holds what depends on the
data: probe verdicts, the hash table, the stats.

Access paths (``use_indexes=True``):

* row prefilters from eligible XMLEXISTS / XMLTABLE-row predicates with
  literal bounds (Definition 1 at row granularity), one plan per FROM
  alias by the XQuery planner's candidate loop;
* index nested-loop joins: an eligible join predicate probes the XML
  index with a value computed from the outer row (Queries 13/16), or a
  relational index with an SQL-side value (Query 14);
* a hash join on the WHERE clause's leading ``=`` (Query 15);
* embedded ``db2-fn:xmlcolumn`` bodies get their own collection-level
  prefilter via the XQuery planner (Query 6);
* set-at-a-time bodies (:func:`~repro.xquery.evaluator.evaluate_each`):
  an XMLTABLE column path runs once over all row items of a call, and a
  select-list ``XMLQuery('$v/P' passing <XML column> as "v")`` once per
  distinct document among the rows; casts stay per cell, and a batch
  that declines or raises leaves its cells to run one by one, in the
  reference order.

The planner (:mod:`repro.planner.plan`) chooses every XML probe.  When
the WHERE clause is one XMLEXISTS of ``$doc/P[rel op operand]`` and the
probe planned for that comparison is exact, a row whose document the
probe admitted and whose index facts are clean takes the WHERE clause
as TRUE without running the body.

``use_indexes=False`` lowers the reference plan: nested loops, no index.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass, field
from decimal import Decimal

from ..core.predicates import Origin, PredicateCandidate, PredicateContext
from ..core.querycache import compile_query, compile_statement
from ..errors import ReproError, SQLCastError, SQLError, XQueryError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..planner.plan import (join_index, plan_prefilters, plan_probes,
                            probe_join, run_prefilters)
from ..planner.stats import ExecutionStats
from ..storage.table import Row
from ..xquery import ast as xast
from ..xquery.guard import active_guard
from ..xdm import atomic
from ..xdm.atomic import AtomicValue
from ..xdm.nodes import (AttributeNode, DocumentNode, ElementNode, Node,
                         TextNode, copy_node)
from ..xdm.qname import QName
from ..xdm.sequence import Item, atomize
from ..xquery.evaluator import (batches, evaluate_each, evaluate_module,
                                lower_expression)
from ..xquery.joins import JoinTable
from ..xmlio.parser import parse_columns
from . import ast
from .analyzer import EmbeddedQuery, collect_embedded, split_conjuncts
from .values import (SQLType, XMLValue, coerce_to_type, sql_compare,
                     sql_equality_key)


@dataclass
class SQLResult:
    columns: list[str]
    rows: list[tuple]
    stats: ExecutionStats

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def serialize_rows(self) -> list[tuple]:
        """Rows with XML values rendered as text (for display/tests)."""
        from ..xmlio.serializer import serialize_sequence
        rendered = []
        # sa: ok(SA406: post-execution rendering; server charges bytes)
        for row in self.rows:
            rendered.append(tuple(
                serialize_sequence(value.items)
                if isinstance(value, XMLValue) else value
                for value in row))
        return rendered


def execute_sql(database, statement_text: str,
                use_indexes: bool = True, tracer=None) -> SQLResult:
    profiler = getattr(database, "workload_profiler", None)
    started = (time.perf_counter()
               if METRICS.enabled or profiler is not None else 0.0)
    tracer = tracer or NULL_TRACER
    with tracer.span("parse") as span:
        statement = compile_statement(database, statement_text,
                                      use_indexes)
        span.set(kind=statement.kind)
    result = statement.execute(_Run(statement, database, tracer))
    if METRICS.enabled:
        METRICS.inc("queries.sql")
        METRICS.inc("rows.scanned", result.stats.rows_scanned)
        METRICS.observe("query.seconds", time.perf_counter() - started)
    if profiler is not None:
        profiler.observe_query(statement_text, "sql", result.stats,
                               time.perf_counter() - started)
    return result


def explain_sql(database, statement_text: str) -> str:
    """Human-readable eligibility report + access plan for a statement."""
    from ..core.eligibility import analyze_candidates
    from .analyzer import extract_sql_candidates

    candidates = extract_sql_candidates(database, statement_text)
    report = analyze_candidates(database, candidates, statement_text,
                                "sql")
    lines = [report.explain(), "plan:"]
    plan = compile_statement(database, statement_text, True)
    if not isinstance(plan, _Select):
        lines.append("  VALUES: no table access")
        return "\n".join(lines)
    run = _Run(plan, database)
    plan.prepare(run)
    lines.append("  join order: " +
                 " -> ".join(source.alias for source in plan.sources))
    join = plan.hash_join
    if isinstance(join, _HashJoin):
        lines.append(f"  hash join into {join.alias}: its side of the "
                     f"WHERE clause's leading '=' keyed once per row, "
                     f"probed per row of the tables before it")
    elif join is not None:
        lines.append(f"  nested-loop join: {join}")
    for alias, by_column in run.doc_filters.items():
        for docs in by_column.values():
            lines.append(f"  doc prefilter on {alias}: "
                         f"{len(docs)} documents")
    for alias, rows in run.row_filters.items():
        lines.append(f"  row prefilter on {alias}: {len(rows)} rows")
    for probe in plan.join_probes:
        lines.append(
            f"  {probe.kind} index nested-loop into "
            f"{probe.target_alias} via {probe.index_name} "
            f"(outer: {sorted(probe.outer_deps)})")
    if not (run.doc_filters or run.row_filters or plan.join_probes):
        lines.append("  full scans on every table")
    for note in run.stats.plan_notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def lower_statement(view, statement_text: str, use_indexes: bool
                    ) -> "_Statement":
    """Parse ``statement_text`` and lower it against ``view``'s catalog
    (unknown or ambiguous columns raise here)."""
    from .parser import parse_statement
    statement = parse_statement(statement_text)
    lowering = {ast.SelectStmt: _Select, ast.ValuesStmt: _Values,
                ast.InsertStmt: _Insert, ast.DeleteStmt: _Delete}
    return lowering[type(statement)](view, statement, use_indexes)


# ---------------------------------------------------------------------------
# Lowering: SQL expressions -> closures f(run, env)
# ---------------------------------------------------------------------------

class _Lowerer:
    """SQL expressions -> closures over ``refs``, one ``env`` slot each;
    ``use_indexes`` lowers the batched SQL/XML bodies too."""

    def __init__(self, view, refs: list, use_indexes: bool = False):
        self.refs = refs
        self.use_indexes = use_indexes
        #: per slot: column name -> SQLType (None for XMLTABLE columns)
        self.columns: list[dict] = []
        self.slots: dict[str, int] = {}
        for slot, ref in enumerate(refs):
            if isinstance(ref, ast.TableRef):
                self.columns.append(view.table(ref.name).columns)
            else:
                self.columns.append(dict.fromkeys(_xmltable_names(ref)))
            if ref.alias in self.slots:
                raise SQLError(f"FROM names {ref.alias!r} twice", "42712")
            self.slots[ref.alias] = slot

    def resolve(self, ref: ast.ColumnRef) -> int:
        """The slot of the FROM item ``ref`` names."""
        if ref.qualifier is not None:
            slot = self.slots.get(ref.qualifier)
            if slot is None:
                raise SQLError(f"unknown qualifier {ref.qualifier!r}",
                               "42703")
            if ref.name not in self.columns[slot]:
                raise SQLError(f"unknown column {ref}", "42703")
            return slot
        owners = [slot for slot, columns in enumerate(self.columns)
                  if ref.name in columns]
        if not owners:
            raise SQLError(f"unknown column {ref}", "42703")
        if len(owners) > 1:
            raise SQLError(
                f"column {ref.name!r} is ambiguous: it is in "
                f"{', '.join(self.refs[slot].alias for slot in owners)}",
                "42702")
        return owners[0]

    def deps(self, expr) -> set[str]:
        """The FROM aliases ``expr`` reads."""
        return {self.refs[self.resolve(ref)].alias
                for ref in _nodes(expr, ast.ColumnRef)}

    def column(self, ref: ast.ColumnRef, as_items: bool = False):
        """``f(run, env)`` -> the value, or (PASSING) its XDM items."""
        slot, name = self.resolve(ref), ref.name
        sql_type = self.columns[slot][name]
        if sql_type is None or not sql_type.is_xml:
            if as_items:
                return lambda run, env: _to_xdm_items(env[slot].values[name])
            return lambda run, env: env[slot].values[name]

        def document(run, env):
            stored = env[slot].values[name]
            if as_items:
                return [] if stored is None else [stored.document]
            return None if stored is None else XMLValue([stored.document])
        return document

    def expr(self, expr):
        if isinstance(expr, ast.SQLLiteral):
            value = expr.value
            return lambda run, env: value
        if isinstance(expr, ast.ColumnRef):
            return self.column(expr)
        if isinstance(expr, ast.XMLQueryExpr):
            body = self.body(expr.xquery, expr.passing)
            return lambda run, env: XMLValue(body(run, env))
        if isinstance(expr, ast.XMLExistsExpr):
            body = self.body(expr.xquery, expr.passing)
            return lambda run, env: bool(body(run, env))
        if isinstance(expr, ast.XMLCastExpr):
            return self.xmlcast(expr)
        if isinstance(expr, ast.XMLElementExpr):
            return self.xmlelement(expr)
        if isinstance(expr, ast.XMLForestExpr):
            pieces = [(name, self.expr(value))
                      for name, value in expr.items]
            return lambda run, env: XMLValue([
                _publish_element(name, value)
                for name, piece in pieces
                for value in (piece(run, env),) if value is not None])
        if isinstance(expr, ast.XMLConcatExpr):
            pieces = [self.expr(piece) for piece in expr.items]
            return lambda run, env: XMLValue([
                item for piece in pieces
                for item in _to_xdm_items(piece(run, env))])
        if isinstance(expr, ast.Comparison):
            op = expr.op
            left, right = self.expr(expr.left), self.expr(expr.right)
            return lambda run, env: sql_compare(op, left(run, env),
                                                right(run, env))
        raise SQLError(f"cannot evaluate expression {expr!r}", "42601")

    def cond(self, condition, grouped: bool = False):
        """A closure returning True, False or None (UNKNOWN), over one
        row's ``env`` — or, ``grouped`` (HAVING), over a group's rows."""
        if isinstance(condition, (ast.AndCond, ast.OrCond)):
            left = self.cond(condition.left, grouped)
            right = self.cond(condition.right, grouped)
            decisive = isinstance(condition, ast.OrCond)

            def connective(run, env):
                first = left(run, env)
                if first is decisive:
                    return decisive
                second = right(run, env)
                if second is decisive:
                    return decisive
                if first is None or second is None:
                    return None
                return not decisive
            return connective
        if isinstance(condition, ast.NotCond):
            inner = self.cond(condition.operand, grouped)
            return lambda run, env: _NOT[inner(run, env)]
        if grouped:
            if isinstance(condition, ast.Comparison):
                return self.grouped(condition)
            raise SQLError("unsupported HAVING condition", "42903")
        if isinstance(condition, ast.IsNullCond):
            operand, negated = self.expr(condition.operand), \
                condition.negated
            return lambda run, env: (operand(run, env) is None) != negated
        if isinstance(condition, (ast.Comparison, ast.XMLExistsExpr)):
            return self.expr(condition)
        value = self.expr(condition)

        def truth(run, env):
            result = value(run, env)
            if result is None or isinstance(result, bool):
                return result
            raise SQLError("WHERE condition must be boolean", "42804")
        return truth

    def body(self, text: str, passing: list[ast.PassingArg]):
        """``f(run, env)`` -> the items of an embedded XQuery body."""
        compiled = compile_query(text)
        module = compiled.module
        arguments = [(argument.variable, self.items(argument.expr))
                     for argument in passing]

        def run_body(run, env):
            database = run.body_view(compiled)
            return evaluate_module(
                module, database=database,
                variables={variable: items(run, env)
                           for variable, items in arguments},
                stats=run.stats, plan_joins=run.use_indexes)
        return run_body

    def items(self, expr):
        """``f(run, env)`` -> ``expr`` as XDM items, for PASSING."""
        if isinstance(expr, ast.ColumnRef):
            return self.column(expr, as_items=True)
        value = self.expr(expr)
        return lambda run, env: _to_xdm_items(value(run, env))

    def xmlcast(self, expr: ast.XMLCastExpr):
        operand, target = self.expr(expr.operand), expr.target

        def xmlcast(run, env):
            value = operand(run, env)
            if value is None:
                return None
            if isinstance(value, XMLValue):
                return (_cast_items_to_sql(value.items, target)
                        if value.items else None)
            return coerce_to_type(value, target)
        return xmlcast

    def xmlelement(self, expr: ast.XMLElementExpr):
        name = QName("", expr.name)
        attributes = [(QName("", attribute), self.expr(value))
                      for attribute, value in expr.attributes]
        content = [self.expr(piece) for piece in expr.content]

        def xmlelement(run, env):
            element = ElementNode(name)
            for attribute, value in attributes:
                text = value(run, env)
                if text is not None:
                    element.add_attribute(AttributeNode(
                        attribute, _sql_to_text(text)))
            for piece in content:
                value = piece(run, env)
                if value is not None:
                    _append_items(element, value)
            return XMLValue([element])
        return xmlelement

    def xmltable_column(self, column: ast.XMLTableColumn) -> "_Column":
        """One XMLTABLE column: its cell per row and, for a path
        :func:`evaluate_each` batches, its paths per document."""
        if column.for_ordinality:
            return _Column(lambda run, item, position: position)
        compiled = compile_query(column.path if column.path is not None
                                 else column.name)
        module = compiled.module
        identity = isinstance(module.body, xast.ContextItem)
        sql_type = column.sql_type
        assert sql_type is not None
        copy = sql_type.is_xml and not column.by_ref

        def value(items):
            if not items:
                return None   # empty sequence -> NULL (Query 12)
            if not sql_type.is_xml:
                return _cast_items_to_sql(items, sql_type)
            return XMLValue([copy_node(node) if isinstance(node, Node)
                             else node for node in items]
                            if copy else items)

        def cell(run, item, position):
            return value([item] if identity else evaluate_module(
                module, database=run.body_view(compiled),
                context_item=item, stats=run.stats,
                plan_joins=run.use_indexes))

        def each(run, items):
            return evaluate_each(module, items,
                                 database=run.body_view(compiled),
                                 stats=run.stats)
        batched = self.use_indexes and not identity and batches(module)
        return _Column(cell, value, each if batched else None)

    def batch(self, expr):
        """``f(run, envs)`` -> the values of a select-list
        ``XMLQuery('$v/P' passing <one XML column> as "v")`` for all
        ``envs``, its body evaluated once per distinct document among
        them (:func:`evaluate_each`) and rows sharing a document sharing
        its nodes; None for any other expression, and from ``f`` where
        the batch declines or raises (the rows then run it one by
        one)."""
        if not (self.use_indexes and isinstance(expr, ast.XMLQueryExpr)
                and len(expr.passing) == 1
                and isinstance(expr.passing[0].expr, ast.ColumnRef)):
            return None
        argument = expr.passing[0]
        slot, name = self.resolve(argument.expr), argument.expr.name
        sql_type = self.columns[slot][name]
        compiled = compile_query(expr.xquery)
        module, variable = compiled.module, argument.variable
        if sql_type is None or not sql_type.is_xml or \
                not batches(module, variable):
            return None

        def batch(run, envs):
            if run.guard is not None:
                # One pass over the rows for their documents, one to
                # hand them their values.
                run.guard.tick(2 * len(envs) + 1)
            column = [env[slot].values[name] for env in envs]
            documents: dict[int, DocumentNode] = {}
            for stored in column:
                if stored is not None and id(stored) not in documents:
                    documents[id(stored)] = stored.document
            try:
                found = evaluate_each(module, list(documents.values()),
                                      database=run.body_view(compiled),
                                      variable=variable, stats=run.stats)
            except XQueryError:
                return None
            if found is None:
                return None
            if METRICS.enabled:
                METRICS.inc("sql.batched_bodies")
            run.note(f"XMLQuery evaluated once per document "
                     f"({len(found)} documents for {len(envs)} rows)")
            by_document = dict(zip(documents, found))
            return [XMLValue([] if stored is None
                             else list(by_document[id(stored)]))
                    for stored in column]
        return batch

    # -- grouped statements: closures f(run, group_envs) -----------------

    def grouped(self, expr):
        if isinstance(expr, ast.AggregateExpr):
            return self.aggregate(expr)
        if any(_nodes(expr, ast.AggregateExpr)):
            if not isinstance(expr, ast.Comparison):
                raise SQLError("aggregates may only be nested in "
                               "comparisons", "42903")
            op = expr.op
            left, right = self.grouped(expr.left), self.grouped(expr.right)
            return lambda run, group: sql_compare(op, left(run, group),
                                                  right(run, group))
        value = self.expr(expr)
        return lambda run, group: value(run, group[0]) if group else None

    def aggregate(self, expr: ast.AggregateExpr):
        function = expr.function
        if function == "COUNT" and expr.argument is None:
            return lambda run, group: len(group)
        argument, distinct = self.expr(expr.argument), expr.distinct

        def aggregate(run, group_envs):
            if run.guard is not None:
                # Aggregates evaluate their argument once per group row.
                run.guard.tick(len(group_envs) + 1)
            values = []
            for env in group_envs:
                value = argument(run, env)
                if value is None:
                    continue  # SQL aggregates skip NULLs
                if isinstance(value, XMLValue) and function != "COUNT":
                    raise SQLError(
                        f"cannot {function} XML values", "42818")
                values.append(value)
            if distinct:
                values = [value for position, value in enumerate(values)
                          if value not in values[:position]]
            if function == "COUNT":
                return len(values)
            if not values:
                return None
            if function == "MIN":
                return min(values)
            if function == "MAX":
                return max(values)
            total = sum(values[1:], start=values[0])
            return total / len(values) if function == "AVG" else total
        return aggregate


# ---------------------------------------------------------------------------
# Lowered statements
# ---------------------------------------------------------------------------

class _Statement:
    """Lowered once: nothing of one execution.  ``execute(run)`` runs it."""

    def __init__(self, view, statement, use_indexes: bool):
        self.kind = type(statement).__name__
        self.use_indexes = use_indexes
        self.epoch = view.catalog_epoch   # the catalog it is valid for


class _Values(_Statement):
    def __init__(self, view, statement: ast.ValuesStmt, use_indexes: bool):
        super().__init__(view, statement, use_indexes)
        lower = _Lowerer(view, [])
        self.exprs = [lower.expr(expr) for expr in statement.exprs]

    def execute(self, run: "_Run") -> SQLResult:
        row = tuple(expr(run, ()) for expr in self.exprs)
        return SQLResult([f"col{i + 1}" for i in range(len(row))], [row],
                         run.stats)


class _Insert(_Statement):
    def __init__(self, view, statement: ast.InsertStmt, use_indexes: bool):
        super().__init__(view, statement, use_indexes)
        self.table = statement.table
        table = view.table(statement.table)
        columns = statement.columns or list(table.columns)
        lower = _Lowerer(view, [])
        wrong = next((len(row_exprs) for row_exprs in statement.rows
                      if len(row_exprs) != len(columns)), None)
        if wrong is not None:
            raise SQLError(f"INSERT expects {len(columns)} values, got "
                           f"{wrong}", "42802")
        self.rows = [[(column, table.column_type(column), lower.expr(expr))
                      for column, expr in zip(columns, row_exprs)]
                     for row_exprs in statement.rows]

    def execute(self, run: "_Run") -> SQLResult:
        # Every row is evaluated, parsed and coerced before the first
        # insert, so a bad value in any row leaves the table untouched.
        # sa: ok(SA406: self.rows is the VALUES list — query-sized)
        prepared = [{column: _insert_value(expr(run, ()), sql_type)
                     for column, sql_type, expr in row}
                    for row in self.rows]
        for values in prepared:
            run.view.insert(self.table, values)
        run.stats.note(f"inserted {len(prepared)} row(s) into "
                       f"{self.table}")
        return SQLResult(["rows_inserted"], [(len(prepared),)], run.stats)


def _insert_value(value, sql_type: SQLType):
    """One INSERT value as the row will hold it: XML as a parsed column
    store (or a tree), anything else coerced to the column's type."""
    if value is None:
        return None
    if not sql_type.is_xml:
        return coerce_to_type(value, sql_type)
    if isinstance(value, XMLValue):
        items = value.items
        if len(items) != 1 or not isinstance(items[0], Node):
            raise SQLError("XML column INSERT needs a single node",
                           "42846")
        node = items[0]
        return (node if node.kind == "document"
                else DocumentNode([copy_node(node)]))
    return parse_columns(str(value))


class _Delete(_Statement):
    def __init__(self, view, statement: ast.DeleteStmt, use_indexes: bool):
        super().__init__(view, statement, use_indexes)
        self.table = statement.table
        lower = _Lowerer(view, [ast.TableRef(statement.table,
                                             statement.alias)])
        self.where = (None if statement.where is None
                      else lower.cond(statement.where))

    def execute(self, run: "_Run") -> SQLResult:
        where = self.where
        removed = run.view.delete_rows(
            self.table, None if where is None else
            lambda values: where(run, (Row(0, values),)) is True)
        run.stats.note(f"deleted {removed} row(s) from {self.table}")
        return SQLResult(["rows_deleted"], [(removed,)], run.stats)


@dataclass
class _JoinProbe:
    """An index nested-loop join into ``target_alias``."""

    target_alias: str
    kind: str                       # 'xml' | 'rel'
    index_name: str
    outer_deps: frozenset[str]
    # xml: the candidate, (variable, items getter) of the PASSING
    # arguments its operand reads, and the lowered operand
    candidate: PredicateCandidate | None = None
    arguments: list | None = None
    operand: object | None = None
    value: object | None = None     # rel: the SQL-side value
    #: xml: its exact verdict decides the WHERE clause
    decides: bool = False


@dataclass
class _HashJoin:
    """The WHERE clause's leading ``=``, hashed on one table's side.

    Rows of ``alias`` are keyed once per execution (on first use);
    every binding of the tables before it probes with ``outer``.  A row
    is skipped only when both keys are of one class and differ — the
    equality is then FALSE without raising and, as the leading
    conjunct, decides the WHERE clause before anything else in it runs
    — or, when it is the whole WHERE clause, when a key is NULL.  Rows,
    order, NULLs and errors are the nested loop's.
    """

    alias: str
    inner: object
    outer: object
    #: The WHERE clause is this equality alone: equal keys decide it.
    key_only: bool


@dataclass(slots=True)
class _Source:
    """One FROM item at its place in the join order."""

    slot: int
    alias: str
    table: str | None             # the base table; None: an XMLTABLE
    probes: list                  # index nested-loop probes runnable here
    hash: _HashJoin | None
    body: object = None           # XMLTABLE: the row body, and
    columns: list = field(default_factory=list)   # (name, _Column)


@dataclass
class _Column:
    """One XMLTABLE column: ``cell(run, item, position)`` -> the cell of
    the row of ``item``; and for a path evaluated once per document,
    ``each(run, items)`` -> the path's items for each row
    (:func:`evaluate_each`; None: declined) and ``value(items)`` -> the
    cell they make."""

    cell: object
    value: object = None
    each: object = None


class _Select(_Statement):
    def __init__(self, view, statement: ast.SelectStmt, use_indexes: bool):
        super().__init__(view, statement, use_indexes)
        refs = statement.from_refs
        lower = _Lowerer(view, refs, use_indexes)
        self.columns = [_column_name(item, position)
                        for position, item in enumerate(statement.items, 1)]
        self.where = (None if statement.where is None
                      else lower.cond(statement.where))
        self.grouped = bool(statement.group_by) or any(_nodes(
            [statement.items, statement.having], ast.AggregateExpr))
        if self.grouped:
            self.group_by = [lower.expr(expr) for expr in statement.group_by]
            self.items = [lower.grouped(item.expr)
                          for item in statement.items]
            self.having = (None if statement.having is None
                           else lower.cond(statement.having, grouped=True))
            self.order_by = [(lower.grouped(expr), descending)
                             for expr, descending in statement.order_by]
        else:
            self.items = [lower.expr(item.expr) for item in statement.items]
            self.order_by = [(lower.expr(expr), descending)
                             for expr, descending in statement.order_by]
        #: per select item: ``f(run, envs)`` projecting it for all rows
        #: at once (:meth:`_Lowerer.batch`), or None
        self.batches = [None if self.grouped else lower.batch(item.expr)
                        for item in statement.items]

        #: (_Run method, arguments...) run per execution, in order: the
        #: index probes that leave row/doc filters, and plan notes
        self.steps: list = [
            (_Run.note, f"XMLQuery in select item {position} evaluated "
                        f"once per document")
            for position, batch in enumerate(self.batches, start=1)
            if batch is not None]
        self.join_probes: list[_JoinProbe] = []
        if use_indexes:
            self._plan_embedded(view, collect_embedded(view, statement),
                                lower, statement.where)
            for conjunct in split_conjuncts(statement.where):
                if isinstance(conjunct, ast.Comparison):
                    self._plan_relational(view, conjunct, lower)
        order = self._order_joins(refs, lower)
        #: the hash join, or why the join stays a nested loop (None: no
        #: join, or the reference plan)
        self.hash_join = (self._plan_hash_join(statement, order, lower)
                          if use_indexes else None)
        self.sources: list[_Source] = []
        bound: set[str] = set()
        for ref in order:
            source = _Source(
                lower.slots[ref.alias], ref.alias,
                ref.name if isinstance(ref, ast.TableRef) else None,
                [probe for probe in self.join_probes
                 if probe.target_alias == ref.alias
                 and probe.outer_deps <= bound],
                self.hash_join if isinstance(self.hash_join, _HashJoin)
                and self.hash_join.alias == ref.alias else None)
            if isinstance(ref, ast.XMLTableRef):
                if not lower.deps(ref.passing) <= bound:
                    raise SQLError(
                        f"XMLTABLE {ref.alias} passes a column of a FROM "
                        f"item that is not joined before it", "42703")
                source.body = lower.body(ref.row_xquery, ref.passing)
                # No COLUMNS: the one named column is the row item.
                cells = [lower.xmltable_column(column)
                         for column in ref.columns] or \
                    [_Column(lambda run, item, position: XMLValue([item]))]
                source.columns = list(zip(_xmltable_names(ref), cells))
                self.steps.extend(
                    (_Run.note, f"XMLTABLE {ref.alias} column \"{name}\" "
                                f"evaluated per document")
                    for name, column in source.columns
                    if column.each is not None)
            self.sources.append(source)
            bound.add(ref.alias)
        #: probe targets run behind their outer tables: restore the FROM
        #: clause's nested-loop order, which the reference plan returns
        self.reordered = order != refs

    # -- planning (once per lowering) ----------------------------------

    def _plan_embedded(self, view, embedded: list[EmbeddedQuery],
                       lower: _Lowerer, where) -> None:
        """Per FROM alias, the row prefilter its row candidates leave
        (:func:`plan_probes` over all of them: one plan, as an XQuery
        gets) and its index nested-loop joins (:func:`join_index`)."""
        by_alias: dict[str, list] = {}
        for query in embedded:
            # A candidate names its column, not its variable: a column
            # the body reads through two aliases has no alias to filter.
            origin_alias: dict[str, str | None] = {}
            for var, bound in query.scope.items():
                alias = query.alias_of_var.get(var)
                if isinstance(bound, Origin) and alias is not None:
                    known = origin_alias.setdefault(bound.column, alias)
                    if known != alias:
                        origin_alias[bound.column] = None
            for candidate in query.row_candidates:
                alias = origin_alias.get(candidate.column)
                if alias is not None:
                    by_alias.setdefault(alias, []).append(
                        (query, candidate))
        for alias, found in by_alias.items():
            notes = ExecutionStats()
            prefilters = plan_probes(
                view, [candidate for _query, candidate in found], notes)
            probes = {probe.comparison: probe
                      for prefilter in prefilters.values()
                      for probe in prefilter.conjunct_probes}
            decides = 0
            for query, candidate in found:
                if candidate.operand_expr is None:
                    probe = probes.get(candidate.comparison_id)
                    if candidate.comparison is not None and probe and \
                            _decides(query, where, alias, candidate,
                                     probe.index.name, probe.refusal, notes):
                        decides = candidate.comparison_id
                    continue
                deps = {query.alias_of_var.get(var)
                        for var in candidate.operand_vars}
                planned = (None if None in deps or not deps
                           else join_index(view, candidate, notes))
                if planned is None:
                    continue
                index, refusal = planned
                notes.note(f"index nested-loop join into {alias} via "
                           f"{index.name}: {candidate.description}")
                self.join_probes.append(_JoinProbe(
                    target_alias=alias, kind="xml", index_name=index.name,
                    outer_deps=frozenset(deps), candidate=candidate,
                    arguments=[(argument.variable,
                                lower.items(argument.expr))
                               for argument in query.passing
                               if argument.variable
                               in candidate.operand_vars],
                    operand=lower_expression(query.module,
                                             candidate.operand_expr),
                    decides=_decides(query, where, alias, candidate,
                                     index.name, refusal, notes)))
            if prefilters:
                self.steps.append((_Run.prefilter, alias, prefilters,
                                   decides))
            self.steps.extend((_Run.note, note) for note in notes.plan_notes)

    def _plan_relational(self, view, comparison: ast.Comparison,
                         lower: _Lowerer) -> None:
        for own, other in ((comparison.left, comparison.right),
                           (comparison.right, comparison.left)):
            if not isinstance(own, ast.ColumnRef):
                continue
            ref = lower.refs[lower.resolve(own)]
            if not isinstance(ref, ast.TableRef) or \
                    view.table(ref.name).columns[own.name].is_xml:
                continue
            indexes = view.rel_indexes_on(ref.name, own.name)
            if not indexes:
                continue
            index, alias = indexes[0], ref.alias
            if isinstance(other, ast.SQLLiteral):
                if comparison.op != "=":
                    continue
                self.steps.append((
                    _Run.row_lookup, alias, index.name, other.value,
                    f"relational index lookup on {alias}.{own.name} via "
                    f"{index.name}"))
            elif comparison.op == "=":
                deps = lower.deps(other)
                if deps and alias not in deps:
                    self.join_probes.append(_JoinProbe(
                        target_alias=alias, kind="rel",
                        index_name=index.name, outer_deps=frozenset(deps),
                        value=lower.expr(other)))
                    self.steps.append((
                        _Run.note, f"relational index nested-loop join "
                        f"into {alias} via {index.name}"))

    def _order_joins(self, refs: list, lower: _Lowerer) -> list:
        """Greedy join ordering: place an index-probe target after the
        aliases its probe depends on (so Query 14's relational probe
        into products runs per orders row, not the other way around).
        XMLTABLE refs always stay after the aliases they PASS from."""
        remaining = list(refs)
        ordered: list = []
        bound: set[str] = set()
        while remaining:
            chosen = None
            for ref in remaining:
                if isinstance(ref, ast.XMLTableRef) and \
                        not lower.deps(ref.passing) <= bound:
                    continue
                probes = [probe for probe in self.join_probes
                          if probe.target_alias == ref.alias]
                if probes and not any(probe.outer_deps <= bound
                                      for probe in probes):
                    # Defer: its probe could become usable later.
                    deferrable = any(
                        probe.outer_deps <= bound |
                        {other.alias for other in remaining
                         if other is not ref}
                        for probe in probes)
                    if deferrable:
                        continue
                chosen = ref
                break
            if chosen is None:
                chosen = remaining[0]
            ordered.append(chosen)
            bound.add(chosen.alias)
            remaining.remove(chosen)
        return ordered

    def _plan_hash_join(self, statement: ast.SelectStmt, order: list,
                        lower: _Lowerer) -> _HashJoin | str | None:
        """A hash join for the WHERE clause's leading equality (see
        :class:`_HashJoin`), the reason there is none, or None for a
        statement that joins nothing."""
        if len(order) < 2 or statement.where is None:
            return None
        leading = statement.where
        while isinstance(leading, ast.AndCond):
            leading = leading.left
        if not (isinstance(leading, ast.Comparison) and leading.op == "="):
            return "the WHERE clause does not lead with an '=' comparison"
        sides = [(side, lower.deps(side))
                 for side in (leading.left, leading.right)]
        position = {ref.alias: place for place, ref in enumerate(order)}
        probed = {probe.target_alias for probe in self.join_probes}
        reason = ("the leading '=' does not compare one table with the "
                  "tables joined before it")
        for (inner, inner_deps), (outer, outer_deps) in (sides, sides[::-1]):
            if len(inner_deps) != 1 or not outer_deps:
                continue
            alias = next(iter(inner_deps))
            if not (isinstance(order[position[alias]], ast.TableRef)
                    and all(position[dep] < position[alias]
                            for dep in outer_deps)):
                continue
            if alias in probed:
                reason = f"an index nested-loop join probes {alias}"
                continue
            return _HashJoin(alias, lower.expr(inner), lower.expr(outer),
                             key_only=leading is statement.where)
        return reason

    # -- execution ------------------------------------------------------

    def prepare(self, run: "_Run") -> None:
        """Run the plan's index probes (row and doc filters) and notes."""
        for step, *arguments in self.steps:
            step(run, *arguments)

    def execute(self, run: "_Run") -> SQLResult:
        tracer, stats = run.tracer, run.stats
        with tracer.span("plan") as span:
            self.prepare(run)
            span.set(doc_filters=len(run.doc_filters),
                     row_filters=len(run.row_filters),
                     join_probes=len(self.join_probes))
        if isinstance(self.hash_join, _HashJoin):
            stats.note(f"hash join into {self.hash_join.alias} "
                       f"on the WHERE clause's leading '='")
        envs: list[tuple] = []
        with tracer.span("join-scan") as span:
            run._join(0, [None] * len(self.sources), envs, False)
            if self.reordered:
                envs.sort(key=lambda env: [binding.row_id
                                           for binding in env])
            span.set(actual_rows=len(envs), unit="rows",
                     rows_scanned=stats.rows_scanned)

        if run.guard is not None:
            # Pure SQL obeys the same row budget as a FLWOR return
            # clause: a joined row set beyond the cap aborts (54000)
            # instead of being projected and filtered down later.
            run.guard.check_items(len(envs))
        if self.grouped:
            return SQLResult(self.columns, run._grouped(envs), stats)
        if self.order_by:
            envs.sort(key=lambda env: [
                _OrderKey(key(run, env), descending)
                for key, descending in self.order_by])
        with tracer.span("project") as span:
            items = self.items
            batched = [batch and batch(run, envs) for batch in self.batches]
            if any(batched):
                rows = [tuple([item(run, env) if values is None
                               else values[position]
                               for item, values in zip(items, batched)])
                        for position, env in enumerate(envs)]
            else:
                rows = [tuple([item(run, env) for item in items])
                        for env in envs]
            span.set(actual_rows=len(rows), unit="rows")
        return SQLResult(self.columns, rows, stats)


# ---------------------------------------------------------------------------
# One execution
# ---------------------------------------------------------------------------

class _Run:
    """One execution: index verdicts, the hash table, the views bodies
    read, the stats and the guard — all that depends on the data."""

    def __init__(self, statement: _Statement, view, tracer=NULL_TRACER):
        self.statement = statement
        self.view = view
        self.tracer = tracer
        self.use_indexes = statement.use_indexes
        self.stats = ExecutionStats()
        self.guard = active_guard()
        #: alias -> allowed row ids; alias -> {XML column: doc ids}
        self.row_filters: dict[str, set[int]] = {}
        self.doc_filters: dict[str, dict[str, set[int]]] = {}
        #: alias -> the doc ids whose rows an exact literal probe decided
        self.decided: dict[str, set[int]] = {}
        #: body source -> the view it reads (its prefilters applied)
        self._bodies: dict[str, object] = {}
        self._hash_rows: list | None = None
        self._hash_table: JoinTable | None = None

    def prefilter(self, alias: str, prefilters: dict, decides: int) -> None:
        """``alias``'s planned index prefilter (:func:`plan_probes`)
        filters its rows; the exact probe of the comparison ``decides``
        (its ``comparison_id``; 0: none) decides the WHERE clause for the
        clean documents among them."""
        by_column = self.doc_filters[alias] = {}
        for column, prefilter in prefilters.items():
            prefilter = prefilter.on(self.view)
            docs = by_column[column] = prefilter.run(self.stats,
                                                     tracer=self.tracer)
            self.stats.plan_notes.extend(prefilter.notes)
            for probe in prefilter.conjunct_probes:
                if decides and probe.comparison == decides:
                    self.decided[alias] = probe.clean(docs)

    def row_lookup(self, alias: str, index_name: str, value,
                   note: str) -> None:
        """A relational index lookup of a literal filters ``alias``."""
        rows = set(self.view.rel_indexes[index_name].lookup(
            value, stats=self.stats))
        existing = self.row_filters.get(alias)
        self.row_filters[alias] = rows if existing is None else existing & rows
        self.note(note)

    def note(self, note: str) -> None:
        self.stats.note(note)

    def body_view(self, compiled) -> object:
        """The view a body reads: its own xmlcolumn prefilters (Query 6),
        planned on first use."""
        view = self._bodies.get(compiled.source)
        if view is None:
            prefilters = (plan_prefilters(self.view,
                                          list(compiled.candidates),
                                          self.stats)
                          if self.use_indexes and compiled.candidates
                          else None)
            view = self._bodies[compiled.source] = (
                run_prefilters(self.view, prefilters, self.stats,
                               self.tracer) if prefilters else self.view)
        return view

    # -- join enumeration ----------------------------------------------

    def _join(self, depth: int, env: list, out: list,
              decided: bool) -> None:
        """Enumerate bindings; ``decided`` means a hash-join key match
        already made the WHERE clause TRUE."""
        plan = self.statement
        if depth == len(plan.sources):
            if decided or plan.where is None or \
                    plan.where(self, env) is True:
                out.append(tuple(env))
            return
        source = plan.sources[depth]
        slot = source.slot
        guard = self.guard
        if source.table is None:
            for row in self._xmltable_rows(source, env):
                if guard is not None:
                    guard.tick()
                env[slot] = row
                self._join(depth + 1, env, out, decided)
            return
        if source.hash is not None:
            candidates = self._hash_candidates(source, env)
        else:
            rows, flags = self._located(source, env)
            candidates = zip(rows, flags or [False] * len(rows))
        for row, matched in candidates:
            if guard is not None:
                # The join scan is where a runaway cross product burns
                # time; the deadline must interrupt it here.
                guard.tick()
            self.stats.rows_scanned += 1
            env[slot] = row
            self._join(depth + 1, env, out, decided or matched)

    def _hash_candidates(self, source: _Source, env: list
                         ) -> list[tuple[object, bool]]:
        """(row, WHERE decided by the keys) for the rows of the hash
        join's table the WHERE clause may accept, in table order."""
        join = source.hash
        if self._hash_rows is None:
            self._hash_build(source, len(env))
        if not self._hash_rows:
            return []
        slots, decided = self._hash_table.probe(
            *self._equality_key(join.outer, env))
        rows = self._hash_rows
        return [(rows[slot], join.key_only and slot in decided)
                for slot in slots]

    def _hash_build(self, source: _Source, width: int) -> None:
        # No index probe targets this alias, so its rows do not depend
        # on the outer binding.
        join = source.hash
        rows = self._located(source, None)[0]
        if self.guard is not None:
            self.guard.tick(len(rows) + 1)
        self.stats.rows_scanned += len(rows)
        self._hash_table = table = JoinTable(
            lambda probe, row: _keys_undecided(probe, row, join.key_only))
        scratch: list = [None] * width
        for slot, row in enumerate(rows):
            scratch[source.slot] = row
            table.add(slot, *self._equality_key(join.inner, scratch))
        self._hash_rows = rows

    def _equality_key(self, expr, env) -> tuple[str, list]:
        """(key class, [key]) of one ``=`` operand for :class:`JoinTable`
        (see :func:`sql_equality_key`); class "error" when evaluating
        the operand raises."""
        try:
            key_class, key = sql_equality_key(expr(self, env))
        except (SQLError, XQueryError):
            return "error", []
        return key_class, ([] if key is None else [(key_class, key)])

    def _located(self, source: _Source, env
                 ) -> tuple[list[Row], list[bool] | None]:
        """The rows of ``source`` the plan's index verdicts leave, in
        table order: every row without a verdict, else the intersection
        of the verdicts' rows, located in O(matches); and for each
        whether an exact probe decided the WHERE clause (None: no row
        decided)."""
        table = self.view.table(source.table)
        row_ids = self.row_filters.get(source.alias)
        doc_filters = self.doc_filters.get(source.alias, {})
        if not source.probes and row_ids is None and not doc_filters:
            return table.rows, None
        locator = table.locator()
        verdicts = []
        decided = self.decided.get(source.alias)
        for probe in source.probes:
            matched = self._run_join_probe(probe, env, locator)
            if matched is not None:
                positions, by_probe = matched
                verdicts.append(positions)
                if by_probe:
                    decided = by_probe if not decided else decided | by_probe
        if row_ids is not None:
            verdicts.append(locator.positions_of_rows(row_ids))
        for allowed_docs in doc_filters.values():
            # A doc filter is an index verdict about the row's XML
            # documents; a row referencing *no* documents (NULL or
            # relational-only columns) is outside the index's scope and
            # must survive to be judged by the residual WHERE clause.
            verdicts.append(locator.positions_of_docs(allowed_docs)
                            .union(locator.docless))
        if not verdicts:
            return locator.rows, None
        positions = sorted(set.intersection(*verdicts))
        rows = locator.rows
        located = [rows[position] for position in positions]
        if not decided:
            return located, None
        decided = locator.positions_of_docs(decided)
        flags = [position in decided for position in positions]
        if METRICS.enabled:
            METRICS.inc("index.decided_rows", sum(flags))
        return located, flags

    def _run_join_probe(self, probe: _JoinProbe, env: list, locator
                        ) -> tuple[set[int], set[int]] | None:
        """(row positions, doc ids it decides) of an index nested-loop
        probe for the outer binding ``env``; None when the probe cannot
        run (scan instead)."""
        if probe.kind == "rel":
            try:
                value = probe.value(self, env)
            except ReproError:
                # The join key itself errors for this outer row (e.g.
                # XMLCAST over a multi-item sequence).  Fall back to a
                # scan so the error surfaces — or not — according to
                # the WHERE clause's own evaluation order.
                return None
            if value is None:
                return set(), set()
            return locator.positions_of_rows(
                self.view.rel_indexes[probe.index_name].lookup(
                    value, stats=self.stats)), set()
        # XML probe: evaluate the operand per outer row.
        variables = {variable: items(self, env)
                     for variable, items in probe.arguments}
        try:
            atoms = atomize(probe.operand(variables, self.view,
                                          self.stats))
        except ReproError:
            return None  # fall back to full scan of the inner table
        found = probe_join(self.view.xml_indexes[probe.index_name],
                           probe.candidate, atoms, self.stats)
        if found is None:
            return None  # the comparison raises: let every row say so
        docs, decided = found
        return (locator.positions_of_docs(docs),
                decided if probe.decides else set())

    def _xmltable_rows(self, source: _Source, env: list) -> list[Row]:
        """The rows an XMLTABLE's row body makes for ``env``.  A column
        path :func:`evaluate_each` batches runs once over all the row
        items (one document's, as a rule); where the batch declines or
        raises, that column runs cell by cell.  Casts, and cells run
        one by one, go row by row, column by column, so the first
        error is the one a cell-by-cell run raises."""
        items = source.body(self, env)
        columns = source.columns
        found = [self._column_batch(column, items) for _name, column
                 in columns]
        return [Row(position, {
            name: column.cell(self, item, position) if paths is None
            else column.value(paths[position - 1])
            for (name, column), paths in zip(columns, found)})
            for position, item in enumerate(items, start=1)]

    def _column_batch(self, column: _Column, items: list
                      ) -> list | None:
        """``column``'s path results for all ``items``, or None."""
        if column.each is None or not items:
            return None
        try:
            found = column.each(self, items)
        except XQueryError:
            return None
        if found is not None and METRICS.enabled:
            METRICS.inc("sql.batched_bodies")
        return found

    def _grouped(self, envs: list[tuple]) -> list[tuple]:
        plan = self.statement
        if self.guard is not None:
            # Grouping evaluates the GROUP BY keys once per input row.
            self.guard.tick(len(envs) + 1)
        groups: dict[tuple, list[tuple]] = {}
        for env in envs:
            key = tuple(_group_key(expr(self, env))
                        for expr in plan.group_by)
            groups.setdefault(key, []).append(env)
        if not plan.group_by and not groups:
            groups[()] = []   # aggregates over an empty input: one row

        keyed_rows: list[tuple[list, tuple]] = []
        for group_envs in groups.values():
            if plan.having is not None and \
                    plan.having(self, group_envs) is not True:
                continue
            row = tuple(item(self, group_envs) for item in plan.items)
            keys = [_OrderKey(key(self, group_envs), descending)
                    for key, descending in plan.order_by]
            keyed_rows.append((keys, row))
        if plan.order_by:
            keyed_rows.sort(key=lambda pair: pair[0])
        return [row for _keys, row in keyed_rows]


# ---------------------------------------------------------------------------
# Helpers and value conversions
# ---------------------------------------------------------------------------

def _xmltable_names(ref: ast.XMLTableRef) -> list[str]:
    """The column names an XMLTABLE's rows carry."""
    aliases = ref.column_aliases
    names = [aliases[index] if index < len(aliases) else column.name
             for index, column in enumerate(ref.columns)]
    return names if ref.columns else aliases[:1]


def _column_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return f"col{position}"


def _decides(embedded: EmbeddedQuery, where, alias: str,
             candidate: PredicateCandidate, index_name: str,
             refusal: str | None, notes: ExecutionStats) -> bool:
    """Does the exact verdict (``refusal`` None) of ``candidate``'s
    probe decide the WHERE clause, its XMLEXISTS being the whole
    clause?  An XMLEXISTS of the WHERE clause notes which."""
    if embedded.sql_context is not PredicateContext.SQL_WHERE_XMLEXISTS:
        return False
    refusal = _exists_shape(embedded, where, alias, candidate) or refusal
    if refusal is not None:
        notes.note(f"index {index_name} filters rows only for "
                   f"{candidate.description}: {refusal}")
        return False
    notes.note(f"index {index_name} decides XMLEXISTS for "
               f"{candidate.description}")
    return True


def _exists_shape(embedded: EmbeddedQuery, where, alias: str,
                  candidate: PredicateCandidate) -> str | None:
    """Why not all of: the WHERE clause is ``embedded`` alone, every
    PASSING argument a column, and its body ``$doc/P[rel op operand]``
    with ``$doc`` a document of ``alias``, ``P`` axis steps, the one
    predicate ``candidate``'s comparison, ``rel`` a
    :func:`~repro.xquery.ast.rel_path` from the focus without predicates
    (maybe ending in ``xs:double(.)``), the operand a literal or a
    ``rel_path`` from a variable; None when all hold."""
    if not (isinstance(where, ast.XMLExistsExpr)
            and where.passing is embedded.passing):
        return "the WHERE clause is not this XMLEXISTS alone"
    if not all(isinstance(argument.expr, ast.ColumnRef)
               for argument in embedded.passing):
        return "a PASSING argument is not a column"
    body = embedded.module.body
    refusal = "the body is not $doc/P[rel op operand]"
    comparison = candidate.comparison
    if not (isinstance(body, xast.PathExpr) and not body.absolute
            and len(body.steps) > 1 and isinstance(
                comparison, (xast.GeneralComparison, xast.ValueComparison))):
        return refusal
    first, *steps = body.steps
    if not (isinstance(first, xast.ExprStep) and not first.predicates
            and isinstance(first.expr, xast.VarRef)
            and embedded.alias_of_var.get(first.expr.name) == alias
            and getattr(embedded.scope.get(first.expr.name), "column",
                        None) == candidate.column
            and all(isinstance(step, xast.AxisStep) for step in steps)
            and not any(step.predicates for step in steps[:-1])
            and len(steps[-1].predicates) == 1
            and steps[-1].predicates[0] is comparison):
        return refusal
    for rel, operand in ((comparison.left, comparison.right),
                         (comparison.right, comparison.left)):
        shape = xast.rel_path(rel)
        if shape is None or shape.var is not None or shape.filtered \
                or shape.cast not in (None, "double"):
            continue
        if (isinstance(operand, xast.Literal)
                if candidate.operand_expr is None
                else operand is candidate.operand_expr
                and getattr(xast.rel_path(operand), "var", None)):
            return None
    return refusal


#: SQL NOT in three-valued logic (None is UNKNOWN)
_NOT = {True: False, False: True, None: None}


def _keys_undecided(probe: str, row: str, key_only: bool) -> bool:
    """Must the WHERE clause judge a pair whose ``=`` operands have key
    classes ``probe`` and ``row`` (see :func:`sql_equality_key`)?"""
    if "error" in (probe, row):
        return True   # re-evaluating raises where the loop raised
    if "null" in (probe, row):
        return not key_only   # UNKNOWN: the other conjuncts still run
    return probe == "x" or probe != row


def _nodes(value, kind):
    """Every ``kind`` node inside an SQL expression tree."""
    if isinstance(value, kind):
        yield value
    if isinstance(value, (list, tuple)):
        for element in value:
            yield from _nodes(element, kind)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _nodes(getattr(value, name), kind)


def _group_key(value):
    """Grouping key normalization (padded strings, hashable)."""
    if isinstance(value, str):
        return value.rstrip(" ")
    if isinstance(value, XMLValue):
        raise SQLError("cannot GROUP BY an XML value", "42818")
    return value


def _to_xdm_items(value) -> list[Item]:
    if value is None:
        return []
    if isinstance(value, XMLValue):
        return list(value.items)
    if isinstance(value, bool):
        return [atomic.boolean(value)]
    if isinstance(value, int):
        return [atomic.integer(value)]
    if isinstance(value, Decimal):
        return [atomic.decimal(value)]
    if isinstance(value, float):
        return [atomic.double(value)]
    if isinstance(value, str):
        return [atomic.string(value)]
    if isinstance(value, _dt.datetime):
        return [atomic.date_time(value)]
    if isinstance(value, _dt.date):
        return [atomic.date(value)]
    raise SQLError(f"cannot pass {type(value).__name__} into XQuery",
                   "42846")


def _sql_to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, XMLValue):
        from ..xmlio.serializer import serialize_sequence
        return serialize_sequence(value.items)
    return str(value)


def _append_items(element: ElementNode, value) -> None:
    """Append an SQL value's items: nodes copied, atoms as text."""
    for item in _to_xdm_items(value):
        if isinstance(item, Node):
            element.append_child(copy_node(item))
        else:
            element.append_child(TextNode(item.string_value()))


def _publish_element(name: str, value) -> ElementNode:
    element = ElementNode(QName("", name))
    _append_items(element, value)
    return element


def _cast_items_to_sql(items: list[Item], target: SQLType):
    """XMLCAST: XML sequence -> SQL scalar, with singleton and length
    enforcement (the Query 14 error cases)."""
    if len(items) > 1:
        raise SQLCastError(
            f"XMLCAST requires a singleton sequence, got {len(items)} "
            f"items")
    atoms = atomize(items)
    if len(atoms) != 1:
        raise SQLCastError(
            f"XMLCAST requires a single atomic value, got {len(atoms)}")
    atom = atoms[0]
    try:
        return _atom_to_sql(atom, target)
    except SQLCastError:
        raise
    except Exception as exc:  # sa: ok(SA408: typed re-wrap)
        raise SQLCastError(f"XMLCAST failed: {exc}") from exc


def _atom_to_sql(atom: AtomicValue, target: SQLType):
    xdm_type = atomic.SQL_TYPES.get(target.name)
    if xdm_type is None:
        raise SQLCastError(f"unsupported XMLCAST target {target}")
    result = atomic.cast(atom, xdm_type).value
    if target.is_string and target.length is not None and \
            len(result) > target.length:
        raise SQLCastError(
            f"value {result!r} exceeds {target} length {target.length}")
    if target.name == "DECIMAL" and target.scale is not None:
        result = result.quantize(Decimal(1).scaleb(-target.scale))
    return result


class _OrderKey:
    """Sort key wrapper: NULLs last, optional descending."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_OrderKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return self.value == other.value
