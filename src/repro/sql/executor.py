"""SQL/XML executor with index-aware access paths.

Executes SELECT/VALUES statements over the catalog with exactly the
semantics Section 3.2/3.3 describe:

* ``XMLQUERY`` in the select list runs per row and returns possibly
  empty sequences — rows are never eliminated (Query 5);
* ``XMLEXISTS`` in WHERE filters rows on sequence non-emptiness, which
  makes a boolean-valued body useless (Query 9);
* ``XMLTABLE`` performs a lateral join; its row-producer determines
  cardinality while column paths yield NULL on empty (Queries 11/12);
* ``XMLCAST`` enforces singletons and VARCHAR length limits — the
  Query 14 runtime errors;
* SQL comparisons use padded string semantics, unlike XQuery.

Access paths (``use_indexes=True``):

* row prefilters from eligible XMLEXISTS / XMLTABLE-row predicates with
  literal bounds (Definition 1 at row granularity);
* index nested-loop joins: an eligible join predicate probes the XML
  index with a value computed from the outer row (Queries 13/16), or a
  relational index with an SQL-side value (Query 14);
* embedded ``db2-fn:xmlcolumn`` bodies get their own collection-level
  prefilter via the XQuery planner (Query 6).
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass, field
from decimal import Decimal

from ..core.eligibility import check_index
from ..core.predicates import Origin, PredicateCandidate
from ..errors import ReproError, SQLCastError, SQLError, XQueryError
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..planner.plan import (PrefilteredDatabase, _make_probe_estimator,
                            plan_prefilters)
from ..planner.stats import ExecutionStats
from ..storage.table import StoredDocument
from ..xquery.guard import active_guard
from ..xdm import atomic
from ..xdm.atomic import AtomicValue
from ..xdm.nodes import AttributeNode, ElementNode, Node, TextNode, copy_node
from ..xdm.qname import QName
from ..xdm.sequence import Item, atomize
from ..xquery.evaluator import evaluate_module, lower_expression
from ..xquery.joins import JoinTable
from ..xquery.parser import parse_xquery
from . import ast
from .analyzer import (EmbeddedQuery, alias_table_map, collect_embedded,
                       resolve_column, split_conjuncts)
from .values import SQLType, XMLValue, sql_compare, sql_equality_key


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


@dataclass
class _JoinProbe:
    target_alias: str
    kind: str                       # 'xml' | 'rel'
    index: object
    outer_deps: frozenset[str]
    # xml probes:
    candidate: PredicateCandidate | None = None
    embedded: EmbeddedQuery | None = None
    #: the candidate's operand, lowered once per module
    operand: object | None = None
    # rel probes:
    sql_expr: object | None = None


@dataclass
class _HashJoin:
    """The WHERE clause's leading ``=``, hashed on one table's side.

    Rows of ``alias`` are keyed once (built on first use); every binding
    of the tables before it probes with ``outer``.  A row is skipped
    only when both keys are of one class and differ — the equality is
    then FALSE without raising and, as the leading conjunct, decides the
    WHERE clause before anything else in it runs — or, when it is the
    whole WHERE clause, when a key is NULL.  Rows, order, NULLs and
    errors are the nested loop's.
    """

    alias: str
    inner: object
    outer: object
    #: The WHERE clause is this equality alone: equal keys decide it.
    key_only: bool
    rows: list | None = None
    table: JoinTable | None = None


@dataclass
class _Plan:
    row_filters: dict[str, set[int]] = field(default_factory=dict)
    #: alias -> {XML column: allowed doc ids} (for XML prefilters)
    doc_filters: dict[str, dict[str, set[int]]] = field(
        default_factory=dict)
    join_probes: list[_JoinProbe] = field(default_factory=list)
    #: the hash join, or why the join stays a nested loop (None: no join)
    hash_join: _HashJoin | str | None = None


def execute_sql(database, statement_text: str,
                use_indexes: bool = True, tracer=None) -> SQLResult:
    from .parser import parse_statement
    profiler = getattr(database, "workload_profiler", None)
    started = (time.perf_counter()
               if METRICS.enabled or profiler is not None else 0.0)
    tracer = tracer or NULL_TRACER
    with tracer.span("parse") as span:
        statement = parse_statement(statement_text)
        span.set(kind=type(statement).__name__)
    executor = _SQLExecutor(database, use_indexes, tracer)
    result = executor.run(statement)
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
    from .parser import parse_statement

    candidates = extract_sql_candidates(database, statement_text)
    report = analyze_candidates(database, candidates, statement_text,
                                "sql")
    lines = [report.explain(), "plan:"]
    statement = parse_statement(statement_text)
    if isinstance(statement, ast.SelectStmt):
        executor = _SQLExecutor(database, use_indexes=True)
        aliases = alias_table_map(statement)
        plan = executor._plan(statement, aliases)
        ordered = executor._order_joins(statement.from_refs, plan)
        lines.append("  join order: " +
                     " -> ".join(ref.alias for ref in ordered))
        join = executor._plan_hash_join(statement, aliases, ordered, plan)
        if isinstance(join, _HashJoin):
            lines.append(f"  hash join into {join.alias}: its side of the "
                         f"WHERE clause's leading '=' keyed once per row, "
                         f"probed per row of the tables before it")
        elif join is not None:
            lines.append(f"  nested-loop join: {join}")
        for alias, by_column in plan.doc_filters.items():
            for docs in by_column.values():
                lines.append(f"  doc prefilter on {alias}: "
                             f"{len(docs)} documents")
        for alias, rows in plan.row_filters.items():
            lines.append(f"  row prefilter on {alias}: {len(rows)} rows")
        for probe in plan.join_probes:
            lines.append(
                f"  {probe.kind} index nested-loop into "
                f"{probe.target_alias} via {probe.index.name} "
                f"(outer: {sorted(probe.outer_deps)})")
        if not (plan.doc_filters or plan.row_filters or plan.join_probes):
            lines.append("  full scans on every table")
        for note in executor.stats.plan_notes:
            lines.append(f"  note: {note}")
    else:
        lines.append("  VALUES: no table access")
    return "\n".join(lines)


class _SQLExecutor:
    def __init__(self, database, use_indexes: bool, tracer=NULL_TRACER):
        self.database = database
        self.use_indexes = use_indexes
        self.stats = ExecutionStats()
        self.tracer = tracer
        self._body_cache: dict[str, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def run(self, statement) -> SQLResult:
        if isinstance(statement, ast.ValuesStmt):
            row = tuple(self.eval_expr(expr, {}) for expr in statement.exprs)
            return SQLResult([f"col{i + 1}" for i in range(len(row))],
                             [row], self.stats)
        if isinstance(statement, ast.InsertStmt):
            return self._run_insert(statement)
        if isinstance(statement, ast.DeleteStmt):
            return self._run_delete(statement)
        return self._run_select(statement)

    def _run_insert(self, statement: ast.InsertStmt) -> SQLResult:
        table = self.database.table(statement.table)
        columns = statement.columns or list(table.columns)
        inserted = 0
        # sa: ok(SA406: statement.rows is the VALUES list — query-sized)
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SQLError(
                    f"INSERT expects {len(columns)} values, got "
                    f"{len(row_exprs)}", "42802")
            values: dict[str, object] = {}
            for column, expr in zip(columns, row_exprs):
                value = self.eval_expr(expr, {})
                sql_type = table.column_type(column)
                if sql_type.is_xml and isinstance(value, str):
                    pass  # Database.insert parses XML text
                elif sql_type.is_xml and isinstance(value, XMLValue):
                    items = value.items
                    if len(items) != 1 or not isinstance(items[0], Node):
                        raise SQLError(
                            "XML column INSERT needs a single node",
                            "42846")
                    node = items[0]
                    if node.kind != "document":
                        from ..xdm.nodes import DocumentNode
                        value = DocumentNode([copy_node(node)])
                    else:
                        value = node
                values[column] = value
            self.database.insert(statement.table, values)
            inserted += 1
        self.stats.note(f"inserted {inserted} row(s) into "
                        f"{statement.table}")
        return SQLResult(["rows_inserted"], [(inserted,)], self.stats)

    def _run_delete(self, statement: ast.DeleteStmt) -> SQLResult:
        table = self.database.table(statement.table)

        def matches(row_values: dict) -> bool:
            if statement.where is None:
                return True
            row = next(row for row in table.rows
                       if row.values is row_values)
            env = {statement.alias: ("table", statement.table, row)}
            return self._condition(statement.where, env) is True

        removed = self.database.delete_rows(statement.table, matches)
        self.stats.note(f"deleted {removed} row(s) from "
                        f"{statement.table}")
        return SQLResult(["rows_deleted"], [(removed,)], self.stats)

    def _run_select(self, statement: ast.SelectStmt) -> SQLResult:
        aliases = alias_table_map(statement)
        with self.tracer.span("plan") as span:
            plan = (self._plan(statement, aliases)
                    if self.use_indexes else _Plan())
            span.set(doc_filters=len(plan.doc_filters),
                     row_filters=len(plan.row_filters),
                     join_probes=len(plan.join_probes))

        from_refs = self._order_joins(statement.from_refs, plan)
        if self.use_indexes:
            plan.hash_join = self._plan_hash_join(statement, aliases,
                                                  from_refs, plan)
            if isinstance(plan.hash_join, _HashJoin):
                self.stats.note(f"hash join into {plan.hash_join.alias} "
                                f"on the WHERE clause's leading '='")
        envs: list[dict] = []
        rows_before = self.stats.rows_scanned
        with self.tracer.span("join-scan") as span:
            self._join([], from_refs, statement, plan, {}, envs)
            if from_refs != statement.from_refs:
                # Probe targets ran behind their outer tables: restore
                # the FROM clause's nested-loop order, which a plan
                # without indexes returns.
                envs.sort(key=lambda env: [
                    env[ref.alias][2] if isinstance(ref, ast.XMLTableRef)
                    else env[ref.alias][2].row_id
                    for ref in statement.from_refs])
            span.set(actual_rows=len(envs), unit="rows",
                     rows_scanned=self.stats.rows_scanned - rows_before)

        guard = active_guard()
        if guard is not None:
            # Pure SQL obeys the same row budget as a FLWOR return
            # clause: a joined row set beyond the cap aborts (54000)
            # instead of being projected and filtered down later.
            guard.check_items(len(envs))

        columns = [self._column_name(item, position)
                   for position, item in enumerate(statement.items, 1)]

        if statement.group_by or self._has_aggregates(statement):
            return self._run_grouped(statement, envs, columns)

        if statement.order_by:
            def sort_key(env):
                keys = []
                for expr, descending in statement.order_by:
                    value = self.eval_expr(expr, env)
                    keys.append(_OrderKey(value, descending))
                return keys
            envs.sort(key=sort_key)

        with self.tracer.span("project") as span:
            rows = [tuple(self.eval_expr(item.expr, env)
                          for item in statement.items)
                    for env in envs]
            span.set(actual_rows=len(rows), unit="rows")
        return SQLResult(columns, rows, self.stats)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _has_aggregates(self, statement: ast.SelectStmt) -> bool:
        return any(self._contains_aggregate(item.expr)
                   for item in statement.items) or \
            (statement.having is not None and
             self._contains_aggregate(statement.having))

    def _contains_aggregate(self, expr) -> bool:
        if isinstance(expr, ast.AggregateExpr):
            return True
        for name in getattr(expr, "__dataclass_fields__", {}):
            value = getattr(expr, name)
            if isinstance(value, ast.SQLExpr) and \
                    self._contains_aggregate(value):
                return True
            if isinstance(value, list) and any(
                    isinstance(element, ast.SQLExpr) and
                    self._contains_aggregate(element)
                    for element in value):
                return True
        return False

    def _run_grouped(self, statement: ast.SelectStmt, envs: list[dict],
                     columns: list[str]) -> SQLResult:
        guard = active_guard()
        if guard is not None:
            # Grouping evaluates the GROUP BY keys once per input row.
            guard.tick(len(envs) + 1)
        groups: dict[tuple, list[dict]] = {}
        for env in envs:
            key = tuple(_group_key(self.eval_expr(expr, env))
                        for expr in statement.group_by)
            groups.setdefault(key, []).append(env)
        if not statement.group_by and not groups:
            groups[()] = []   # aggregates over an empty input: one row

        rows: list[tuple] = []
        keyed_rows: list[tuple[list, tuple]] = []
        for group_envs in groups.values():
            if statement.having is not None:
                keep = self._grouped_condition(statement.having,
                                               group_envs)
                if keep is not True:
                    continue
            row = tuple(self._grouped_value(item.expr, group_envs)
                        for item in statement.items)
            if statement.order_by:
                keys = [_OrderKey(self._grouped_value(expr, group_envs),
                                  descending)
                        for expr, descending in statement.order_by]
                keyed_rows.append((keys, row))
            else:
                rows.append(row)
        if statement.order_by:
            keyed_rows.sort(key=lambda pair: pair[0])
            rows = [row for _keys, row in keyed_rows]
        return SQLResult(columns, rows, self.stats)

    def _grouped_value(self, expr, group_envs: list[dict]):
        if isinstance(expr, ast.AggregateExpr):
            return self._eval_aggregate(expr, group_envs)
        if self._contains_aggregate(expr):
            if isinstance(expr, ast.Comparison):
                return sql_compare(
                    expr.op,
                    self._grouped_value(expr.left, group_envs),
                    self._grouped_value(expr.right, group_envs))
            raise SQLError("aggregates may only be nested in "
                           "comparisons", "42903")
        if not group_envs:
            return None
        return self.eval_expr(expr, group_envs[0])

    def _grouped_condition(self, condition, group_envs: list[dict]):
        if isinstance(condition, ast.AndCond):
            left = self._grouped_condition(condition.left, group_envs)
            right = self._grouped_condition(condition.right, group_envs)
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if isinstance(condition, ast.OrCond):
            left = self._grouped_condition(condition.left, group_envs)
            right = self._grouped_condition(condition.right, group_envs)
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return False
        if isinstance(condition, ast.NotCond):
            inner = self._grouped_condition(condition.operand, group_envs)
            return None if inner is None else (not inner)
        if isinstance(condition, ast.Comparison):
            return sql_compare(
                condition.op,
                self._grouped_value(condition.left, group_envs),
                self._grouped_value(condition.right, group_envs))
        raise SQLError("unsupported HAVING condition", "42903")

    def _eval_aggregate(self, expr: ast.AggregateExpr,
                        group_envs: list[dict]):
        if expr.function == "COUNT" and expr.argument is None:
            return len(group_envs)
        guard = active_guard()
        if guard is not None:
            # Aggregates evaluate their argument once per group row.
            guard.tick(len(group_envs) + 1)
        values = []
        for env in group_envs:
            value = self.eval_expr(expr.argument, env)
            if value is None:
                continue  # SQL aggregates skip NULLs
            if isinstance(value, XMLValue) and expr.function != "COUNT":
                raise SQLError(
                    f"cannot {expr.function} XML values", "42818")
            values.append(value)
        if expr.distinct:
            seen = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            values = seen
        if expr.function == "COUNT":
            return len(values)
        if not values:
            return None
        if expr.function == "SUM":
            return sum(values[1:], start=values[0])
        if expr.function == "AVG":
            total = sum(values[1:], start=values[0])
            return total / len(values)
        if expr.function == "MIN":
            return min(values)
        if expr.function == "MAX":
            return max(values)
        raise SQLError(f"unknown aggregate {expr.function}", "42601")

    def _column_name(self, item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"col{position}"

    def _order_joins(self, from_refs: list, plan: _Plan) -> list:
        """Greedy join ordering: place an index-probe target after the
        aliases its probe depends on (so Query 14's relational probe
        into products runs per orders row, not the other way around).
        XMLTABLE refs always stay after the aliases they PASS from."""
        remaining = list(from_refs)
        ordered: list = []
        bound: set[str] = set()
        while remaining:
            chosen = None
            for ref in remaining:
                if isinstance(ref, ast.XMLTableRef):
                    deps = self._passing_aliases(ref)
                    if not deps <= bound:
                        continue
                probes = [probe for probe in plan.join_probes
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

    def _plan_hash_join(self, statement: ast.SelectStmt,
                        aliases: dict[str, str], from_refs: list,
                        plan: _Plan) -> _HashJoin | str | None:
        """A hash join for the WHERE clause's leading equality (see
        :class:`_HashJoin`), the reason there is none, or None for a
        statement that joins nothing."""
        if len(from_refs) < 2 or statement.where is None:
            return None
        leading = statement.where
        while isinstance(leading, ast.AndCond):
            leading = leading.left
        if not (isinstance(leading, ast.Comparison) and leading.op == "="):
            return "the WHERE clause does not lead with an '=' comparison"
        lateral = any(isinstance(ref, ast.XMLTableRef) for ref in from_refs)
        sides = [(side, self._expr_aliases(side, aliases, lateral))
                 for side in (leading.left, leading.right)]
        if any(deps is None for _side, deps in sides):
            return "a column of the leading '=' names no single table"
        order = {ref.alias: position for position, ref in enumerate(from_refs)}
        probed = {probe.target_alias for probe in plan.join_probes}
        reason = ("the leading '=' does not compare one table with the "
                  "tables joined before it")
        for (inner, inner_deps), (outer, outer_deps) in (sides, sides[::-1]):
            if len(inner_deps) != 1 or not outer_deps:
                continue
            alias = next(iter(inner_deps))
            if not (isinstance(from_refs[order[alias]], ast.TableRef)
                    and all(order[dep] < order[alias]
                            for dep in outer_deps)):
                continue
            if alias in probed:
                reason = f"an index nested-loop join probes {alias}"
                continue
            return _HashJoin(alias, inner, outer,
                             key_only=leading is statement.where)
        return reason

    def _expr_aliases(self, expr, aliases: dict[str, str],
                      lateral: bool) -> set[str] | None:
        """The FROM aliases ``expr`` reads, or None when a column cannot
        be pinned to one (an unqualified name beside an XMLTABLE)."""
        deps: set[str] = set()
        for ref in _column_refs(expr):
            if ref.qualifier is not None:
                alias = ref.qualifier if ref.qualifier in aliases else None
            else:
                alias = (None if lateral
                         else self._alias_of_column(ref, aliases))
            if alias is None:
                return None
            deps.add(alias)
        return deps

    def _passing_aliases(self, ref: ast.XMLTableRef) -> set[str]:
        deps: set[str] = set()
        for argument in ref.passing:
            if isinstance(argument.expr, ast.ColumnRef) and \
                    argument.expr.qualifier is not None:
                deps.add(argument.expr.qualifier)
        return deps

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan(self, statement: ast.SelectStmt,
              aliases: dict[str, str]) -> _Plan:
        plan = _Plan()
        embedded_queries = collect_embedded(self.database, statement)
        for embedded in embedded_queries:
            self._plan_embedded(embedded, plan)
        if statement.where is not None:
            for conjunct in split_conjuncts(statement.where):
                if isinstance(conjunct, ast.Comparison):
                    self._plan_relational(conjunct, aliases, plan)
        return plan

    def _plan_embedded(self, embedded: EmbeddedQuery, plan: _Plan) -> None:
        #: var -> alias for origin columns
        origin_alias: dict[str, str] = {}
        for var, bound in embedded.scope.items():
            if isinstance(bound, Origin):
                alias = embedded.alias_of_var.get(var)
                if alias is not None:
                    origin_alias[bound.column] = alias
        for candidate in embedded.row_candidates:
            alias = origin_alias.get(candidate.column)
            if alias is None:
                continue
            table, _sep, column = candidate.column.partition(".")
            chosen = None
            for index in self.database.xml_indexes_on(table, column):
                if check_index(index, candidate).eligible:
                    chosen = index
                    break
            if chosen is None:
                continue
            if candidate.operand_value is not None or \
                    candidate.op == "exists":
                docs = self._probe_docs(chosen, candidate)
                if docs is None:
                    continue
                # Doc ids of different XML columns never meet, so only
                # verdicts on one column intersect as doc ids.
                by_column = plan.doc_filters.setdefault(alias, {})
                existing = by_column.get(candidate.column)
                by_column[candidate.column] = (docs if existing is None
                                               else existing & docs)
                self.stats.note(
                    f"row prefilter on {alias} via {chosen.name}: "
                    f"{candidate.description} "
                    f"[{candidate.context.value}]")
            elif candidate.operand_expr is not None and \
                    candidate.is_equality:
                deps = {embedded.alias_of_var.get(var)
                        for var in candidate.operand_vars}
                if None in deps or not deps:
                    continue
                plan.join_probes.append(_JoinProbe(
                    target_alias=alias, kind="xml", index=chosen,
                    outer_deps=frozenset(deps), candidate=candidate,
                    embedded=embedded,
                    operand=lower_expression(embedded.module,
                                             candidate.operand_expr)))
                self.stats.note(
                    f"index nested-loop join into {alias} via "
                    f"{chosen.name}: {candidate.description}")

    def _probe_docs(self, index, candidate: PredicateCandidate
                    ) -> set[int] | None:
        from ..planner.plan import _bounds_for
        probe = _bounds_for(candidate, index)
        if probe is None:
            return None
        with self.tracer.span("index-scan", index=index.name) as span:
            if span:
                span.set(range=probe.bounds_text())
            docs = probe.run(self.stats)
            span.set(actual_rows=len(docs), unit="documents")
        return docs

    def _plan_relational(self, comparison: ast.Comparison,
                         aliases: dict[str, str], plan: _Plan) -> None:
        for own, other in ((comparison.left, comparison.right),
                           (comparison.right, comparison.left)):
            if not isinstance(own, ast.ColumnRef):
                continue
            resolved = resolve_column(self.database, aliases, own)
            if resolved is None:
                continue
            table_name, column, sql_type = resolved
            if sql_type.is_xml:
                continue
            indexes = self.database.rel_indexes_on(table_name, column)
            if not indexes:
                continue
            index = indexes[0]
            alias = own.qualifier or self._alias_of_table(aliases,
                                                          table_name)
            if alias is None:
                continue
            if isinstance(other, ast.SQLLiteral):
                if comparison.op != "=":
                    continue
                rows = set(index.lookup(other.value, stats=self.stats))
                existing = plan.row_filters.get(alias)
                plan.row_filters[alias] = (rows if existing is None
                                           else existing & rows)
                self.stats.note(
                    f"relational index lookup on {alias}.{column} via "
                    f"{index.name}")
            elif comparison.op == "=":
                deps = self._expr_aliases(other, aliases, lateral=False)
                if deps and alias not in deps:
                    plan.join_probes.append(_JoinProbe(
                        target_alias=alias, kind="rel", index=index,
                        outer_deps=frozenset(deps), sql_expr=other))
                    self.stats.note(
                        f"relational index nested-loop join into {alias} "
                        f"via {index.name}")

    def _alias_of_table(self, aliases: dict[str, str],
                        table_name: str) -> str | None:
        found = None
        for alias, name in aliases.items():
            if name == table_name:
                if found is not None:
                    return None
                found = alias
        return found

    def _alias_of_column(self, ref: ast.ColumnRef,
                         aliases: dict[str, str]) -> str | None:
        found = None
        for alias, table_name in aliases.items():
            if not table_name:
                continue
            if ref.name in self.database.table(table_name).columns:
                if found is not None:
                    return None
                found = alias
        return found

    # ------------------------------------------------------------------
    # Join enumeration
    # ------------------------------------------------------------------

    def _join(self, bound: list[str], remaining: list, statement,
              plan: _Plan, env: dict, out: list[dict],
              decided: bool = False) -> None:
        """Enumerate bindings; ``decided`` means a hash-join key match
        already made the WHERE clause TRUE."""
        if not remaining:
            if decided or statement.where is None or \
                    self._condition(statement.where, env) is True:
                out.append(dict(env))
            return
        ref = remaining[0]
        rest = remaining[1:]
        guard = active_guard()
        if isinstance(ref, ast.TableRef):
            join = plan.hash_join
            if isinstance(join, _HashJoin) and join.alias == ref.alias:
                candidates = self._hash_candidates(join, ref, plan, bound,
                                                   env)
            else:
                candidates = [(row, False) for row
                              in self._rows_for(ref, plan, bound, env)]
            for row, matched in candidates:
                if guard is not None:
                    # The join scan is where a runaway cross product
                    # burns time; the deadline must interrupt it here.
                    guard.tick()
                self.stats.rows_scanned += 1
                env[ref.alias] = ("table", ref.name, row)
                self._join(bound + [ref.alias], rest, statement, plan,
                           env, out, decided or matched)
                del env[ref.alias]
        else:
            for ordinal, values in enumerate(self._xmltable_rows(ref, env)):
                if guard is not None:
                    guard.tick()
                env[ref.alias] = ("xmltable", values, ordinal)
                self._join(bound + [ref.alias], rest, statement, plan,
                           env, out)
                del env[ref.alias]

    def _hash_candidates(self, join: _HashJoin, ref: ast.TableRef,
                         plan: _Plan, bound: list[str], env: dict
                         ) -> list[tuple[object, bool]]:
        """(row, WHERE decided by the keys) for the rows of
        ``join.alias`` the WHERE clause may accept, in table order."""
        if join.rows is None:
            self._hash_build(join, ref, plan, bound)
        if not join.rows:
            return []
        slots, decided = join.table.probe(*self._equality_key(join.outer,
                                                              env))
        return [(join.rows[slot], join.key_only and slot in decided)
                for slot in slots]

    def _hash_build(self, join: _HashJoin, ref: ast.TableRef, plan: _Plan,
                    bound: list[str]) -> None:
        # No index probe targets this alias, so its rows do not depend
        # on the outer binding.
        rows = self._rows_for(ref, plan, bound, {})
        guard = active_guard()
        if guard is not None:
            guard.tick(len(rows) + 1)
        self.stats.rows_scanned += len(rows)
        join.table = JoinTable(lambda probe, row:
                               _keys_undecided(probe, row, join.key_only))
        for slot, row in enumerate(rows):
            join.table.add(slot, *self._equality_key(
                join.inner, {ref.alias: ("table", ref.name, row)}))
        join.rows = rows

    def _equality_key(self, expr, env: dict) -> tuple[str, list]:
        """(key class, [key]) of one ``=`` operand for :class:`JoinTable`
        (see :func:`sql_equality_key`); class "error" when evaluating
        the operand raises."""
        try:
            key_class, key = sql_equality_key(self.eval_expr(expr, env))
        except (SQLError, XQueryError):
            return "error", []
        return key_class, ([] if key is None else [(key_class, key)])

    def _rows_for(self, ref: ast.TableRef, plan: _Plan,
                  bound: list[str], env: dict):
        """The rows of ``ref`` the plan's index verdicts leave, in table
        order: every row without a verdict, else the intersection of
        the verdicts' rows, located in O(matches)."""
        table = self.database.table(ref.name)
        probes = [probe for probe in plan.join_probes
                  if probe.target_alias == ref.alias and
                  probe.outer_deps <= set(bound)]
        row_ids = plan.row_filters.get(ref.alias)
        doc_filters = plan.doc_filters.get(ref.alias, {})
        if not probes and row_ids is None and not doc_filters:
            return table.rows
        locator = table.locator()
        verdicts = []
        for probe in probes:
            matched = self._run_join_probe(probe, env, locator)
            if matched is not None:
                verdicts.append(matched)
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
            return locator.rows
        return locator.rows_at(set.intersection(*verdicts))

    def _run_join_probe(self, probe: _JoinProbe, env: dict,
                        locator) -> set[int] | None:
        """Row positions an index nested-loop probe admits for the outer
        binding ``env``; None when the probe cannot run (scan instead)."""
        if probe.kind == "rel":
            try:
                value = self.eval_expr(probe.sql_expr, env)
            except ReproError:
                # The join key itself errors for this outer row (e.g.
                # XMLCAST over a multi-item sequence).  Fall back to a
                # scan so the error surfaces — or not — according to
                # the WHERE clause's own evaluation order.
                return None
            if value is None:
                return set()
            return locator.positions_of_rows(
                probe.index.lookup(value, stats=self.stats))
        # XML probe: evaluate the operand per outer row.
        candidate = probe.candidate
        embedded = probe.embedded
        assert candidate is not None and embedded is not None
        variables: dict[str, list[Item]] = {}
        for argument in embedded.passing:
            if argument.variable in candidate.operand_vars:
                variables[argument.variable] = _to_xdm_items(
                    self.eval_expr(argument.expr, env))
        try:
            values = atomize(probe.operand(variables, self.database,
                                           self.stats))
        except ReproError:
            return None  # fall back to full scan of the inner table
        docs: set[int] = set()
        for value in values:
            try:
                key = probe.index.key_for_value(value)
            except ReproError:
                continue
            docs |= probe.index.matching_documents(
                key, key, path_filter=candidate.path, stats=self.stats)
        return locator.positions_of_docs(docs)

    # ------------------------------------------------------------------
    # XMLTABLE
    # ------------------------------------------------------------------

    def _xmltable_rows(self, ref: ast.XMLTableRef, env: dict):
        items = self._eval_embedded(ref.row_xquery, ref.passing, env)
        column_names = list(ref.column_aliases)
        rows = []
        for position, item in enumerate(items, start=1):
            values: dict[str, object] = {}
            for index, column in enumerate(ref.columns):
                name = (column_names[index]
                        if index < len(column_names) else column.name)
                values[name] = self._xmltable_column_value(
                    column, item, position)
            if not ref.columns and column_names:
                values[column_names[0]] = XMLValue([item])
            rows.append(values)
        return rows

    def _xmltable_column_value(self, column: ast.XMLTableColumn,
                               item: Item, position: int):
        if column.for_ordinality:
            return position
        path = column.path if column.path is not None else column.name
        module, runtime_db = self._parse_body(path)
        items = evaluate_module(module, database=runtime_db,
                                context_item=item, stats=self.stats,
                                plan_joins=self.use_indexes)
        assert column.sql_type is not None
        if column.sql_type.is_xml:
            if column.by_ref:
                return XMLValue(items) if items else None
            return XMLValue([copy_node(node) if isinstance(node, Node)
                             else node for node in items]) \
                if items else None
        if not items:
            return None  # empty sequence -> NULL (Query 12)
        return _cast_items_to_sql(items, column.sql_type)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------

    def _condition(self, condition, env: dict) -> bool | None:
        if isinstance(condition, ast.AndCond):
            left = self._condition(condition.left, env)
            if left is False:
                return False
            right = self._condition(condition.right, env)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if isinstance(condition, ast.OrCond):
            left = self._condition(condition.left, env)
            if left is True:
                return True
            right = self._condition(condition.right, env)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        if isinstance(condition, ast.NotCond):
            inner = self._condition(condition.operand, env)
            return None if inner is None else (not inner)
        if isinstance(condition, ast.IsNullCond):
            value = self.eval_expr(condition.operand, env)
            is_null = value is None
            return (not is_null) if condition.negated else is_null
        if isinstance(condition, ast.Comparison):
            left = self.eval_expr(condition.left, env)
            right = self.eval_expr(condition.right, env)
            return sql_compare(condition.op, left, right)
        if isinstance(condition, ast.XMLExistsExpr):
            items = self._eval_embedded(condition.xquery,
                                        condition.passing, env)
            return bool(items)
        value = self.eval_expr(condition, env)
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        raise SQLError("WHERE condition must be boolean", "42804")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr, env: dict):
        if isinstance(expr, ast.SQLLiteral):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            return self._column_value(expr, env)
        if isinstance(expr, ast.XMLQueryExpr):
            items = self._eval_embedded(expr.xquery, expr.passing, env)
            return XMLValue(items)
        if isinstance(expr, ast.XMLExistsExpr):
            items = self._eval_embedded(expr.xquery, expr.passing, env)
            return bool(items)
        if isinstance(expr, ast.XMLCastExpr):
            return self._xmlcast(expr, env)
        if isinstance(expr, ast.XMLElementExpr):
            return self._xmlelement(expr, env)
        if isinstance(expr, ast.XMLForestExpr):
            items: list[Item] = []
            for name, value_expr in expr.items:
                value = self.eval_expr(value_expr, env)
                if value is None:
                    continue
                items.append(_publish_element(name, value))
            return XMLValue(items)
        if isinstance(expr, ast.XMLConcatExpr):
            items = []
            for piece in expr.items:
                value = self.eval_expr(piece, env)
                if value is None:
                    continue
                items.extend(_to_xdm_items(value))
            return XMLValue(items)
        if isinstance(expr, ast.Comparison):
            return sql_compare(expr.op, self.eval_expr(expr.left, env),
                               self.eval_expr(expr.right, env))
        raise SQLError(f"cannot evaluate expression {expr!r}", "42601")

    def _column_value(self, ref: ast.ColumnRef, env: dict):
        bindings = ([env[ref.qualifier]] if ref.qualifier in env
                    else list(env.values()) if ref.qualifier is None
                    else None)
        if bindings is None:
            raise SQLError(f"unknown qualifier {ref.qualifier!r}", "42703")
        for binding in bindings:
            if binding[0] == "table":
                _kind, table_name, row = binding
                if ref.name in row.values:
                    return _sql_value(row.values[ref.name])
            else:
                values = binding[1]
                if ref.name in values:
                    return values[ref.name]
        raise SQLError(f"unknown column {ref}", "42703")

    def _xmlcast(self, expr: ast.XMLCastExpr, env: dict):
        value = self.eval_expr(expr.operand, env)
        if value is None:
            return None
        if isinstance(value, XMLValue):
            if not value.items:
                return None
            return _cast_items_to_sql(value.items, expr.target)
        from .values import coerce_to_type
        return coerce_to_type(value, expr.target)

    def _xmlelement(self, expr: ast.XMLElementExpr, env: dict) -> XMLValue:
        element = ElementNode(QName("", expr.name))
        for name, value_expr in expr.attributes:
            value = self.eval_expr(value_expr, env)
            if value is None:
                continue
            element.add_attribute(AttributeNode(QName("", name),
                                                _sql_to_text(value)))
        for content_expr in expr.content:
            value = self.eval_expr(content_expr, env)
            if value is None:
                continue
            for item in _to_xdm_items(value):
                if isinstance(item, Node):
                    element.append_child(copy_node(item))
                else:
                    element.append_child(TextNode(item.string_value()))
        return XMLValue([element])

    # ------------------------------------------------------------------
    # Embedded XQuery
    # ------------------------------------------------------------------

    def _parse_body(self, text: str):
        cached = self._body_cache.get(text)
        if cached is None:
            from ..core.querycache import compile_query
            compiled = compile_query(text)
            module = compiled.module
            runtime_db = self.database
            if self.use_indexes:
                candidates = list(compiled.candidates)
                prefilters = plan_prefilters(self.database, candidates,
                                             self.stats)
                if prefilters:
                    estimator = (_make_probe_estimator(self.database)
                                 if self.tracer else None)
                    doc_filters = {}
                    for column, prefilter in prefilters.items():
                        with self.tracer.span("index-probe",
                                              column=column) as span:
                            docs = prefilter.run(
                                self.stats, tracer=self.tracer,
                                estimator=estimator)
                            span.set(actual_rows=len(docs),
                                     unit="documents")
                        doc_filters[column] = docs
                        for note in prefilter.notes:
                            self.stats.note(note)
                    runtime_db = PrefilteredDatabase(self.database,
                                                     doc_filters)
            cached = (module, runtime_db)
            self._body_cache[text] = cached
        return cached

    def _eval_embedded(self, text: str, passing, env: dict) -> list[Item]:
        module, runtime_db = self._parse_body(text)
        variables: dict[str, list[Item]] = {}
        for argument in passing:
            variables[argument.variable] = _to_xdm_items(
                self.eval_expr(argument.expr, env))
        return evaluate_module(module, database=runtime_db,
                               variables=variables, stats=self.stats,
                               plan_joins=self.use_indexes)


# ---------------------------------------------------------------------------
# Value conversions
# ---------------------------------------------------------------------------

def _keys_undecided(probe: str, row: str, key_only: bool) -> bool:
    """Must the WHERE clause judge a pair whose ``=`` operands have key
    classes ``probe`` and ``row`` (see :func:`sql_equality_key`)?"""
    if "error" in (probe, row):
        return True   # re-evaluating raises where the loop raised
    if "null" in (probe, row):
        return not key_only   # UNKNOWN: the other conjuncts still run
    return probe == "x" or probe != row


def _column_refs(value):
    """Every column reference inside an SQL expression tree."""
    if isinstance(value, ast.ColumnRef):
        yield value
    elif isinstance(value, (list, tuple)):
        for element in value:
            yield from _column_refs(element)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _column_refs(getattr(value, name))


def _group_key(value):
    """Grouping key normalization (padded strings, hashable)."""
    if isinstance(value, str):
        return value.rstrip(" ")
    if isinstance(value, XMLValue):
        raise SQLError("cannot GROUP BY an XML value", "42818")
    return value


def _sql_value(stored):
    if isinstance(stored, StoredDocument):
        return XMLValue([stored.document])
    return stored


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


def _publish_element(name: str, value) -> ElementNode:
    element = ElementNode(QName("", name))
    for item in _to_xdm_items(value):
        if isinstance(item, Node):
            element.append_child(copy_node(item))
        else:
            element.append_child(TextNode(item.string_value()))
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
