"""Tree-walking XQuery evaluator.

Implements the dynamic semantics the paper's pitfalls hinge on:

* path steps over the XDM axes with document-order dedup;
* the leading-``/`` ``fn:root(.) treat as document-node()`` expansion
  (raises err:XPDY0050 under constructed elements — Query 25);
* existential general comparisons vs singleton value comparisons;
* FLWOR with for/let tuple streams — let preserves empty sequences,
  where discards them (Section 3.4);
* element construction with fresh node identities, untyped annotations,
  space-joined atomics and duplicate-attribute errors (Section 3.6).
"""

from __future__ import annotations

import functools

from ..errors import (XQueryDynamicError, XQueryError, XQueryStaticError,
                      XQueryTypeError)
from ..obs.metrics import METRICS
from ..xdm import atomic
from ..xdm.atomic import AtomicValue
from ..xdm.compare import (KEY_OTHER, equality_keys, general_compare,
                           keys_may_raise, node_compare, value_compare)
from ..xdm.nodes import (AttributeNode, DocumentNode, ElementNode, Node,
                         TextNode, copy_node)
from ..xdm.qname import QName
from ..xdm.sequence import (Item, atomize, document_order,
                            effective_boolean_value, singleton)
from . import ast
from .context import DynamicContext
from .functions import lookup_function
from .guard import active_guard
from .joins import FlworPlan, HashJoin, JoinTable, plan_flwor

__all__ = ["evaluate", "evaluate_module", "Evaluator"]

#: Axes whose output from a *single* context node is already in
#: document order with no duplicates — the final dedup/re-sort pass is
#: skipped for them (the streaming fast path of the path pipeline).
_SORTED_SINGLE_AXES = frozenset({
    "self", "child", "attribute", "descendant", "descendant-or-self",
    "following-sibling", "following",
})


def evaluate(source: str, database=None,
             variables: dict[str, list[Item]] | None = None,
             stats=None) -> list[Item]:
    """Parse and evaluate an XQuery string; returns the result sequence.

    Compilation goes through the shared LRU compiled-query cache, so
    repeated evaluations of the same text skip the parser entirely.
    """
    from ..core.querycache import compile_query
    module = compile_query(source).module
    return evaluate_module(module, database=database, variables=variables,
                           stats=stats)


def evaluate_module(module: ast.Module, database=None,
                    variables: dict[str, list[Item]] | None = None,
                    context_item: Item | None = None,
                    stats=None, plan_joins: bool = True) -> list[Item]:
    ctx = DynamicContext(module.prolog, variables=dict(variables or {}),
                         database=database, stats=stats)
    if context_item is not None:
        ctx = ctx.with_focus(context_item, 1, 1)
    return Evaluator(module.prolog, plan_joins, module.plans).evaluate(
        module.body, ctx)


class Evaluator:
    """Evaluates AST expressions against a dynamic context."""

    def __init__(self, prolog: ast.Prolog, plan_joins: bool = True,
                 plans: dict | None = None):
        self.prolog = prolog
        #: False runs every for clause as a plain nested loop that
        #: re-evaluates its sequence per outer tuple — the reference
        #: plan ``use_indexes=False`` runs (:mod:`repro.xquery.joins`).
        self.plan_joins = plan_joins
        #: Per-node plan memo: the module's (:attr:`ast.Module.plans`),
        #: so a body evaluated once per SQL row plans once.
        self.plans = {} if plans is None else plans

    def _planned(self, node, build):
        """``build(node)``, memoised per AST node in :attr:`plans`."""
        entry = self.plans.get(id(node))
        if entry is None or entry[0] is not node:
            entry = self.plans[id(node)] = (node, build(node))
        return entry[1]

    # ------------------------------------------------------------------

    def evaluate(self, expr: ast.Expr, ctx: DynamicContext) -> list[Item]:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise XQueryDynamicError(
                f"no evaluator for {type(expr).__name__}")
        return method(expr, ctx)

    def boolean_value(self, expr: ast.Expr, ctx: DynamicContext) -> bool:
        return effective_boolean_value(self.evaluate(expr, ctx))

    # -- primaries -----------------------------------------------------

    def _eval_Literal(self, expr: ast.Literal, ctx) -> list[Item]:
        return [expr.value]

    def _eval_VarRef(self, expr: ast.VarRef, ctx: DynamicContext):
        return list(ctx.lookup(expr.name))

    def _eval_ContextItem(self, expr, ctx: DynamicContext) -> list[Item]:
        return [ctx.require_context_item()]

    def _eval_SequenceExpr(self, expr: ast.SequenceExpr, ctx) -> list[Item]:
        result: list[Item] = []
        for item_expr in expr.items:
            result.extend(self.evaluate(item_expr, ctx))
        return result

    def _eval_RangeExpr(self, expr: ast.RangeExpr, ctx) -> list[Item]:
        start = self._integer_operand(expr.start, ctx, "range start")
        end = self._integer_operand(expr.end, ctx, "range end")
        if start is None or end is None:
            return []
        return [atomic.integer(value) for value in range(start, end + 1)]

    def _integer_operand(self, expr, ctx, what: str) -> int | None:
        values = atomize(self.evaluate(expr, ctx))
        if not values:
            return None
        value = singleton(values, what)
        if value.is_untyped:
            value = atomic.cast(value, atomic.T_DOUBLE)
        if not value.is_numeric:
            raise XQueryTypeError(f"{what} must be numeric")
        return int(value.value)

    # -- logic -----------------------------------------------------------

    def _eval_OrExpr(self, expr: ast.OrExpr, ctx) -> list[Item]:
        result = (self.boolean_value(expr.left, ctx) or
                  self.boolean_value(expr.right, ctx))
        return [atomic.boolean(result)]

    def _eval_AndExpr(self, expr: ast.AndExpr, ctx) -> list[Item]:
        result = (self.boolean_value(expr.left, ctx) and
                  self.boolean_value(expr.right, ctx))
        return [atomic.boolean(result)]

    def _eval_IfExpr(self, expr: ast.IfExpr, ctx) -> list[Item]:
        if self.boolean_value(expr.condition, ctx):
            return self.evaluate(expr.then_branch, ctx)
        return self.evaluate(expr.else_branch, ctx)

    def _eval_TypeswitchExpr(self, expr: ast.TypeswitchExpr, ctx):
        operand = self.evaluate(expr.operand, ctx)
        for case in expr.cases:
            if _matches_sequence_type(operand, case.sequence_type):
                case_ctx = (ctx.bind(case.variable, operand)
                            if case.variable else ctx)
                return self.evaluate(case.body, case_ctx)
        default_ctx = (ctx.bind(expr.default_variable, operand)
                       if expr.default_variable else ctx)
        return self.evaluate(expr.default_body, default_ctx)

    def _eval_QuantifiedExpr(self, expr: ast.QuantifiedExpr, ctx):
        result = self._quantify(expr, 0, ctx)
        return [atomic.boolean(result)]

    def _quantify(self, expr: ast.QuantifiedExpr, index: int,
                  ctx: DynamicContext) -> bool:
        if index == len(expr.bindings):
            return self.boolean_value(expr.satisfies, ctx)
        var, binding_expr = expr.bindings[index]
        items = self.evaluate(binding_expr, ctx)
        if expr.quantifier == "some":
            return any(self._quantify(expr, index + 1, ctx.bind(var, [item]))
                       for item in items)
        return all(self._quantify(expr, index + 1, ctx.bind(var, [item]))
                   for item in items)

    # -- comparisons -------------------------------------------------------

    def _eval_GeneralComparison(self, expr: ast.GeneralComparison, ctx):
        left = self.evaluate(expr.left, ctx)
        right = self.evaluate(expr.right, ctx)
        return [atomic.boolean(general_compare(expr.op, left, right))]

    def _eval_ValueComparison(self, expr: ast.ValueComparison, ctx):
        left = self.evaluate(expr.left, ctx)
        right = self.evaluate(expr.right, ctx)
        return value_compare(expr.op, left, right)

    def _eval_NodeComparison(self, expr: ast.NodeComparison, ctx):
        left = self.evaluate(expr.left, ctx)
        right = self.evaluate(expr.right, ctx)
        return node_compare(expr.op, left, right)

    # -- arithmetic ---------------------------------------------------------

    def _eval_Arithmetic(self, expr: ast.Arithmetic, ctx) -> list[Item]:
        left = self._numeric_operand(expr.left, ctx)
        right = self._numeric_operand(expr.right, ctx)
        if left is None or right is None:
            return []
        return [_arithmetic(expr.op, left, right)]

    def _numeric_operand(self, expr, ctx) -> AtomicValue | None:
        values = atomize(self.evaluate(expr, ctx))
        if not values:
            return None
        value = singleton(values, "arithmetic operand")
        if value.is_untyped:
            value = atomic.cast(value, atomic.T_DOUBLE)
        if not value.is_numeric:
            raise XQueryTypeError(
                f"arithmetic on {value.type_name}", code="XPTY0004")
        return value

    def _eval_UnaryMinus(self, expr: ast.UnaryMinus, ctx) -> list[Item]:
        value = self._numeric_operand(expr.operand, ctx)
        if value is None:
            return []
        if expr.negate:
            return [AtomicValue(value.type_name, -value.value)]
        return [value]

    # -- set operations -------------------------------------------------

    def _eval_SetExpr(self, expr: ast.SetExpr, ctx) -> list[Item]:
        left = self._node_sequence(expr.left, ctx, expr.op)
        right = self._node_sequence(expr.right, ctx, expr.op)
        right_ids = {node.node_id for node in right}
        if expr.op == "union":
            return document_order(left + right)
        if expr.op == "intersect":
            return document_order(
                [node for node in left if node.node_id in right_ids])
        if expr.op == "except":
            return document_order(
                [node for node in left if node.node_id not in right_ids])
        raise XQueryDynamicError(f"unknown set operation {expr.op}")

    def _node_sequence(self, expr, ctx, operation: str) -> list[Node]:
        items = self.evaluate(expr, ctx)
        # sa: ok(SA406: isinstance check only; self.evaluate ticked)
        for item in items:
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    f"{operation} operand must be nodes", code="XPTY0004")
        return items  # type: ignore[return-value]

    # -- casts & types -----------------------------------------------------

    def _eval_CastExpr(self, expr: ast.CastExpr, ctx) -> list[Item]:
        values = atomize(self.evaluate(expr.operand, ctx))
        if not values:
            if expr.allow_empty:
                return []
            raise XQueryTypeError("cast of empty sequence", code="XPTY0004")
        value = singleton(values, "cast")
        return [atomic.cast(value, expr.type_name)]

    def _eval_CastableExpr(self, expr: ast.CastableExpr, ctx) -> list[Item]:
        values = atomize(self.evaluate(expr.operand, ctx))
        if not values:
            return [atomic.boolean(expr.allow_empty)]
        if len(values) > 1:
            return [atomic.boolean(False)]
        return [atomic.boolean(atomic.castable(values[0], expr.type_name))]

    def _eval_InstanceOfExpr(self, expr: ast.InstanceOfExpr, ctx):
        items = self.evaluate(expr.operand, ctx)
        return [atomic.boolean(
            _matches_sequence_type(items, expr.sequence_type))]

    def _eval_TreatExpr(self, expr: ast.TreatExpr, ctx) -> list[Item]:
        items = self.evaluate(expr.operand, ctx)
        if not _matches_sequence_type(items, expr.sequence_type):
            raise XQueryDynamicError(
                f"treat as {expr.sequence_type.item_type}"
                f"{expr.sequence_type.occurrence} failed", code="XPDY0050")
        return items

    # -- function calls ------------------------------------------------------

    def _eval_FunctionCall(self, expr: ast.FunctionCall, ctx) -> list[Item]:
        user_function = self.prolog.functions.get(
            (expr.name.uri, expr.name.local, len(expr.args)))
        if user_function is not None:
            return self._call_user_function(user_function, expr, ctx)
        definition = lookup_function(expr.name.uri, expr.name.local)
        if definition is None:
            raise XQueryStaticError(
                f"unknown function {expr.name}", code="XPST0017")
        if not definition.min_args <= len(expr.args) <= definition.max_args:
            raise XQueryStaticError(
                f"wrong number of arguments for {expr.name}: "
                f"{len(expr.args)}", code="XPST0017")
        args = [self.evaluate(argument, ctx) for argument in expr.args]
        return definition.impl(ctx, args)

    def _call_user_function(self, function: ast.UserFunction,
                            expr: ast.FunctionCall,
                            ctx: DynamicContext) -> list[Item]:
        """Invoke a prolog-declared function.

        The body sees only the parameter bindings (no outer variables,
        no focus), per the XQuery scoping rules.
        """
        from .context import DynamicContext as _Context

        variables: dict[str, list[Item]] = {}
        for (param_name, param_type), argument in zip(function.params,
                                                      expr.args):
            value = self.evaluate(argument, ctx)
            if param_type is not None and \
                    not _matches_sequence_type(value, param_type):
                raise XQueryTypeError(
                    f"argument ${param_name} of {function.name} does "
                    f"not match {param_type.item_type}"
                    f"{param_type.occurrence}", code="XPTY0004")
            variables[param_name] = value
        body_ctx = _Context(ctx.prolog, variables=variables,
                            database=ctx.database, stats=ctx.stats)
        try:
            result = self.evaluate(function.body, body_ctx)
        except RecursionError:
            raise XQueryDynamicError(
                f"recursion limit exceeded in {function.name}",
                code="XQDY0002") from None
        if function.return_type is not None and \
                not _matches_sequence_type(result, function.return_type):
            raise XQueryTypeError(
                f"result of {function.name} does not match declared "
                f"return type", code="XPTY0004")
        return result

    # -- FLWOR ---------------------------------------------------------------

    def _eval_FLWORExpr(self, expr: ast.FLWORExpr, ctx) -> list[Item]:
        # The tuple stream is where runaway queries burn their time, so
        # the per-query guard (deadlines, row budgets — see
        # :mod:`repro.xquery.guard`) is consulted here: every for-clause
        # binding ticks the deadline, and the materialized return
        # sequence is checked against the row limit as it grows.
        guard = active_guard()
        plan = (self._planned(expr, lambda node: plan_flwor(node,
                                                             self.prolog))
                if self.plan_joins else _LOOPS_ONLY)
        contexts = [ctx]
        order_by: ast.OrderByClause | None = None
        clauses = expr.clauses
        index = 0
        while index < len(clauses):
            clause = clauses[index]
            index += 1
            if isinstance(clause, ast.ForClause):
                join = plan.joins.get(index - 1)
                if join is not None:
                    # The where clause right after is applied by the join.
                    contexts = self._hash_join(join, clause.expr,
                                               clauses[index].expr,
                                               contexts, guard)
                    index += 1
                    continue
                invariant = index - 1 in plan.invariant
                next_contexts = []
                items = None
                for tuple_ctx in contexts:
                    if items is None or not invariant:
                        items = self.evaluate(clause.expr, tuple_ctx)
                    if guard is not None:
                        guard.tick(len(items) + 1)
                    for position, item in enumerate(items, start=1):
                        bound = tuple_ctx.bind(clause.var, [item])
                        if clause.position_var:
                            bound = bound.bind(clause.position_var,
                                               [atomic.integer(position)])
                        next_contexts.append(bound)
                contexts = next_contexts
            elif isinstance(clause, ast.LetClause):
                contexts = [tuple_ctx.bind(clause.var,
                                           self.evaluate(clause.expr,
                                                         tuple_ctx))
                            for tuple_ctx in contexts]
            elif isinstance(clause, ast.WhereClause):
                contexts = [tuple_ctx for tuple_ctx in contexts
                            if self.boolean_value(clause.expr, tuple_ctx)]
            elif isinstance(clause, ast.OrderByClause):
                order_by = clause
        if order_by is not None:
            contexts = self._order_tuples(order_by, contexts)
        result: list[Item] = []
        for tuple_ctx in contexts:
            result.extend(self.evaluate(expr.return_expr, tuple_ctx))
            if guard is not None:
                guard.tick()
                guard.check_items(len(result))
        return result

    def _hash_join(self, join: HashJoin, inner: ast.Expr, where: ast.Expr,
                   contexts: list[DynamicContext], guard
                   ) -> list[DynamicContext]:
        """``for $var in inner where …`` over ``contexts`` by hashing
        (:mod:`repro.xquery.joins`): the tuples, in the order, the
        nested loop followed by the where clause produces."""
        if not contexts:
            return []
        stats = contexts[0].stats
        if stats is not None:
            note = (f"hash join for ${join.var} on the where clause's "
                    f"leading {'=' if join.general else 'eq'}")
            if note not in stats.plan_notes:
                stats.note(note)
        # Loop-invariant: any outer tuple evaluates it the same way.
        items = self.evaluate(inner, contexts[0])
        if not items:
            return []
        general = join.general

        def bind(tuple_ctx, slot):
            bound = tuple_ctx.bind(join.var, [items[slot]])
            if join.position_var:
                bound = bound.bind(join.position_var,
                                   [atomic.integer(slot + 1)])
            return bound

        if guard is not None:
            guard.tick(len(items) + 1)
        table = JoinTable(lambda probe, build:
                          keys_may_raise(probe, build, general))
        for slot in range(len(items)):
            try:
                keys, flags = equality_keys(
                    self.evaluate(join.build_key, bind(contexts[0], slot)),
                    general, build=True)
            except XQueryError:
                keys, flags = (), KEY_OTHER
            table.add(slot, flags, keys)

        joined: list[DynamicContext] = []
        for tuple_ctx in contexts:
            try:
                keys, flags = equality_keys(
                    self.evaluate(join.probe_key, tuple_ctx), general,
                    build=False)
            except XQueryError:
                keys, flags = (), KEY_OTHER
            slots, decided = table.probe(flags, keys)
            if guard is not None:
                guard.tick(len(slots) + 1)
            for slot in slots:
                bound = bind(tuple_ctx, slot)
                if (join.key_only and slot in decided) \
                        or self.boolean_value(where, bound):
                    joined.append(bound)
        return joined

    def _order_tuples(self, clause: ast.OrderByClause,
                      contexts: list[DynamicContext]
                      ) -> list[DynamicContext]:
        keyed: list[tuple[list[AtomicValue | None], DynamicContext]] = []
        for tuple_ctx in contexts:
            keys: list[AtomicValue | None] = []
            for spec in clause.specs:
                values = atomize(self.evaluate(spec.expr, tuple_ctx))
                if len(values) > 1:
                    raise XQueryTypeError("order by key must be a "
                                          "singleton", code="XPTY0004")
                keys.append(values[0] if values else None)
            keyed.append((keys, tuple_ctx))

        def compare(left, right) -> int:
            for index, spec in enumerate(clause.specs):
                left_key, right_key = left[0][index], right[0][index]
                result = _compare_order_keys(left_key, right_key,
                                             spec.empty_greatest)
                if result:
                    return -result if spec.descending else result
            return 0

        keyed.sort(key=functools.cmp_to_key(compare))
        return [tuple_ctx for _keys, tuple_ctx in keyed]

    # -- paths ------------------------------------------------------------

    def _eval_PathExpr(self, expr: ast.PathExpr, ctx) -> list[Item]:
        if expr.absolute:
            items = [self._context_root(ctx)]
        elif isinstance(expr.steps[0], ast.ExprStep):
            items = self._apply_expr_step(expr.steps[0], None, ctx)
        else:
            items = [ctx.require_context_item()]
        steps, matcher, consumed, predicates = self._planned(expr,
                                                             _path_plan)
        # Cheap pre-check: the summary fast path only applies when the
        # context is document nodes (relative paths inside predicates hit
        # this with element contexts thousands of times per query).
        if matcher is not None and items and \
                isinstance(items[0], DocumentNode):
            nodes = self._summary_lookup(matcher, predicates, items, ctx)
            if nodes is not None:
                steps, items = steps[consumed:], nodes
        for step in steps:
            if isinstance(step, ast.AxisStep):
                items = self._apply_axis_step(step, items, ctx)
            else:
                items = self._apply_expr_step(step, items, ctx)
        return items

    def _context_root(self, ctx: DynamicContext) -> Node:
        item = ctx.require_context_item()
        if not isinstance(item, Node):
            raise XQueryTypeError(
                "leading '/' requires a node context item", code="XPTY0020")
        root = item.root
        if root.kind != "document":
            # fn:root(.) treat as document-node() — the Query 25 error.
            raise XQueryDynamicError(
                "leading '/' in a tree whose root is not a document node",
                code="XPDY0050")
        return root

    def _summary_lookup(self, matcher, predicates, items: list[Item], ctx
                        ) -> list[Node] | None:
        """Answer a path's leading step chain from path tables.

        When every context item is an ingested, unmutated document (it
        has a current column store), the nodes matching the path's
        compiled prefix (:func:`_path_plan`) come straight from the
        stores' path partitions — no subtree walk.  None on any doubt:
        the generic pipeline runs.
        """
        stores = []
        # sa: ok(SA406: one store lookup per document root; bails early)
        for item in items:
            store = (item.current_store()
                     if isinstance(item, DocumentNode) else None)
            if store is None:
                return None
            stores.append(store)
        nodes: list[Node] = []
        for store in stores:
            nodes.extend(store.nodes_for(matcher))
        if ctx.stats is not None:
            ctx.stats.summary_lookups += 1
        if METRICS.enabled:
            METRICS.inc("pathsummary.hits")
        nodes = document_order(nodes)
        if predicates:
            nodes = self._filter_predicates(nodes, predicates, ctx)
        return nodes

    def _apply_axis_step(self, step: ast.AxisStep, items: list[Item],
                         ctx) -> list[Item]:
        guard = active_guard()
        if guard is not None:
            # Axis scans over wide context sequences are the other
            # place a deadline must be able to interrupt.
            guard.tick(len(items) + 1)
        single = len(items) == 1
        axis = step.axis
        test = step.test
        # The two hottest shapes, inlined: a name test on the child or
        # attribute axis needs no per-candidate dispatch through
        # _test_matches.
        name_test = (test if isinstance(test, ast.NameTest) else None)
        collected: list[Node] = []
        for item in items:
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    "axis step applied to an atomic value", code="XPTY0020")
            if name_test is not None and axis == "child":
                matched = [node for node in item.children
                           if node.kind == "element"
                           and name_test.matches(node.name)]
            elif name_test is not None and axis == "attribute":
                matched = [node for node in item.attributes
                           if name_test.matches(node.name)]
            else:
                matched = [node for node in _axis_nodes(item, axis)
                           if _test_matches(test, node, axis)]
            if step.predicates:
                matched = self._filter_predicates(matched, step.predicates,
                                                  ctx)
            collected.extend(matched)
        if single and axis in _SORTED_SINGLE_AXES:
            # One context node + an order-preserving axis: the result is
            # already sorted and duplicate-free.
            return collected
        return document_order(collected)

    def _apply_expr_step(self, step: ast.ExprStep,
                         items: list[Item] | None, ctx) -> list[Item]:
        results: list[Item] = []
        if items is None:
            evaluated = self.evaluate(step.expr, ctx)
            evaluated = self._filter_predicates(evaluated, step.predicates,
                                                ctx)
            results.extend(evaluated)
        else:
            size = len(items)
            guard = active_guard()
            if guard is not None:
                # Expression steps re-evaluate per context item; a
                # deadline must be able to interrupt wide sequences.
                guard.tick(size + 1)
            for position, item in enumerate(items, start=1):
                focused = ctx.with_focus(item, position, size)
                evaluated = self.evaluate(step.expr, focused)
                evaluated = self._filter_predicates(
                    evaluated, step.predicates, focused)
                results.extend(evaluated)
        node_count = sum(1 for item in results if isinstance(item, Node))
        if node_count == len(results):
            return document_order(results)  # type: ignore[arg-type]
        if node_count:
            raise XQueryTypeError(
                "path step mixes nodes and atomic values", code="XPTY0018")
        return results

    def _filter_predicates(self, items, predicates: list[ast.Expr],
                           ctx) -> list:
        guard = active_guard()
        for predicate in predicates:
            kept = []
            size = len(items)
            if guard is not None:
                # Each predicate pass evaluates an expression per item.
                guard.tick(size + 1)
            for position, item in enumerate(items, start=1):
                focused = ctx.with_focus(item, position, size)
                values = self.evaluate(predicate, focused)
                if _predicate_truth(values, position):
                    kept.append(item)
            items = kept
        return items

    def _eval_FilterExpr(self, expr: ast.FilterExpr, ctx) -> list[Item]:
        items = self.evaluate(expr.primary, ctx)
        return self._filter_predicates(items, expr.predicates, ctx)

    # -- constructors -------------------------------------------------------

    def _eval_DirectElementConstructor(
            self, expr: ast.DirectElementConstructor, ctx) -> list[Item]:
        scope = dict(self.prolog.namespaces)
        default_ns = self.prolog.default_element_namespace
        for prefix, uri in expr.namespace_declarations.items():
            if prefix == "":
                default_ns = uri
            else:
                scope[prefix] = uri

        name = _resolve_constructor_name(expr.name, scope, default_ns)

        attributes: list[AttributeNode] = []
        seen: set[QName] = set()
        for attribute_name, template in expr.attributes:
            qname = _resolve_constructor_name(attribute_name, scope,
                                              default_ns="")
            if qname in seen:
                raise XQueryDynamicError(
                    f"duplicate attribute {attribute_name!r}",
                    code="XQDY0025")
            seen.add(qname)
            value = self._template_value(template, ctx)
            attributes.append(AttributeNode(qname, value))

        content_items: list[Item] = []
        for piece in expr.content:
            if isinstance(piece, str):
                content_items.append(TextNode(piece))
            elif isinstance(piece, ast.DirectElementConstructor):
                content_items.extend(
                    self._eval_DirectElementConstructor(piece, ctx))
            else:
                content_items.extend(self.evaluate(piece, ctx))

        element = self._build_element(name, attributes, content_items,
                                      scope)
        return [element]

    def _template_value(self, template: ast.AttributeValueTemplate,
                        ctx) -> str:
        parts: list[str] = []
        for part in template.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                values = atomize(self.evaluate(part, ctx))
                parts.append(" ".join(value.string_value()
                                      for value in values))
        return "".join(parts)

    def _build_element(self, name: QName,
                       attributes: list[AttributeNode],
                       content_items: list[Item],
                       scope: dict[str, str]) -> ElementNode:
        """Assemble a new element per the §3.6 construction rules."""
        preserve = self.prolog.construction_mode == "preserve"
        element = ElementNode(name, in_scope_namespaces=scope)
        seen = {attribute.name for attribute in attributes}
        for attribute in attributes:
            element.add_attribute(attribute)

        children: list[Node] = []
        pending_atomics: list[AtomicValue] = []
        saw_non_attribute_content = False

        def flush_atomics() -> None:
            if pending_atomics:
                text = " ".join(value.string_value()
                                for value in pending_atomics)
                children.append(TextNode(text))
                pending_atomics.clear()

        for item in content_items:
            if isinstance(item, AtomicValue):
                saw_non_attribute_content = True
                pending_atomics.append(item)
                continue
            if item.kind == "attribute":
                if saw_non_attribute_content or children or pending_atomics:
                    raise XQueryTypeError(
                        "attribute node after non-attribute content",
                        code="XQTY0024")
                copied_attribute = copy_node(item, preserve)
                assert isinstance(copied_attribute, AttributeNode)
                if copied_attribute.name in seen:
                    raise XQueryDynamicError(
                        f"duplicate attribute {copied_attribute.name}",
                        code="XQDY0025")
                seen.add(copied_attribute.name)
                element.add_attribute(copied_attribute)
                continue
            flush_atomics()
            saw_non_attribute_content = True
            if item.kind == "document":
                for child in item.children:
                    children.append(copy_node(child, preserve))
            elif item.kind == "text":
                if item.string_value():
                    children.append(TextNode(item.string_value()))
            else:
                children.append(copy_node(item, preserve))
        flush_atomics()

        merged: list[Node] = []
        for child in children:
            if (merged and child.kind == "text" and
                    merged[-1].kind == "text"):
                merged[-1] = TextNode(merged[-1].string_value() +
                                      child.string_value())
            else:
                merged.append(child)
        for child in merged:
            if child.kind == "text" and not child.string_value():
                continue
            element.append_child(child)
        return element

    def _eval_ComputedElementConstructor(
            self, expr: ast.ComputedElementConstructor, ctx) -> list[Item]:
        scope = dict(self.prolog.namespaces)
        if isinstance(expr.name, str):
            name = _resolve_constructor_name(
                expr.name, scope, self.prolog.default_element_namespace)
        else:
            lexical = singleton(atomize(self.evaluate(expr.name, ctx)),
                                "element name").string_value()
            name = _resolve_constructor_name(
                lexical, scope, self.prolog.default_element_namespace)
        content = (self.evaluate(expr.content, ctx)
                   if expr.content is not None else [])
        return [self._build_element(name, [], content, scope)]

    def _eval_ComputedAttributeConstructor(
            self, expr: ast.ComputedAttributeConstructor, ctx) -> list[Item]:
        scope = dict(self.prolog.namespaces)
        if isinstance(expr.name, str):
            name = _resolve_constructor_name(expr.name, scope, "")
        else:
            lexical = singleton(atomize(self.evaluate(expr.name, ctx)),
                                "attribute name").string_value()
            name = _resolve_constructor_name(lexical, scope, "")
        values = (atomize(self.evaluate(expr.content, ctx))
                  if expr.content is not None else [])
        text = " ".join(value.string_value() for value in values)
        return [AttributeNode(name, text)]

    def _eval_ComputedTextConstructor(
            self, expr: ast.ComputedTextConstructor, ctx) -> list[Item]:
        values = atomize(self.evaluate(expr.content, ctx))
        if not values:
            return []
        return [TextNode(" ".join(value.string_value()
                                  for value in values))]

    def _eval_ComputedDocumentConstructor(
            self, expr: ast.ComputedDocumentConstructor, ctx) -> list[Item]:
        preserve = self.prolog.construction_mode == "preserve"
        document = DocumentNode()
        for item in self.evaluate(expr.content, ctx):
            if isinstance(item, AtomicValue):
                document.append_child(TextNode(item.string_value()))
            elif item.kind == "document":
                for child in item.children:
                    document.append_child(copy_node(child, preserve))
            elif item.kind == "attribute":
                raise XQueryTypeError(
                    "attribute node in document constructor",
                    code="XPTY0004")
            else:
                document.append_child(copy_node(item, preserve))
        return [document]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: The plan of ``plan_joins=False``: no hash join, nothing hoisted.
_LOOPS_ONLY = FlworPlan({}, frozenset(), [])


def _resolve_constructor_name(lexical: str, scope: dict[str, str],
                              default_ns: str) -> QName:
    if ":" in lexical:
        prefix, local = lexical.split(":", 1)
        uri = scope.get(prefix)
        if uri is None:
            raise XQueryStaticError(
                f"undeclared namespace prefix {prefix!r}", code="XPST0081")
        return QName(uri, local, prefix)
    return QName(default_ns, lexical)


def _predicate_truth(values: list[Item], position: int) -> bool:
    if (len(values) == 1 and isinstance(values[0], AtomicValue)
            and values[0].is_numeric):
        return float(values[0].value) == position
    return effective_boolean_value(values)


#: Predicate expression types that always produce a boolean (or empty)
#: result — they can never be mistaken for a positional predicate.
_BOOLEAN_PREDICATE_TYPES = (ast.GeneralComparison, ast.ValueComparison,
                            ast.NodeComparison, ast.AndExpr, ast.OrExpr,
                            ast.QuantifiedExpr)


def _non_positional(predicate: ast.Expr) -> bool:
    """Can ``predicate`` be applied to a merged node list instead of
    per-context?  Requires a provably boolean result (no numeric
    position shorthand) and no position()/last() anywhere inside."""
    if not isinstance(predicate, _BOOLEAN_PREDICATE_TYPES):
        return False
    for obj in ast.walk(predicate):
        if (isinstance(obj, ast.FunctionCall)
                and obj.name.local in ("position", "last")):
            return False
    return True


def _summary_step_test(step: ast.AxisStep):
    """Translate an axis step's node test into a pattern StepTest, or
    None when it has no summary-path equivalent."""
    from ..core.patterns import StepTest
    test = step.test
    on_attribute = step.axis == "attribute"
    if isinstance(test, ast.NameTest):
        kind = "attribute" if on_attribute else "element"
        return StepTest(kind, uri=test.uri, local=test.local)
    if test.kind == "node":
        return StepTest("attribute") if on_attribute else StepTest("node")
    if on_attribute:
        return None  # attribute::text() etc. select nothing
    if test.kind in ("text", "comment"):
        return StepTest(test.kind)
    if test.kind == "processing-instruction":
        return StepTest("processing-instruction", pi_target=test.target)
    return None  # element()/attribute()/document-node(): generic path


def _path_plan(expr: ast.PathExpr) -> tuple:
    """(steps after the initial context, summary matcher or None, steps
    it consumes, predicates of its last step) for ``expr``; the
    evaluator memoises it per expression (:meth:`Evaluator._planned`)."""
    steps: list = list(expr.steps)
    if expr.absolute == "//":
        # Keep the expansion symbolic so the path-summary fast path can
        # fold it into a gap step instead of eagerly materializing every
        # subtree node.
        steps.insert(0, ast.AxisStep("descendant-or-self",
                                     ast.KindTest("node")))
    elif not expr.absolute and isinstance(steps[0], ast.ExprStep):
        steps = steps[1:]
    pattern_steps, consumed, predicates = _compile_summary_prefix(steps)
    matcher = None
    if consumed:
        from ..core.patterns import LinearPattern
        from ..storage.columnar import PatternMatcher
        matcher = PatternMatcher(LinearPattern(tuple(pattern_steps)))
    return steps, matcher, consumed, predicates


def _compile_summary_prefix(steps) -> tuple[list, int, list]:
    """Compile a leading run of axis steps into linear-pattern steps.

    Returns (pattern_steps, consumed_step_count, final_predicates).
    ``descendant-or-self::node()`` folds into a gap on the next step;
    predicates are only consumed on the *last* step of the prefix and
    only when provably non-positional (their filter then commutes with
    the per-document merge).
    """
    from ..core.patterns import PatternStep
    pattern_steps: list = []
    consumed = 0
    gap = False
    predicates: list = []
    for step in steps:
        if not isinstance(step, ast.AxisStep):
            break
        if (step.axis == "descendant-or-self"
                and isinstance(step.test, ast.KindTest)
                and step.test.kind == "node" and not step.predicates):
            gap = True
            consumed += 1
            continue
        if step.axis not in ("child", "attribute", "descendant"):
            break
        test = _summary_step_test(step)
        if test is None:
            break
        if step.predicates and \
                not all(_non_positional(predicate)
                        for predicate in step.predicates):
            break
        pattern_steps.append(
            PatternStep(test, gap=gap or step.axis == "descendant"))
        gap = False
        consumed += 1
        if step.predicates:
            predicates = step.predicates
            break
    if gap:
        # A trailing descendant-or-self::node() selects nodes itself;
        # leave it (and everything after) to the generic pipeline.
        consumed -= 1
    if not pattern_steps:
        return [], 0, []
    return pattern_steps, consumed, predicates


def _axis_nodes(node: Node, axis: str) -> list[Node]:
    if axis == "child":
        return list(node.children)
    if axis == "attribute":
        return list(node.attributes)
    if axis == "self":
        return [node]
    if axis == "descendant-or-self":
        # Columnar fast path: a subtree is one contiguous slot range of
        # the accelerator table, so the recursive object walk becomes a
        # single range scan (see repro.storage.columnar).
        store = _column_store_for(node)
        if store is not None:
            return store.descendants_or_self(node)
        return list(node.descendants_or_self())
    if axis == "descendant":
        store = _column_store_for(node)
        if store is not None:
            return store.descendants_or_self(node)[1:]
        result = list(node.descendants_or_self())
        return result[1:]
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "ancestor":
        return list(node.ancestors())
    if axis == "ancestor-or-self":
        return [node] + list(node.ancestors())
    if axis == "following-sibling":
        if node.parent is None or node.kind == "attribute":
            return []
        siblings = node.parent.children
        index = next(i for i, sibling in enumerate(siblings)
                     if sibling.is_same_node(node))
        return siblings[index + 1:]
    if axis == "preceding-sibling":
        if node.parent is None or node.kind == "attribute":
            return []
        siblings = node.parent.children
        index = next(i for i, sibling in enumerate(siblings)
                     if sibling.is_same_node(node))
        return list(reversed(siblings[:index]))
    if axis in ("following", "preceding"):
        # Interval encoding: x follows c iff pre(x) > pre(c) and
        # post(x) > post(c); x precedes c iff both are smaller.  For an
        # attribute the spec anchors both axes at its parent element
        # (following = ancestor-or-self/following-sibling/…).
        anchor = node.parent if node.kind == "attribute" else node
        if anchor is None:
            return []
        store = _column_store_for(anchor)
        if store is not None:
            if axis == "following":
                return store.following(anchor)
            return list(reversed(store.preceding(anchor)))
        _tree, pre, post, _level = anchor.structure()
        if axis == "following":
            return [candidate for candidate
                    in anchor.root.descendants_or_self()
                    if candidate._order[1] > pre
                    and candidate._post > post]
        return list(reversed(
            [candidate for candidate in anchor.root.descendants_or_self()
             if candidate._order[1] < pre and candidate._post < post]))
    raise XQueryDynamicError(f"unsupported axis {axis!r}")


def _column_store_for(node: Node):
    """Resolve the columnar accelerator table behind ``node`` (None for
    constructed/mutated trees, which keep the object-walk paths)."""
    global _store_for_node
    if _store_for_node is None:
        from ..storage.columnar import store_for_node
        _store_for_node = store_for_node
    return _store_for_node(node)


_store_for_node = None


def _test_matches(test: ast.NodeTest, node: Node, axis: str) -> bool:
    if isinstance(test, ast.KindTest):
        return test.matches_node(node)
    # NameTest: principal node kind is attribute on the attribute axis,
    # element everywhere else (the §3.9 rule that //node() skips
    # attributes).
    principal = "attribute" if axis == "attribute" else "element"
    if node.kind != principal:
        return False
    return test.matches(node.name)


def _compare_order_keys(left: AtomicValue | None,
                        right: AtomicValue | None,
                        empty_greatest: bool) -> int:
    if left is None and right is None:
        return 0
    if left is None:
        return 1 if empty_greatest else -1
    if right is None:
        return -1 if empty_greatest else 1
    less = value_compare("lt", [left], [right])
    if less and less[0].value:
        return -1
    greater = value_compare("gt", [left], [right])
    if greater and greater[0].value:
        return 1
    return 0


def _arithmetic(op: str, left: AtomicValue,
                right: AtomicValue) -> AtomicValue:
    from decimal import Decimal

    promoted_left, promoted_right = atomic.promote_numeric_pair(left, right)
    a, b = promoted_left.value, promoted_right.value
    result_type = promoted_left.type_name
    try:
        if op == "+":
            return AtomicValue(result_type, a + b)
        if op == "-":
            return AtomicValue(result_type, a - b)
        if op == "*":
            return AtomicValue(result_type, a * b)
        if op == "div":
            if result_type in (atomic.T_INTEGER, atomic.T_LONG):
                return atomic.decimal(Decimal(a) / Decimal(b))
            return AtomicValue(result_type, a / b)
        if op == "idiv":
            quotient = a / b
            return atomic.integer(int(quotient))
        if op == "mod":
            if result_type == atomic.T_DOUBLE:
                return atomic.double(float(a) % float(b) if b else
                                     float("nan"))
            return AtomicValue(result_type, a % b)
    except ZeroDivisionError:
        raise XQueryDynamicError("division by zero",
                                 code="FOAR0001") from None
    raise XQueryDynamicError(f"unknown arithmetic operator {op!r}")


def _matches_sequence_type(items: list[Item],
                           sequence_type: ast.SequenceType) -> bool:
    occurrence = sequence_type.occurrence
    if not items:
        return occurrence in ("?", "*")
    if len(items) > 1 and occurrence not in ("*", "+"):
        return False
    return all(_matches_item_type(item, sequence_type.item_type)
               for item in items)


def _matches_item_type(item: Item, item_type: str) -> bool:
    if item_type == "item":
        return True
    kind_map = {"document-node": "document", "element": "element",
                "attribute": "attribute", "node": None, "text": "text",
                "comment": "comment",
                "processing-instruction": "processing-instruction"}
    if item_type in kind_map:
        if not isinstance(item, Node):
            return False
        expected = kind_map[item_type]
        return expected is None or item.kind == expected
    if isinstance(item, Node):
        return False
    return atomic.is_subtype(item.type_name, item_type)
