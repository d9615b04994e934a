"""XQuery evaluation: each module body is lowered once to closures.

:func:`evaluate_module` lowers a compiled module on first use into a
tree of Python closures (one per ``plan_joins`` value, cached in
:attr:`ast.Module.lowered`) and then only builds a context and calls
the root.  Node dispatch, path summary and FLWOR join plans,
constructor names, constant comparison operands and non-positional
predicates are decided while lowering.  Closures hold no per-execution
state (cached modules are shared across threads), and a static error
found while lowering is raised by its closure, so only when reached.

A path whose leading steps compile to a summary pattern answers them
from the stores' path partitions (:func:`_summary_lookup`): from stored
documents, and — in the ``plan_joins`` lowering, where the path has a
column plan or runs as a batch — from stored elements of untyped
stores, the pattern anchored at the element's path and each partition
read in the slot range of its subtree.  When the
last of those steps carries one value predicate ``[rel op operand]``
(:func:`_column_plan`) and every store is untyped, the predicate is
decided on the columns too: the partitions of *prefix + rel* are
compared in one pass and the ``len(rel)``-th parent of each passing
slot is kept (:meth:`~repro.storage.columnar.ColumnStore.nodes_where`).
:func:`evaluate_each` runs a module's path body for many contexts (an
SQL call's row items, its rows' documents) as one such lookup.
The comparison semantics are the generic route's — the operand is
promoted by :func:`~repro.xdm.compare.promote`, a value that does not
cast is a non-match of a general comparison — and anything the kernel
does not decide (a typed store, an operand that is not one atom
comparing as xs:double or as a string, a value comparison that would
raise) runs the predicate node by node, raising the same errors.

The dynamic semantics the paper's pitfalls hinge on:

* path steps over the XDM axes with document-order dedup;
* the leading-``/`` ``fn:root(.) treat as document-node()`` expansion
  (raises err:XPDY0050 under constructed elements — Query 25);
* existential general comparisons vs singleton value comparisons;
* FLWOR with for/let tuple streams — let preserves empty sequences,
  where discards them (Section 3.4);
* element construction with fresh node identities, untyped annotations,
  space-joined atomics and duplicate-attribute errors (Section 3.6).

Every loop that scales with data volume ticks the active
:class:`~repro.xquery.guard.QueryGuard`.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Callable

from ..errors import (XQueryDynamicError, XQueryError, XQueryStaticError,
                      XQueryTypeError)
from ..obs.metrics import METRICS
from ..xdm import atomic
from ..xdm.atomic import T_DOUBLE, T_STRING, T_UNTYPED, AtomicValue
from ..xdm.compare import (_OPS, GENERAL_TO_VALUE, KEY_OTHER, MIRRORED,
                           compare_atoms, compare_with, comparison_type,
                           equality_keys, keys_may_raise, node_compare,
                           promote, value_compare)
from ..xdm.nodes import (AttributeNode, DocumentNode, ElementNode, Node,
                         TextNode, copy_node)
from ..xdm.qname import QName
from ..xdm.sequence import (Item, atomize, document_order,
                            effective_boolean_value, singleton)
from . import ast
from .context import DynamicContext
from .functions import lookup_function
from .guard import QueryGuard, active_guard
from .joins import FlworPlan, HashJoin, JoinTable, plan_flwor

__all__ = ["batches", "evaluate", "evaluate_each", "evaluate_module",
           "lower_expression"]

#: A lowered expression: the dynamic context in, the result sequence out.
Lowered = Callable[[DynamicContext], list]

#: Axes whose output from a *single* context node is already in
#: document order with no duplicates — the final dedup/re-sort pass is
#: skipped for them (the streaming fast path of the path pipeline).
_SORTED_SINGLE_AXES = frozenset({
    "self", "child", "attribute", "descendant", "descendant-or-self",
    "following-sibling", "following",
})

#: The plan of ``plan_joins=False``: no hash join, nothing hoisted.
_LOOPS_ONLY = FlworPlan({}, frozenset(), [])

#: Predicate expression types that always produce a boolean (or empty)
#: result — they can never be mistaken for a positional predicate.
_BOOLEAN_PREDICATE_TYPES = (ast.GeneralComparison, ast.ValueComparison,
                            ast.NodeComparison, ast.AndExpr, ast.OrExpr,
                            ast.QuantifiedExpr)


def evaluate(source: str, database=None,
             variables: dict[str, list[Item]] | None = None,
             stats=None) -> list[Item]:
    """Parse and evaluate an XQuery string; returns the result sequence.

    Compilation goes through the shared LRU compiled-query cache, so
    repeated evaluations of the same text skip the parser and the
    lowering entirely.
    """
    from ..core.querycache import compile_query
    module = compile_query(source).module
    return evaluate_module(module, database=database, variables=variables,
                           stats=stats)


def evaluate_module(module: ast.Module, database=None,
                    variables: dict[str, list[Item]] | None = None,
                    context_item: Item | None = None,
                    stats=None, plan_joins: bool = True) -> list[Item]:
    """Evaluate ``module``'s body.  ``plan_joins=False`` runs every for
    clause as a plain nested loop that re-evaluates its sequence per
    outer tuple — the reference plan ``use_indexes=False`` runs
    (:mod:`repro.xquery.joins`)."""
    focus = 0 if context_item is None else 1
    return _lowering(module, plan_joins).body(DynamicContext(
        variables, context_item, focus, focus, database, stats))


def evaluate_each(module: ast.Module, contexts: list[Node],
                  database=None, variable: str | None = None,
                  stats=None) -> list[list[Item]] | None:
    """``module``'s body evaluated once for each of ``contexts`` — the
    context item, or ``$variable`` bound to it — as one batch: the
    result of each, in order, or None where the batch does not apply
    and the caller evaluates them one by one.

    It applies to a body that is a relative path ``P``, or ``$variable/P``
    with no other variable, whose leading steps the path summary
    answers (:func:`_summary_lookup`), over live nodes of untyped
    stores; the ``plan_joins`` lowering.  Each result is the one
    ``evaluate_module`` gives for that context alone.  A batch that
    raises need not raise the first context's error: the caller runs
    context by context again for that."""
    each = _lowering(module, True).each
    if each is None or each[0] != variable:
        return None
    return each[1](contexts, DynamicContext(None, None, 0, 0, database,
                                            stats))


def batches(module: ast.Module, variable: str | None = None) -> bool:
    """Does :func:`evaluate_each` take ``module``'s body, for contexts
    bound to ``$variable`` (None: the context item)?"""
    each = _lowering(module, True).each
    return each is not None and each[0] == variable


def lower_expression(module: ast.Module, expr: ast.Expr):
    """``run(variables, database, stats)`` evaluating ``expr``, a
    sub-expression of ``module`` (the SQL executor's index join probe
    operand), without a focus.  Lowered once per module."""
    lowering = _lowering(module, True)
    body = lowering.parts.get(id(expr))
    if body is None:
        body = lowering.parts[id(expr)] = lowering.lower(expr)
    return lambda variables, database=None, stats=None: body(
        DynamicContext(variables, database=database, stats=stats))


def _lowering(module: ast.Module, plan_joins: bool) -> "_Lowering":
    """``module`` lowered for ``plan_joins``, on first use."""
    lowering = module.lowered.get(plan_joins)
    if lowering is None:
        lowering = module.lowered[plan_joins] = _Lowering(module,
                                                          plan_joins)
    return lowering


def _fail(error_type, message: str, code: str | None = None) -> Lowered:
    """A closure raising a fresh ``error_type`` each time it runs."""
    def fail(ctx):
        raise error_type(message, code=code)
    return fail


class _Lowering:
    """Turns the AST expressions of one module into closures."""

    def __init__(self, module: ast.Module, plan_joins: bool):
        self.prolog = prolog = module.prolog
        self.plan_joins = plan_joins
        self.preserve = prolog.construction_mode == "preserve"
        #: ``id`` of a where clause's folded predicate -> the where
        #: clause's comparison, which keys its index node answers.
        self.stands_for: dict[int, ast.Expr] = {}
        #: User function bodies, looked up by call closures when they
        #: run, so recursive functions need no forward declaration.
        self.bodies: dict[tuple, Lowered] = {}
        for key, function in prolog.functions.items():
            self.bodies[key] = self.lower(function.body)
        self.body = self.lower(module.body)
        #: Sub-expressions lowered on their own, by ``id`` (the module
        #: holds them, so an id is never reused while this lives).
        self.parts: dict[int, Lowered] = {}
        #: (variable or None, ``each(contexts, ctx)``) evaluating the
        #: body per context in one batch (:func:`evaluate_each`)
        self.each = self._each(module.body) if plan_joins else None

    def lower(self, expr: ast.Expr) -> Lowered:
        method = _LOWER.get(type(expr))
        if method is None:
            return _fail(XQueryDynamicError,
                         f"no evaluator for {type(expr).__name__}")
        return method(self, expr)

    def test(self, expr: ast.Expr) -> Callable[[DynamicContext], bool]:
        """``expr``'s effective boolean value; the boolean operators,
        general comparisons and quantifiers build no xs:boolean."""
        kind = type(expr)
        if kind is ast.OrExpr:
            left, right = self.test(expr.left), self.test(expr.right)
            return lambda ctx: left(ctx) or right(ctx)
        if kind is ast.AndExpr:
            left, right = self.test(expr.left), self.test(expr.right)
            return lambda ctx: left(ctx) and right(ctx)
        if kind is ast.GeneralComparison:
            return self._general_comparison(expr)
        if kind is ast.QuantifiedExpr:
            return self._quantifier(expr)
        evaluate = self.lower(expr)
        return lambda ctx: effective_boolean_value(evaluate(ctx))

    # -- primaries -----------------------------------------------------

    def _literal(self, expr: ast.Literal) -> Lowered:
        value = expr.value
        return lambda ctx: [value]

    def _var_ref(self, expr: ast.VarRef) -> Lowered:
        name = expr.name
        return lambda ctx: list(ctx.lookup(name))

    def _context_item(self, expr: ast.ContextItem) -> Lowered:
        return _focus

    def _sequence(self, expr: ast.SequenceExpr) -> Lowered:
        parts = [self.lower(item) for item in expr.items]

        def sequence(ctx):
            result: list[Item] = []
            for part in parts:
                result.extend(part(ctx))
            return result
        return sequence

    def _range(self, expr: ast.RangeExpr) -> Lowered:
        start = self._integer_operand(expr.start, "range start")
        end = self._integer_operand(expr.end, "range end")
        chunk = QueryGuard.CHECK_EVERY

        def integer_range(ctx):
            low, high = start(ctx), end(ctx)
            if low is None or high is None:
                return []
            guard = active_guard()
            # One item per integer: tick as the range grows, so a
            # deadline interrupts ``1 to 2000000``.
            result: list[Item] = []
            for first in range(low, high + 1, chunk):
                last = min(first + chunk, high + 1)
                if guard is not None:
                    guard.tick(last - first)
                result.extend(map(atomic.integer, range(first, last)))
            return result
        return integer_range

    def _integer_operand(self, expr: ast.Expr, what: str):
        evaluate = self.lower(expr)

        def integer_operand(ctx) -> int | None:
            values = atomize(evaluate(ctx))
            if not values:
                return None
            value = singleton(values, what)
            if value.is_untyped:
                value = atomic.cast(value, atomic.T_DOUBLE)
            if not value.is_numeric:
                raise XQueryTypeError(f"{what} must be numeric")
            return int(value.value)
        return integer_operand

    # -- logic -----------------------------------------------------------

    def _boolean(self, expr) -> Lowered:
        test = self.test(expr)
        return lambda ctx: [atomic.boolean(test(ctx))]

    def _if(self, expr: ast.IfExpr) -> Lowered:
        condition = self.test(expr.condition)
        then_branch = self.lower(expr.then_branch)
        else_branch = self.lower(expr.else_branch)
        return lambda ctx: (then_branch(ctx) if condition(ctx)
                            else else_branch(ctx))

    def _typeswitch(self, expr: ast.TypeswitchExpr) -> Lowered:
        operand = self.lower(expr.operand)
        cases = [(case.sequence_type, case.variable, self.lower(case.body))
                 for case in expr.cases]
        default_variable = expr.default_variable
        default_body = self.lower(expr.default_body)

        def typeswitch(ctx):
            value = operand(ctx)
            for sequence_type, variable, body in cases:
                if _matches_sequence_type(value, sequence_type):
                    return body(ctx.bind(variable, value) if variable
                                else ctx)
            return default_body(ctx.bind(default_variable, value)
                                if default_variable else ctx)
        return typeswitch

    def _quantifier(self, expr: ast.QuantifiedExpr):
        some = expr.quantifier == "some"
        quantified = self.test(expr.satisfies)
        for var, binding_expr in reversed(expr.bindings):
            quantified = _quantify(var, self.lower(binding_expr),
                                   quantified, some)
        return quantified

    # -- comparisons -------------------------------------------------------

    def _general_comparison(self, expr: ast.GeneralComparison):
        op = GENERAL_TO_VALUE[expr.op]
        # A literal operand is promoted once, here.
        if isinstance(expr.right, ast.Literal):
            test, operand = compare_with(op, expr.right.value), expr.left
        elif isinstance(expr.left, ast.Literal):
            test = compare_with(MIRRORED[op], expr.left.value)
            operand = expr.right
        else:
            left, right = self.lower(expr.left), self.lower(expr.right)
            return lambda ctx: compare_atoms(op, atomize(left(ctx)),
                                             atomize(right(ctx)))
        evaluate = self.lower(operand)
        return lambda ctx: test(atomize(evaluate(ctx)))

    def _comparison(self, expr) -> Lowered:
        compare = (value_compare if type(expr) is ast.ValueComparison
                   else node_compare)
        op, left, right = expr.op, self.lower(expr.left), self.lower(
            expr.right)
        return lambda ctx: compare(op, left(ctx), right(ctx))

    # -- arithmetic ---------------------------------------------------------

    def _arithmetic(self, expr: ast.Arithmetic) -> Lowered:
        op = expr.op
        left = self._numeric_operand(expr.left)
        right = self._numeric_operand(expr.right)

        def arithmetic(ctx):
            left_value, right_value = left(ctx), right(ctx)
            if left_value is None or right_value is None:
                return []
            return [_arithmetic(op, left_value, right_value)]
        return arithmetic

    def _numeric_operand(self, expr: ast.Expr):
        if isinstance(expr, ast.Literal) and expr.value.is_numeric:
            value = expr.value
            return lambda ctx: value
        evaluate = self.lower(expr)

        def numeric_operand(ctx) -> AtomicValue | None:
            values = atomize(evaluate(ctx))
            if not values:
                return None
            value = singleton(values, "arithmetic operand")
            if value.is_untyped:
                value = atomic.cast(value, atomic.T_DOUBLE)
            if not value.is_numeric:
                raise XQueryTypeError(
                    f"arithmetic on {value.type_name}", code="XPTY0004")
            return value
        return numeric_operand

    def _unary_minus(self, expr: ast.UnaryMinus) -> Lowered:
        operand = self._numeric_operand(expr.operand)
        negate = expr.negate

        def unary(ctx):
            value = operand(ctx)
            if value is None:
                return []
            if negate:
                return [AtomicValue(value.type_name, -value.value)]
            return [value]
        return unary

    # -- set operations -------------------------------------------------

    def _set(self, expr: ast.SetExpr) -> Lowered:
        op, left, right = expr.op, self.lower(expr.left), self.lower(
            expr.right)

        def set_operation(ctx):
            left_nodes = _node_sequence(left(ctx), op)
            right_nodes = _node_sequence(right(ctx), op)
            right_ids = {node.node_id for node in right_nodes}
            if op == "union":
                return document_order(left_nodes + right_nodes)
            if op == "intersect":
                return document_order([node for node in left_nodes
                                       if node.node_id in right_ids])
            if op == "except":
                return document_order([node for node in left_nodes
                                       if node.node_id not in right_ids])
            raise XQueryDynamicError(f"unknown set operation {op}")
        return set_operation

    # -- casts & types -----------------------------------------------------

    def _cast(self, expr: ast.CastExpr) -> Lowered:
        operand = self.lower(expr.operand)
        type_name, allow_empty = expr.type_name, expr.allow_empty

        def cast(ctx):
            values = atomize(operand(ctx))
            if not values:
                if allow_empty:
                    return []
                raise XQueryTypeError("cast of empty sequence",
                                      code="XPTY0004")
            return [atomic.cast(singleton(values, "cast"), type_name)]
        return cast

    def _castable(self, expr: ast.CastableExpr) -> Lowered:
        operand = self.lower(expr.operand)
        type_name, allow_empty = expr.type_name, expr.allow_empty

        def castable(ctx):
            values = atomize(operand(ctx))
            if not values:
                return [atomic.boolean(allow_empty)]
            if len(values) > 1:
                return [atomic.boolean(False)]
            return [atomic.boolean(atomic.castable(values[0], type_name))]
        return castable

    def _instance_of(self, expr: ast.InstanceOfExpr) -> Lowered:
        operand, sequence_type = self.lower(expr.operand), expr.sequence_type
        return lambda ctx: [atomic.boolean(
            _matches_sequence_type(operand(ctx), sequence_type))]

    def _treat(self, expr: ast.TreatExpr) -> Lowered:
        operand, sequence_type = self.lower(expr.operand), expr.sequence_type

        def treat(ctx):
            items = operand(ctx)
            if not _matches_sequence_type(items, sequence_type):
                raise XQueryDynamicError(
                    f"treat as {sequence_type.item_type}"
                    f"{sequence_type.occurrence} failed", code="XPDY0050")
            return items
        return treat

    # -- function calls ------------------------------------------------------

    def _function_call(self, expr: ast.FunctionCall) -> Lowered:
        key = (expr.name.uri, expr.name.local, len(expr.args))
        user_function = self.prolog.functions.get(key)
        if user_function is not None:
            return self._user_call(key, user_function, expr)
        definition = lookup_function(expr.name.uri, expr.name.local)
        if definition is None:
            return _fail(XQueryStaticError,
                         f"unknown function {expr.name}", "XPST0017")
        if not definition.min_args <= len(expr.args) <= definition.max_args:
            return _fail(XQueryStaticError,
                         f"wrong number of arguments for {expr.name}: "
                         f"{len(expr.args)}", "XPST0017")
        impl = definition.impl
        args = [self.lower(argument) for argument in expr.args]
        if len(args) == 1:
            only = args[0]
            return lambda ctx: impl(ctx, [only(ctx)])
        return lambda ctx: impl(ctx, [argument(ctx) for argument in args])

    def _user_call(self, key: tuple, function: ast.UserFunction,
                   expr: ast.FunctionCall) -> Lowered:
        """Invoke a prolog-declared function.

        The body sees only the parameter bindings (no outer variables,
        no focus), per the XQuery scoping rules.
        """
        params = [(name, param_type, self.lower(argument))
                  for (name, param_type), argument
                  in zip(function.params, expr.args)]
        bodies = self.bodies
        name, return_type = function.name, function.return_type

        def call(ctx):
            variables: dict[str, list[Item]] = {}
            for param_name, param_type, argument in params:
                value = argument(ctx)
                if param_type is not None and \
                        not _matches_sequence_type(value, param_type):
                    raise XQueryTypeError(
                        f"argument ${param_name} of {name} does "
                        f"not match {param_type.item_type}"
                        f"{param_type.occurrence}", code="XPTY0004")
                variables[param_name] = value
            try:
                result = bodies[key](DynamicContext(
                    variables, database=ctx.database, stats=ctx.stats))
            except RecursionError:
                raise XQueryDynamicError(
                    f"recursion limit exceeded in {name}",
                    code="XQDY0002") from None
            if return_type is not None and \
                    not _matches_sequence_type(result, return_type):
                raise XQueryTypeError(
                    f"result of {name} does not match declared "
                    f"return type", code="XPTY0004")
            return result
        return call

    # -- FLWOR ---------------------------------------------------------------

    def _flwor(self, expr: ast.FLWORExpr) -> Lowered:
        # The tuple stream is where runaway queries burn their time, so
        # the per-query guard (deadlines, row budgets — see
        # :mod:`repro.xquery.guard`) is consulted here: every for-clause
        # binding ticks the deadline, and the materialized return
        # sequence is checked against the row limit as it grows.  Each
        # clause becomes a stage: the tuple contexts in, the next out.
        plan = (plan_flwor(expr, self.prolog) if self.plan_joins
                else _LOOPS_ONLY)
        stages = []
        order_by = None
        clauses = expr.clauses
        index = 0
        while index < len(clauses):
            clause = clauses[index]
            index += 1
            if isinstance(clause, ast.ForClause):
                join = plan.joins.get(index - 1)
                fold = plan.folds.get(index - 1)
                if join is not None:
                    # The where clause right after is applied by the join.
                    stages.append(self._hash_join(join, clause.expr,
                                                  clauses[index].expr))
                    index += 1
                elif fold is not None:
                    # ... or by the predicate folded into the sequence.
                    self.stands_for[id(fold.predicate)] = fold.comparison
                    stages.append(self._for(fold.clause,
                                            index - 1 in plan.invariant))
                    index += 1
                else:
                    stages.append(self._for(clause,
                                            index - 1 in plan.invariant))
            elif isinstance(clause, ast.LetClause):
                stages.append(self._let(clause))
            elif isinstance(clause, ast.WhereClause):
                stages.append(self._where(clause))
            elif isinstance(clause, ast.OrderByClause):
                order_by = self._order_by(clause)
        if order_by is not None:
            stages.append(order_by)
        return_expr = self.lower(expr.return_expr)

        def flwor(ctx):
            guard = active_guard()
            contexts = [ctx]
            for stage in stages:
                contexts = stage(contexts, guard)
            result: list[Item] = []
            for tuple_ctx in contexts:
                result.extend(return_expr(tuple_ctx))
                if guard is not None:
                    guard.tick()
                    guard.check_items(len(result))
            return result
        return flwor

    def _for(self, clause: ast.ForClause, invariant: bool):
        sequence = self.lower(clause.expr)
        var, position_var = clause.var, clause.position_var

        def for_clause(contexts, guard):
            next_contexts = []
            items = None
            for tuple_ctx in contexts:
                if items is None or not invariant:
                    items = sequence(tuple_ctx)
                if guard is not None:
                    guard.tick(len(items) + 1)
                for position, item in enumerate(items, start=1):
                    bound = tuple_ctx.bind(var, [item])
                    if position_var:
                        bound = bound.bind(position_var,
                                           [atomic.integer(position)])
                    next_contexts.append(bound)
            return next_contexts
        return for_clause

    def _let(self, clause: ast.LetClause):
        value, var = self.lower(clause.expr), clause.var
        return lambda contexts, guard: [
            tuple_ctx.bind(var, value(tuple_ctx)) for tuple_ctx in contexts]

    def _where(self, clause: ast.WhereClause):
        test = self.test(clause.expr)
        return lambda contexts, guard: [
            tuple_ctx for tuple_ctx in contexts if test(tuple_ctx)]

    def _hash_join(self, join: HashJoin, inner_expr: ast.Expr,
                   where_expr: ast.Expr):
        """``for $var in inner where …`` by hashing
        (:mod:`repro.xquery.joins`): the tuples, in the order, the
        nested loop followed by the where clause produces."""
        inner, where = self.lower(inner_expr), self.test(where_expr)
        build_key = self.lower(join.build_key)
        probe_key = self.lower(join.probe_key)
        var, position_var = join.var, join.position_var
        general, key_only = join.general, join.key_only
        note = (f"hash join for ${var} on the where clause's "
                f"leading {'=' if general else 'eq'}")

        def undecided(probe, build):
            return keys_may_raise(probe, build, general)

        def hash_join(contexts, guard):
            if not contexts:
                return []
            stats = contexts[0].stats
            if stats is not None and note not in stats.plan_notes:
                stats.note(note)
            # Loop-invariant: any outer tuple evaluates it the same way.
            items = inner(contexts[0])
            if not items:
                return []

            def bind(tuple_ctx, slot):
                bound = tuple_ctx.bind(var, [items[slot]])
                if position_var:
                    bound = bound.bind(position_var,
                                       [atomic.integer(slot + 1)])
                return bound

            if guard is not None:
                guard.tick(len(items) + 1)
            table = JoinTable(undecided)
            for slot in range(len(items)):
                try:
                    keys, flags = equality_keys(
                        build_key(bind(contexts[0], slot)), general,
                        build=True)
                except XQueryError:
                    keys, flags = (), KEY_OTHER
                table.add(slot, flags, keys)

            joined: list[DynamicContext] = []
            for tuple_ctx in contexts:
                try:
                    keys, flags = equality_keys(probe_key(tuple_ctx),
                                                general, build=False)
                except XQueryError:
                    keys, flags = (), KEY_OTHER
                slots, decided = table.probe(flags, keys)
                if guard is not None:
                    guard.tick(len(slots) + 1)
                for slot in slots:
                    bound = bind(tuple_ctx, slot)
                    if (key_only and slot in decided) or where(bound):
                        joined.append(bound)
            return joined
        return hash_join

    def _order_by(self, clause: ast.OrderByClause):
        keys = [self.lower(spec.expr) for spec in clause.specs]
        specs = clause.specs

        def compare(left, right) -> int:
            for index, spec in enumerate(specs):
                result = _compare_order_keys(left[0][index],
                                             right[0][index],
                                             spec.empty_greatest)
                if result:
                    return -result if spec.descending else result
            return 0
        sort_key = functools.cmp_to_key(compare)

        def order_by(contexts, guard):
            keyed: list[tuple[list, DynamicContext]] = []
            for tuple_ctx in contexts:
                if guard is not None:
                    guard.tick()
                row: list[AtomicValue | None] = []
                for key in keys:
                    values = atomize(key(tuple_ctx))
                    if len(values) > 1:
                        raise XQueryTypeError("order by key must be a "
                                              "singleton", code="XPTY0004")
                    row.append(values[0] if values else None)
                keyed.append((row, tuple_ctx))
            keyed.sort(key=sort_key)
            return [tuple_ctx for _row, tuple_ctx in keyed]
        return order_by

    # -- paths ------------------------------------------------------------

    def _path(self, expr: ast.PathExpr) -> Lowered:
        start, lookup, applied, consumed, elements = self._path_parts(expr)
        after_summary = applied[consumed:]

        def path(ctx):
            items = start(ctx)
            steps_left = applied
            # Cheap pre-check: relative paths inside predicates see
            # element contexts thousands of times.
            if lookup is not None and items and (
                    type(items[0]) is DocumentNode
                    or elements and type(items[0]) is ElementNode):
                found = lookup(items, ctx)
                if found is not None:
                    items, steps_left = found, after_summary
            for apply in steps_left:
                items = apply(items, ctx)
            return items
        return path

    def _each(self, expr: ast.Expr) -> tuple | None:
        """(variable, ``each``) when ``expr`` is ``P`` or ``$variable/P``
        with a summary lookup and no other variable: ``each(contexts,
        ctx)`` answers the lookup for all contexts at once, from
        untyped stores only, and runs the remaining steps per
        context."""
        if not isinstance(expr, ast.PathExpr) or expr.absolute:
            return None
        first, variable = expr.steps[0], None
        if isinstance(first, ast.ExprStep):
            if first.predicates or not isinstance(first.expr, ast.VarRef):
                return None
            variable = first.expr.name
        references = sum(isinstance(node, ast.VarRef)
                         for node in ast.walk(expr))
        if references != (0 if variable is None else 1):
            return None
        _start, lookup, applied, consumed, _elements = \
            self._path_parts(expr)
        if lookup is None:
            return None
        after = applied[consumed:]

        def each(contexts, ctx):
            if not contexts:
                return []
            found = lookup(contexts, ctx, True)
            if found is None or not after:
                return found
            results = []
            for nodes in found:
                for apply in after:
                    nodes = apply(nodes, ctx)
                results.append(nodes)
            return results
        return variable, each

    def _path_parts(self, expr: ast.PathExpr) -> tuple:
        """(start, lookup, steps, consumed, elements) of a path:
        ``start(ctx)`` the initial context items, ``steps`` the lowered
        steps after them, and ``lookup(items, ctx, each=False)`` (None
        without a summary matcher) answering the first ``consumed`` of
        them from the path partitions (:func:`_summary_lookup`), from
        element contexts too where ``elements`` or ``each``."""
        steps, matcher, consumed, predicates, column = _path_plan(expr)
        if expr.absolute:
            start = _context_root
        elif isinstance(expr.steps[0], ast.ExprStep):
            # A relative path's leading primary (``$ord``, a call, ...).
            first = expr.steps[0]
            leading = self._filtered(first.expr, first.predicates)

            def start(ctx):
                return _step_result(leading(ctx))
        else:
            start = _focus
        applied = [self._axis_step(step) if isinstance(step, ast.AxisStep)
                   else self._expr_step(step) for step in steps]
        if matcher is None:
            return start, None, applied, 0, False
        summary_filter = self._predicates(predicates)
        decide = None
        if column is not None:
            *plan, comparison = column
            decide = _column_predicate(
                *plan, self.stands_for.get(id(comparison), comparison))

        # Stored documents are looked up in both lowerings; stored
        # elements in a batch, and where the lookup replaces node-by-node
        # predicate work in the ``plan_joins`` lowering, so
        # ``use_indexes=False`` keeps the node-by-node reference.
        elements = decide is not None and self.plan_joins

        def lookup(items, ctx, each=False):
            return _summary_lookup(matcher, summary_filter, decide, items,
                                   ctx, elements or each, each)
        return start, lookup, applied, consumed, elements

    def _axis_step(self, step: ast.AxisStep):
        select = _node_selector(step.axis, step.test)
        filters = self._predicates(step.predicates)
        keeps_order = step.axis in _SORTED_SINGLE_AXES

        def axis_step(items, ctx):
            guard = active_guard()
            if guard is not None:
                # Axis scans over wide context sequences are the other
                # place a deadline must be able to interrupt.
                guard.tick(len(items) + 1)
            collected: list[Node] = []
            for item in items:
                if not isinstance(item, Node):
                    raise XQueryTypeError(
                        "axis step applied to an atomic value",
                        code="XPTY0020")
                matched = select(item)
                if filters is not None:
                    matched = filters(matched, ctx)
                collected.extend(matched)
            if keeps_order and len(items) == 1:
                # One context node + an order-preserving axis: the
                # result is already sorted and duplicate-free.
                return collected
            return document_order(collected)
        return axis_step

    def _expr_step(self, step: ast.ExprStep):
        evaluate = self._filtered(step.expr, step.predicates)

        def expr_step(items, ctx):
            size = len(items)
            guard = active_guard()
            if guard is not None:
                # Expression steps re-evaluate per context item; a
                # deadline must be able to interrupt wide sequences.
                guard.tick(size + 1)
            results: list[Item] = []
            for position, item in enumerate(items, start=1):
                results.extend(evaluate(ctx.with_focus(item, position,
                                                       size)))
            return _step_result(results)
        return expr_step

    def _predicates(self, predicates: list[ast.Expr]):
        """``filter(items, ctx)`` applying ``predicates`` in turn, or
        None when there are none."""
        passes = [self._predicate(predicate) for predicate in predicates]
        if len(passes) < 2:
            return passes[0] if passes else None

        def filter_all(items, ctx):
            for apply in passes:
                items = apply(items, ctx)
            return items
        return filter_all

    def _predicate(self, predicate: ast.Expr):
        if isinstance(predicate, ast.Literal) and predicate.value.is_numeric:
            wanted = _literal_position(predicate.value)

            def test(focused):
                return focused.position == wanted
        elif isinstance(predicate, _BOOLEAN_PREDICATE_TYPES):
            # Never a numeric position: the test is the predicate.
            test = self.test(predicate)
        else:
            evaluate = self.lower(predicate)

            def test(focused):
                return _predicate_truth(evaluate(focused), focused.position)

        def predicate_filter(items, ctx):
            size = len(items)
            guard = active_guard()
            if guard is not None:
                # Each predicate pass evaluates an expression per item.
                guard.tick(size + 1)
            return [item for position, item in enumerate(items, start=1)
                    if test(ctx.with_focus(item, position, size))]
        return predicate_filter

    def _filter(self, expr: ast.FilterExpr) -> Lowered:
        return self._filtered(expr.primary, expr.predicates)

    def _filtered(self, expr: ast.Expr, predicates: list[ast.Expr]
                  ) -> Lowered:
        """``expr`` with ``predicates`` applied to its result."""
        evaluate = self.lower(expr)
        filters = self._predicates(predicates)
        if filters is None:
            return evaluate
        return lambda ctx: filters(evaluate(ctx), ctx)

    # -- constructors -------------------------------------------------------

    def _direct_element(self, expr: ast.DirectElementConstructor
                        ) -> Lowered:
        scope = dict(self.prolog.namespaces)
        default_ns = self.prolog.default_element_namespace
        for prefix, uri in expr.namespace_declarations.items():
            if prefix == "":
                default_ns = uri
            else:
                scope[prefix] = uri
        try:
            name = _resolve_constructor_name(expr.name, scope, default_ns)
        except XQueryStaticError:
            return _unresolved(expr.name, scope, default_ns)
        # (name, value) per attribute up to the first whose name fails;
        # its error is raised after the earlier values are built.
        attributes: list[tuple[QName, Callable]] = []
        failure = None
        for attribute_name, template in expr.attributes:
            try:
                qname = _resolve_constructor_name(attribute_name, scope,
                                                  default_ns="")
            except XQueryStaticError:
                failure = _unresolved(attribute_name, scope, "")
                break
            if qname in (seen for seen, _value in attributes):
                failure = _fail(XQueryDynamicError,
                                f"duplicate attribute {attribute_name!r}",
                                "XQDY0025")
                break
            attributes.append((qname, self._template(template)))
        content = [_text_piece(piece) if isinstance(piece, str)
                   else self.lower(piece) for piece in expr.content]
        preserve = self.preserve

        def element(ctx):
            built = [AttributeNode(qname, value(ctx))
                     for qname, value in attributes]
            if failure is not None:
                failure(ctx)
            content_items: list[Item] = []
            for piece in content:
                content_items.extend(piece(ctx))
            return [_build_element(name, built, content_items, scope,
                                   preserve)]
        return element

    def _template(self, template: ast.AttributeValueTemplate):
        parts = [part if isinstance(part, str) else self.lower(part)
                 for part in template.parts]
        return lambda ctx: "".join(
            part if isinstance(part, str)
            else " ".join(value.string_value() for value in atomize(part(ctx)))
            for part in parts)

    def _computed_name(self, name, default_ns: str, what: str):
        """A constructor's name: resolved now when lexical (an error
        deferred to run time), per run when computed."""
        scope = dict(self.prolog.namespaces)
        if isinstance(name, str):
            try:
                resolved = _resolve_constructor_name(name, scope,
                                                     default_ns)
            except XQueryStaticError:
                return _unresolved(name, scope, default_ns)
            return lambda ctx: resolved
        evaluate = self.lower(name)
        return lambda ctx: _resolve_constructor_name(
            singleton(atomize(evaluate(ctx)), what).string_value(), scope,
            default_ns)

    def _content(self, expr: ast.Expr | None) -> Lowered:
        return self.lower(expr) if expr is not None else (lambda ctx: [])

    def _computed_element(self, expr: ast.ComputedElementConstructor
                          ) -> Lowered:
        name = self._computed_name(
            expr.name, self.prolog.default_element_namespace,
            "element name")
        content = self._content(expr.content)
        scope, preserve = dict(self.prolog.namespaces), self.preserve
        return lambda ctx: [_build_element(name(ctx), [], content(ctx),
                                           scope, preserve)]

    def _computed_attribute(self, expr: ast.ComputedAttributeConstructor
                            ) -> Lowered:
        name = self._computed_name(expr.name, "", "attribute name")
        content = self._content(expr.content)
        return lambda ctx: [AttributeNode(name(ctx), " ".join(
            value.string_value() for value in atomize(content(ctx))))]

    def _computed_text(self, expr: ast.ComputedTextConstructor) -> Lowered:
        content = self.lower(expr.content)

        def text(ctx):
            values = atomize(content(ctx))
            if not values:
                return []
            return [TextNode(" ".join(value.string_value()
                                      for value in values))]
        return text

    def _computed_document(self, expr: ast.ComputedDocumentConstructor
                           ) -> Lowered:
        content, preserve = self.lower(expr.content), self.preserve

        def document(ctx):
            node = DocumentNode()
            for item in content(ctx):
                if isinstance(item, AtomicValue):
                    node.append_child(TextNode(item.string_value()))
                elif item.kind == "document":
                    for child in item.children:
                        node.append_child(copy_node(child, preserve))
                elif item.kind == "attribute":
                    raise XQueryTypeError(
                        "attribute node in document constructor",
                        code="XPTY0004")
                else:
                    node.append_child(copy_node(item, preserve))
            return [node]
        return document


_LOWER = {
    ast.Literal: _Lowering._literal, ast.VarRef: _Lowering._var_ref,
    ast.ContextItem: _Lowering._context_item,
    ast.SequenceExpr: _Lowering._sequence, ast.RangeExpr: _Lowering._range,
    ast.OrExpr: _Lowering._boolean, ast.AndExpr: _Lowering._boolean,
    ast.QuantifiedExpr: _Lowering._boolean,
    ast.GeneralComparison: _Lowering._boolean,
    ast.ValueComparison: _Lowering._comparison,
    ast.NodeComparison: _Lowering._comparison,
    ast.IfExpr: _Lowering._if, ast.TypeswitchExpr: _Lowering._typeswitch,
    ast.Arithmetic: _Lowering._arithmetic,
    ast.UnaryMinus: _Lowering._unary_minus, ast.SetExpr: _Lowering._set,
    ast.CastExpr: _Lowering._cast, ast.CastableExpr: _Lowering._castable,
    ast.InstanceOfExpr: _Lowering._instance_of,
    ast.TreatExpr: _Lowering._treat,
    ast.FunctionCall: _Lowering._function_call,
    ast.FLWORExpr: _Lowering._flwor, ast.PathExpr: _Lowering._path,
    ast.FilterExpr: _Lowering._filter,
    ast.DirectElementConstructor: _Lowering._direct_element,
    ast.ComputedElementConstructor: _Lowering._computed_element,
    ast.ComputedAttributeConstructor: _Lowering._computed_attribute,
    ast.ComputedTextConstructor: _Lowering._computed_text,
    ast.ComputedDocumentConstructor: _Lowering._computed_document,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _quantify(var: str, sequence: Lowered, satisfies, some: bool):
    """One ``some``/``every`` binding over ``sequence``; ``satisfies``
    is the next binding's closure, or the satisfies test."""
    def quantify(ctx) -> bool:
        items = sequence(ctx)
        guard = active_guard()
        for item in items:
            if guard is not None:
                guard.tick()
            if satisfies(ctx.bind(var, [item])) == some:
                return some
        return not some
    return quantify


def _focus(ctx: DynamicContext) -> list[Item]:
    return [ctx.require_context_item()]


def _context_root(ctx: DynamicContext) -> list[Node]:
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
    return [root]


def _text_piece(text: str) -> Lowered:
    return lambda ctx: [TextNode(text)]


def _node_sequence(items: list[Item], operation: str) -> list[Node]:
    # sa: ok(SA406: isinstance check only; the operand's closure ticked)
    for item in items:
        if not isinstance(item, Node):
            raise XQueryTypeError(
                f"{operation} operand must be nodes", code="XPTY0004")
    return items  # type: ignore[return-value]


def _step_result(results: list[Item]) -> list[Item]:
    """A step's output: nodes in document order, or atomics as they
    came; a mix is an error."""
    if len(results) < 2:
        return results
    node_count = sum(1 for item in results if isinstance(item, Node))
    if node_count == len(results):
        return document_order(results)  # type: ignore[arg-type]
    if node_count:
        raise XQueryTypeError(
            "path step mixes nodes and atomic values", code="XPTY0018")
    return results


def _summary_lookup(matcher, summary_filter, decide, items: list[Item],
                    ctx, elements: bool, each: bool = False):
    """Answer a path's leading step chain from path tables: the nodes
    as one path result, or, ``each`` (a batch: :func:`evaluate_each`),
    one node list per context item.

    When every context item is a live node of a column store (its
    current materialization) — a document, or, where ``elements``
    allows, an element of an untyped store — the nodes matching the
    path's compiled prefix (:func:`_path_plan`) below it come straight
    from the store's path partitions, an element's subtree being one
    slot range of each
    (:meth:`~repro.storage.columnar.ColumnStore.nodes_for`) — no
    subtree walk.  None on any doubt: the generic pipeline runs.  A
    batch takes untyped stores only.  When the consumed predicates have
    a column plan, ``decide`` answers them per context, an untyped
    store on its partitions (:func:`_column_predicate`); otherwise, or
    when it declines, ``summary_filter`` evaluates them node by node,
    context by context as the predicate of an axis step does (all of
    a path's documents at once: they never nest, so that is the same).

    Documents never nest, so their nodes concatenate in document
    order; an element context may hold another one (``//a`` inside
    ``//a``), so theirs are put in document order without duplicates.
    """
    stores = []
    nested = False
    # sa: ok(SA406: one store lookup per context node; bails early)
    for item in items:
        store = _column_store_for(item)
        if store is None:
            return None
        if item._order[1]:
            if not (elements and store.untyped and item.kind == "element"):
                return None
            nested = True
        elif each and not store.untyped:
            return None
        stores.append(store)
    slots = [item._order[1] for item in items] if nested else None
    if ctx.stats is not None:
        ctx.stats.summary_lookups += 1
    if METRICS.enabled:
        METRICS.inc("pathsummary.hits")
        if nested:
            METRICS.inc("pathsummary.element_lookups")
    found = None
    if decide is not None:
        found = decide(stores, slots, ctx, lambda store, slot:
                       summary_filter(store.nodes_for(matcher, slot), ctx))
    if found is None:
        if not (each or nested):
            nodes = []
            for store in stores:
                nodes.extend(store.nodes_for(matcher))
            return nodes if summary_filter is None \
                else summary_filter(nodes, ctx)
        found = [store.nodes_for(matcher, slot)
                 for store, slot in zip(stores, slots or repeat(0))]
        if summary_filter is not None:
            found = [summary_filter(nodes, ctx) for nodes in found]
    if each:
        return found
    if len(found) == 1:
        return found[0]
    nodes = []
    for part in found:
        nodes.extend(part)
    return document_order(nodes) if nested else nodes


def _node_selector(axis: str, test: ast.NodeTest):
    """``select(node)``: the nodes ``axis::test`` reaches from ``node``;
    a name test on the child or attribute axis (the two hottest
    shapes) is inlined."""
    if isinstance(test, ast.NameTest) and axis == "child":
        return lambda node: [child for child in node.children
                             if child.kind == "element"
                             and test.matches(child.name)]
    if isinstance(test, ast.NameTest) and axis == "attribute":
        return lambda node: [attribute for attribute in node.attributes
                             if test.matches(attribute.name)]
    return lambda node: [candidate for candidate in _axis_nodes(node, axis)
                         if _test_matches(test, candidate, axis)]


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


def _build_element(name: QName, attributes: list[AttributeNode],
                   content_items: list[Item], scope: dict[str, str],
                   preserve: bool) -> ElementNode:
    """Assemble a new element per the §3.6 construction rules."""
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


def _unresolved(lexical: str, scope: dict[str, str],
                default_ns: str) -> Lowered:
    """A closure raising the name's resolution error when it runs."""
    return lambda ctx: _resolve_constructor_name(lexical, scope, default_ns)


def _predicate_truth(values: list[Item], position: int) -> bool:
    if (len(values) == 1 and isinstance(values[0], AtomicValue)
            and values[0].is_numeric):
        return compare_atoms("eq", [atomic.integer(position)], values)
    return effective_boolean_value(values)


def _literal_position(value: AtomicValue) -> int:
    """The one position a numeric literal predicate selects, or 0."""
    try:
        position = int(value.value)
    except (ValueError, OverflowError):  # NaN, INF
        return 0
    if position < 1 or not _predicate_truth([value], position):
        return 0
    return position


def _non_positional(predicate: ast.Expr) -> bool:
    """Can ``predicate`` be applied to a merged node list instead of
    per-context?  Requires a result that is never a number (a boolean,
    or the nodes of a path ending in an axis step — never a position
    shorthand) and no position()/last() anywhere inside."""
    if not (isinstance(predicate, _BOOLEAN_PREDICATE_TYPES)
            or (isinstance(predicate, ast.PathExpr) and predicate.steps
                and isinstance(predicate.steps[-1], ast.AxisStep))):
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


def _column_predicate(matcher, up: int, strict: bool, bounds: tuple,
                      comparison: ast.Expr):
    """``decide(stores, slots, ctx, generic)``: per context (a slot of
    a store; ``slots`` None: each store's document), the nodes of a
    summary lookup whose consumed predicate is ``[rel op operand]`` or
    a between pair ``[rel op operand and rel op operand]`` over a
    singleton ``rel`` (:func:`_column_plan`; ``bounds`` holds each
    ``(op, operand)``), decided on the store's columns inside the
    slot's subtree
    (:meth:`~repro.storage.columnar.ColumnStore.nodes_where`), or None
    where the generic route must run: an operand that is not one atom
    comparing with untyped values as xs:double or as strings (both as
    the same).  A typed store, or an untyped one where a value
    comparison would raise, runs ``generic(store, slot)``, the predicate
    node by node; the predicate is non-positional, so filtering context
    by context, in document order, answers and raises as the axis step
    does.  Literal operands are promoted once, here; a variable once
    per lookup.

    When an index probe planned for ``comparison`` (the predicate, the
    where clause it was folded from, or a pair's lower bound) has an
    exact verdict, the document contexts of the probed column's
    surviving documents are answered from its entries
    (:func:`_node_answers`,
    :meth:`~repro.storage.columnar.ColumnStore.nodes_at`) without
    reading a partition; any other context runs the kernel, so does one
    on which the index facts say the comparison may raise."""
    key = id(comparison)
    answerable = all(isinstance(operand, ast.Literal)
                     for _op, operand in bounds)

    def resolve(ctx) -> tuple[bool, list] | None:
        """(numeric, [(test, promoted operand)]) of the bounds."""
        numeric, tests = None, []
        for op, operand in bounds:
            if isinstance(operand, ast.Literal):
                atoms = [operand.value]
            else:
                try:
                    atoms = atomize(ctx.lookup(operand.name))
                except XQueryError:
                    return None
            promoted = _column_operand(atoms)
            if promoted is None or numeric not in (None, promoted[0]):
                return None
            numeric = promoted[0]
            tests.append((_OPS[op], promoted[1]))
        return numeric, tests

    if answerable:
        fixed = resolve(None)
        if fixed is None:
            return None

        def resolve(ctx):
            return fixed

    def decide(stores, slots, ctx, generic) -> list[list[Node]] | None:
        promoted = resolve(ctx)
        if promoted is None:
            return None
        numeric, tests = promoted
        answers = (_node_answers(ctx.database, key, matcher)
                   if answerable else None)
        guard = active_guard()
        found: list[list[Node]] = []
        on_columns = True
        if slots is None:
            groups = zip(stores, repeat(_DOCUMENT))
        elif len(slots) == 1:
            groups = ((stores[0], slots),)
        else:
            groups = _groups(stores, slots)
        for store, group in groups:
            decided = None
            if store.untyped:
                node_ids = (None if answers is None or group[0]
                            else answers.get(store.node_ids[0]))
                if node_ids is not None:
                    if guard is not None:
                        guard.tick(len(node_ids) + 1)
                    decided = store.nodes_at(node_ids, up)
                    if decided is not None:
                        decided = [decided]
                        if METRICS.enabled:
                            METRICS.inc("index.node_answers")
                if decided is None:
                    decided = store.nodes_where(matcher, up, numeric, tests,
                                                strict, guard, group)
            if decided is None:
                on_columns = False
                decided = [generic(store, slot) for slot in group]
            found.extend(decided)
        if on_columns and METRICS.enabled:
            METRICS.inc("pathsummary.column_predicates")
        return found
    return decide


#: The slots of a document context: its own, the whole store.
_DOCUMENT = (0,)


def _groups(stores: list, slots: list[int]) -> list[tuple]:
    """``(store, slots)`` runs of lookup contexts in order: element
    contexts of one store and one path in document order (none holds
    another) share a run, which the kernel decides in one pass; a
    document is a run of its own."""
    groups: list[tuple] = []
    previous = None
    last = 0
    for store, slot in zip(stores, slots):
        if slot and store is previous and slot > last and \
                store.path_id[slot] == store.path_id[last]:
            groups[-1][1].append(slot)
        else:
            groups.append((store, [slot]))
        previous, last = store, slot
    return groups


def _node_answers(database, key: int, matcher) -> dict | None:
    """Document node id -> ascending node ids of the nodes an exact
    index verdict selected, per surviving document of the probed
    column, for the comparison whose ``id`` (its candidates'
    ``comparison_id``) is ``key`` — when ``database`` is a prefiltered
    view holding them for ``matcher``'s path
    (:meth:`repro.planner.plan.PrefilteredDatabase.node_answers`)."""
    lookup = getattr(database, "node_answers", None)
    return None if lookup is None else lookup(key, matcher.pattern)


def _column_operand(atoms: list[AtomicValue]) -> tuple[bool, object] | None:
    """(numeric, promoted value) of a comparison operand against
    untyped node values, or None unless ``atoms`` is one atom that
    compares with them as xs:double or as a string (as an untyped atom
    does)."""
    if len(atoms) != 1:
        return None
    target = comparison_type(T_UNTYPED, atoms[0].type_name)
    if target not in (T_DOUBLE, T_STRING, T_UNTYPED):
        return None
    return target == T_DOUBLE, promote(atoms[0], target)


def _path_plan(expr: ast.PathExpr) -> tuple:
    """(steps after the initial context, summary matcher or None, steps
    it consumes, predicates of its last step, column plan or None) for
    ``expr``, computed once when the path is lowered."""
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
    if not consumed:
        return steps, None, 0, predicates, None
    return (steps, _linear_matcher(pattern_steps), consumed, predicates,
            _column_plan(pattern_steps, predicates))


def _linear_matcher(pattern_steps):
    from ..core.patterns import LinearPattern, PathPattern, matcher_for
    return matcher_for(PathPattern((LinearPattern(tuple(pattern_steps)),)))


def _column_plan(pattern_steps: list, predicates: list) -> tuple | None:
    """``(matcher, up, strict, bounds, comparison)`` — the arguments of
    :func:`_column_predicate` — when ``predicates`` is one predicate of
    a :func:`_predicate_shape`, its ``rel`` ending on an element or
    attribute.  ``matcher`` matches the prefix's path followed by
    ``rel``, and ``up`` is ``rel``'s length."""
    if len(predicates) != 1:
        return None
    shape = _predicate_shape(predicates[0])
    if shape is None:
        return None
    rel_steps, strict, bounds, comparison = shape
    steps = list(pattern_steps) + rel_steps
    if steps[-1].test.kind not in ("element", "attribute"):
        return None
    return (_linear_matcher(steps), len(rel_steps), strict, bounds,
            comparison)


def _predicate_shape(predicate: ast.Expr) -> tuple | None:
    """``(rel pattern steps, strict, bounds, comparison)`` of a
    predicate the column kernel decides, or None:

    * ``rel op operand``, a general or value comparison of ``rel``
      with a literal or a variable, ``rel`` being ``.`` or child and
      attribute name-test steps without predicates;
    * ``rel op operand and rel op operand``, a lower (``> >= gt ge``)
      and an upper bound, both general or both value comparisons, over
      one ``rel`` that is a singleton when they are general
      (:func:`repro.core.between.one_node`: ``.`` or one attribute
      step naming one QName): a node passes both exactly when its one
      value does;
    * ``step[P]``, one child or attribute name-test step over such a
      ``P`` of general comparisons: ``step`` joins ``rel``.

    ``strict`` marks value comparisons, ``bounds`` holds each
    comparison's ``(op, operand)``, and ``comparison`` is the one an
    exact index probe keys its node answers by (a pair's lower bound:
    the planner pairs the two into one range scan, and only that scan
    answers nodes for either)."""
    if isinstance(predicate, ast.PathExpr):
        step = predicate.steps[0] if len(predicate.steps) == 1 else None
        if predicate.absolute or not (
                isinstance(step, ast.AxisStep)
                and step.axis in ("child", "attribute")
                and isinstance(step.test, ast.NameTest)
                and len(step.predicates) == 1):
            return None
        inner = _predicate_shape(step.predicates[0])
        if inner is None or inner[1]:
            # A value comparison raises per ``step`` node, which a
            # lookup of ``step``'s parent does not see.
            return None
        rel_steps, strict, bounds, comparison = inner
        return ([*_pattern_steps([step]), *rel_steps], strict, bounds,
                comparison)
    if isinstance(predicate, ast.AndExpr):
        from ..core.between import LOWER_OPS, UPPER_OPS, one_node
        pair = [_comparison_shape(side)
                for side in (predicate.left, predicate.right)]
        if None in pair:
            return None
        pair.sort(key=lambda shape: shape[2][0] not in LOWER_OPS)
        (rel_steps, strict, low, lower), (other_steps, other_strict,
                                          high, _upper) = pair
        if strict != other_strict or low[0] not in LOWER_OPS or \
                high[0] not in UPPER_OPS or \
                not (strict or one_node(rel_steps)):
            return None
        steps = _pattern_steps(rel_steps)
        if steps != _pattern_steps(other_steps):
            return None
        return steps, strict, (low, high), lower
    shape = _comparison_shape(predicate)
    if shape is None:
        return None
    rel_steps, strict, bound, comparison = shape
    return _pattern_steps(rel_steps), strict, (bound,), comparison


def _pattern_steps(steps) -> list:
    from ..core.patterns import PatternStep
    return [PatternStep(_summary_step_test(step)) for step in steps]


def _comparison_shape(predicate: ast.Expr) -> tuple | None:
    """``(rel axis steps, strict, (op, operand), predicate)`` of a
    comparison ``rel op operand`` (:func:`_predicate_shape`), ``op``
    as a value comparison with ``rel`` on its left; else None."""
    kind = type(predicate)
    if kind is ast.GeneralComparison:
        op = GENERAL_TO_VALUE[predicate.op]
    elif kind is ast.ValueComparison:
        op = predicate.op
    else:
        return None
    rel, operand = predicate.left, predicate.right
    if isinstance(rel, (ast.Literal, ast.VarRef)):
        rel, operand, op = operand, rel, MIRRORED[op]
    if not isinstance(operand, (ast.Literal, ast.VarRef)):
        return None
    shape = ast.rel_path(rel)
    if shape is None or shape.var is not None or shape.cast \
            or shape.filtered:
        return None
    return (shape.steps, kind is ast.ValueComparison, (op, operand),
            predicate)


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
    constructed and evicted trees, which keep the object-walk paths)."""
    global _store_for_node
    if _store_for_node is None:
        from ..storage.columnar import store_for_node
        _store_for_node = store_for_node
    return _store_for_node(node)


_store_for_node = None


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
