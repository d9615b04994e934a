"""Abstract interpretation of XQuery: static types, bounds, constants.

The interpreter walks an XQuery AST once, assigning every
subexpression a :class:`repro.static.types.SeqType`.  Three knowledge
sources sharpen the verdicts beyond pure syntax:

* **the function registry and prolog** — unknown functions and
  variables become ``SE002``/``SE003`` static errors, mirroring the
  evaluator's runtime ``XPST0017``/``XPST0008``;
* **registered schemas** (:mod:`repro.schema`) — a path whose tail
  matches a type declaration atomizes to that ``xs:*`` type instead of
  ``xdt:untypedAtomic``, so schema-typed comparisons get concrete
  §3.1 categories;
* **per-document path summaries** (:mod:`repro.storage.pathsummary`)
  — a path rooted at ``db2-fn:xmlcolumn`` gets *exact* node-count
  bounds from the data, and a path matching no document at all is
  statically empty (``SE005``), which the planner turns into a pruned
  branch.

The interpreter also folds constants (literals, casts of literals,
``let``-bound constants), which is how a let-hoisted cast such as
``let $limit := xs:double("100") … where $price > $limit`` becomes an
index-eligible predicate with a static probe bound —
:func:`refine_candidates` writes the inferred comparison type and
constant back onto the extracted
:class:`~repro.core.predicates.PredicateCandidate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.patterns import LinearPattern, PathPattern, PatternStep
from ..core.predicates import (FILTERING_CONTEXTS, _axis_step_to_pattern,
                               _node_test_to_step_test)
from ..errors import ReproError
from ..xdm import atomic
from ..xdm.qname import DB2FN_NS, FN_NS, XDT_NS, XS_NS
from ..xquery import ast
from ..xquery.functions import lookup_function
from .diagnostics import Code, DiagnosticSink
from .types import (ANY, EMPTY, ItemType, SeqType, atomized, concat_type,
                    index_type_for, item, iterate, one, opt, star,
                    statically_incomparable, union_type)

__all__ = ["Inference", "StaticFacts", "infer_module", "refine_candidates",
           "static_prefilter_facts"]


# ---------------------------------------------------------------------------
# Path shapes: provenance for schema and summary lookups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Where a value comes from: an XML column plus pattern steps.

    ``per_item`` distinguishes a value scoped to *one* document (a
    ``for``-bound variable) from the whole column: bounds for the
    former use the per-document maximum, for the latter the
    cross-document total.
    """

    column: str
    steps: tuple = ()
    per_item: bool = False

    def extend(self, steps: tuple) -> "Shape":
        return Shape(self.column, self.steps + steps, self.per_item)

    def pattern(self) -> PathPattern:
        return PathPattern((LinearPattern(self.steps),))


@dataclass
class Binding:
    """What the environment knows about one variable (or ``.``)."""

    type: SeqType
    shape: Optional[Shape] = None
    const: Optional[atomic.AtomicValue] = None


@dataclass
class PathStats:
    """Summary-backed facts about one (column, steps) pattern."""

    docs_total: int
    docs_with_path: int
    total_nodes: int
    max_per_doc: int

    @property
    def statically_empty(self) -> bool:
        return self.docs_total > 0 and self.docs_with_path == 0


# ---------------------------------------------------------------------------
# Inference result
# ---------------------------------------------------------------------------


class Inference:
    """Per-expression verdicts of one abstract-interpretation run."""

    def __init__(self, sink: DiagnosticSink):
        self.sink = sink
        self.body_type: SeqType = ANY
        self._types: dict[int, SeqType] = {}
        self._consts: dict[int, atomic.AtomicValue] = {}
        self._shapes: dict[int, Shape] = {}
        #: Keep every typed expression alive so id() keys stay unique.
        self._keep: list = []

    @property
    def diagnostics(self) -> list:
        return self.sink.findings

    def record(self, expr, seq_type: SeqType,
               shape: Shape | None = None,
               const: atomic.AtomicValue | None = None) -> SeqType:
        self._keep.append(expr)
        self._types[id(expr)] = seq_type
        if shape is not None:
            self._shapes[id(expr)] = shape
        if const is not None:
            self._consts[id(expr)] = const
        return seq_type

    def type_of(self, expr) -> SeqType | None:
        return self._types.get(id(expr))

    def const_of(self, expr) -> atomic.AtomicValue | None:
        return self._consts.get(id(expr))

    def shape_of(self, expr) -> Shape | None:
        return self._shapes.get(id(expr))


# ---------------------------------------------------------------------------
# Known function return types
# ---------------------------------------------------------------------------

_BOOLEAN_FNS = frozenset({
    "true", "false", "boolean", "not", "exists", "empty", "contains",
    "starts-with", "ends-with", "matches", "between"})
_INTEGER_FNS = frozenset({"count", "string-length", "position", "last",
                          "index-of"})
_STRING_FNS = frozenset({
    "string", "normalize-space", "upper-case", "lower-case", "translate",
    "concat", "string-join", "substring", "substring-before",
    "substring-after", "replace", "name", "local-name", "namespace-uri"})
_DOUBLE_FNS = frozenset({"number"})

#: xs:/xdt: constructor locals the engine's cast table understands.
_XS_CONSTRUCTORS = {
    "double": atomic.T_DOUBLE, "float": atomic.T_DOUBLE,
    "decimal": atomic.T_DECIMAL, "integer": atomic.T_INTEGER,
    "int": atomic.T_INTEGER, "long": atomic.T_LONG,
    "string": atomic.T_STRING, "boolean": atomic.T_BOOLEAN,
    "date": atomic.T_DATE, "dateTime": atomic.T_DATETIME,
    "untypedAtomic": atomic.T_UNTYPED,
    "anyAtomicType": atomic.T_ANY_ATOMIC,
}


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------


class _Inferencer:
    def __init__(self, prolog: ast.Prolog, database=None,
                 sink: DiagnosticSink | None = None):
        self.prolog = prolog
        self.database = database
        self.inference = Inference(sink or DiagnosticSink())
        self._stats_cache: dict[tuple, PathStats | None] = {}
        self._user_fn_types: dict[tuple, SeqType] = {}
        self._user_fn_in_progress: set[tuple] = set()

    # -- entry ----------------------------------------------------------

    def run(self, body: ast.Expr,
            env: dict[str, Binding]) -> Inference:
        self.inference.body_type = self.infer(body, env)
        return self.inference

    # -- dispatch -------------------------------------------------------

    def infer(self, expr, env: dict[str, Binding]) -> SeqType:
        method = getattr(self, f"_infer_{type(expr).__name__}", None)
        if method is not None:
            return method(expr, env)
        # Unhandled node: type every child, answer ⊤.
        for child in _children(expr):
            self.infer(child, env)
        return self.inference.record(expr, ANY)

    # -- leaves ---------------------------------------------------------

    def _infer_Literal(self, expr: ast.Literal, env) -> SeqType:
        return self.inference.record(
            expr, one(item(expr.value.type_name)), const=expr.value)

    def _infer_VarRef(self, expr: ast.VarRef, env) -> SeqType:
        binding = env.get(expr.name)
        if binding is None:
            self.inference.sink.emit(
                Code.UNKNOWN_VARIABLE,
                f"variable ${expr.name} is not in scope",
                subject=f"${expr.name}")
            return self.inference.record(expr, ANY)
        return self.inference.record(expr, binding.type,
                                     shape=binding.shape,
                                     const=binding.const)

    def _infer_ContextItem(self, expr: ast.ContextItem, env) -> SeqType:
        binding = env.get(".")
        if binding is None:
            return self.inference.record(expr, ANY)
        return self.inference.record(expr, binding.type,
                                     shape=binding.shape,
                                     const=binding.const)

    # -- structure ------------------------------------------------------

    def _infer_SequenceExpr(self, expr: ast.SequenceExpr, env) -> SeqType:
        result = EMPTY
        for entry in expr.items:
            result = concat_type(result, self.infer(entry, env))
        return self.inference.record(expr, result)

    def _infer_RangeExpr(self, expr: ast.RangeExpr, env) -> SeqType:
        self.infer(expr.start, env)
        self.infer(expr.end, env)
        return self.inference.record(
            expr, star({item(atomic.T_INTEGER)}))

    def _infer_IfExpr(self, expr: ast.IfExpr, env) -> SeqType:
        self.infer(expr.condition, env)
        then_type = self.infer(expr.then_branch, env)
        else_type = self.infer(expr.else_branch, env)
        return self.inference.record(expr,
                                     union_type(then_type, else_type))

    def _infer_OrExpr(self, expr, env) -> SeqType:
        self.infer(expr.left, env)
        self.infer(expr.right, env)
        return self.inference.record(expr, one(item(atomic.T_BOOLEAN)))

    _infer_AndExpr = _infer_OrExpr

    # -- comparisons ----------------------------------------------------

    def _infer_GeneralComparison(self, expr, env) -> SeqType:
        left = self.infer(expr.left, env)
        right = self.infer(expr.right, env)
        self._check_comparable(expr, left, right)
        return self.inference.record(expr, one(item(atomic.T_BOOLEAN)))

    def _infer_ValueComparison(self, expr, env) -> SeqType:
        left = self.infer(expr.left, env)
        right = self.infer(expr.right, env)
        self._check_comparable(expr, left, right)
        boolean = item(atomic.T_BOOLEAN)
        if left.possibly_empty or right.possibly_empty:
            return self.inference.record(expr, opt(boolean))
        return self.inference.record(expr, one(boolean))

    def _infer_NodeComparison(self, expr, env) -> SeqType:
        self.infer(expr.left, env)
        self.infer(expr.right, env)
        return self.inference.record(expr, opt(item(atomic.T_BOOLEAN)))

    def _check_comparable(self, expr, left: SeqType,
                          right: SeqType) -> None:
        left_type = self._schema_refined(expr.left, left)
        right_type = self._schema_refined(expr.right, right)
        if statically_incomparable(left_type, right_type):
            self.inference.sink.emit(
                Code.INCOMPARABLE_TYPES,
                f"'{expr.op}' compares {left_type} with {right_type}; "
                f"the categories can never match (§3.1)",
                subject=_render(expr))

    def _schema_refined(self, expr, seq: SeqType) -> SeqType:
        """Sharpen a node type's atomization using schema declarations."""
        shape = self.inference.shape_of(expr)
        if shape is None or not any(entry.is_node for entry in seq.items):
            return seq
        declared = self._schema_type_for(shape)
        if declared is None:
            return seq
        type_name, is_list = declared
        high = None if is_list else seq.high
        return SeqType(frozenset({item(type_name)}), seq.low, high)

    # -- arithmetic -----------------------------------------------------

    def _infer_Arithmetic(self, expr: ast.Arithmetic, env) -> SeqType:
        left = atomized(self.infer(expr.left, env))
        right = atomized(self.infer(expr.right, env))
        kinds = {entry.kind for entry in left.items | right.items}
        integral = kinds <= {atomic.T_INTEGER, atomic.T_LONG}
        result = item(atomic.T_INTEGER if integral and
                      expr.op not in ("div",) else atomic.T_DOUBLE)
        if left.possibly_empty or right.possibly_empty:
            return self.inference.record(expr, opt(result))
        return self.inference.record(expr, one(result))

    def _infer_UnaryMinus(self, expr: ast.UnaryMinus, env) -> SeqType:
        operand = atomized(self.infer(expr.operand, env))
        kinds = {entry.kind for entry in operand.items}
        result = item(atomic.T_INTEGER
                      if kinds <= {atomic.T_INTEGER, atomic.T_LONG}
                      else atomic.T_DOUBLE)
        const = None
        inner = self.inference.const_of(expr.operand)
        if inner is not None and inner.is_numeric and expr.negate:
            try:
                const = atomic.AtomicValue(inner.type_name, -inner.value)
            except Exception:  # sa: ok(SA408: constant folding)
                const = None
        elif inner is not None and inner.is_numeric:
            const = inner
        bounds = ((1, 1) if not operand.possibly_empty else (0, 1))
        return self.inference.record(
            expr, SeqType(frozenset({result}), *bounds), const=const)

    def _infer_SetExpr(self, expr: ast.SetExpr, env) -> SeqType:
        left = self.infer(expr.left, env)
        right = self.infer(expr.right, env)
        if expr.op == "union":
            merged = concat_type(left, right)
            return self.inference.record(expr, merged.at_least_empty())
        return self.inference.record(expr, left.at_least_empty())

    # -- types ----------------------------------------------------------

    def _infer_CastExpr(self, expr: ast.CastExpr, env) -> SeqType:
        operand = self.infer(expr.operand, env)
        const = None
        inner = self.inference.const_of(expr.operand)
        if inner is not None:
            try:
                const = atomic.cast(inner, expr.type_name)
            except ReproError:
                const = None
        low = 0 if (expr.allow_empty and operand.possibly_empty) else 1
        return self.inference.record(
            expr, SeqType(frozenset({item(expr.type_name)}), low, 1),
            const=const)

    def _infer_CastableExpr(self, expr: ast.CastableExpr, env) -> SeqType:
        self.infer(expr.operand, env)
        return self.inference.record(expr, one(item(atomic.T_BOOLEAN)))

    def _infer_InstanceOfExpr(self, expr, env) -> SeqType:
        self.infer(expr.operand, env)
        return self.inference.record(expr, one(item(atomic.T_BOOLEAN)))

    def _infer_TreatExpr(self, expr: ast.TreatExpr, env) -> SeqType:
        operand = self.infer(expr.operand, env)
        declared = _sequence_type(expr.sequence_type)
        return self.inference.record(
            expr, declared,
            shape=self.inference.shape_of(expr.operand) if operand else None)

    def _infer_TypeswitchExpr(self, expr: ast.TypeswitchExpr,
                              env) -> SeqType:
        operand = self.infer(expr.operand, env)
        result: SeqType | None = None
        for case in expr.cases:
            case_env = dict(env)
            if case.variable is not None:
                case_env[case.variable] = Binding(
                    _sequence_type(case.sequence_type))
            branch = self.infer(case.body, case_env)
            result = branch if result is None else union_type(result,
                                                              branch)
        default_env = dict(env)
        if expr.default_variable is not None:
            default_env[expr.default_variable] = Binding(operand)
        branch = self.infer(expr.default_body, default_env)
        result = branch if result is None else union_type(result, branch)
        return self.inference.record(expr, result)

    # -- FLWOR ----------------------------------------------------------

    def _infer_FLWORExpr(self, expr: ast.FLWORExpr, env) -> SeqType:
        env = dict(env)
        low_factor, high_factor = 1, 1
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                binding = self.infer(clause.expr, env)
                env[clause.var] = Binding(
                    iterate(binding),
                    shape=self._per_item_shape(clause.expr))
                if clause.position_var:
                    env[clause.position_var] = Binding(
                        one(item(atomic.T_INTEGER)))
                low_factor *= binding.low
                high_factor = (None if high_factor is None or
                               binding.high is None
                               else high_factor * binding.high)
            elif isinstance(clause, ast.LetClause):
                binding = self.infer(clause.expr, env)
                env[clause.var] = Binding(
                    binding,
                    shape=self.inference.shape_of(clause.expr),
                    const=self.inference.const_of(clause.expr))
            elif isinstance(clause, ast.WhereClause):
                self.infer(clause.expr, env)
                low_factor = 0
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    self.infer(spec.expr, env)
        result = self.infer(expr.return_expr, env)
        high = (None if result.high is None or high_factor is None
                else result.high * high_factor)
        return self.inference.record(
            expr, SeqType(result.items, result.low * low_factor, high))

    def _per_item_shape(self, expr) -> Shape | None:
        shape = self.inference.shape_of(expr)
        if shape is None:
            return None
        return Shape(shape.column, shape.steps, per_item=True)

    def _infer_QuantifiedExpr(self, expr: ast.QuantifiedExpr,
                              env) -> SeqType:
        env = dict(env)
        for var, binding_expr in expr.bindings:
            binding = self.infer(binding_expr, env)
            env[var] = Binding(iterate(binding),
                               shape=self._per_item_shape(binding_expr))
        self.infer(expr.satisfies, env)
        return self.inference.record(expr, one(item(atomic.T_BOOLEAN)))

    # -- constructors ---------------------------------------------------

    def _infer_DirectElementConstructor(self, expr, env) -> SeqType:
        for _name, template in expr.attributes:
            for part in template.parts:
                if not isinstance(part, str):
                    self.infer(part, env)
        for piece in expr.content:
            if not isinstance(piece, str):
                self.infer(piece, env)
        local = expr.name.split(":")[-1]
        return self.inference.record(
            expr, one(item("element", None, local)))

    def _infer_ComputedElementConstructor(self, expr, env) -> SeqType:
        if not isinstance(expr.name, str):
            self.infer(expr.name, env)
        if expr.content is not None:
            self.infer(expr.content, env)
        local = (expr.name.split(":")[-1]
                 if isinstance(expr.name, str) else None)
        return self.inference.record(
            expr, one(item("element", None, local)))

    def _infer_ComputedAttributeConstructor(self, expr, env) -> SeqType:
        if not isinstance(expr.name, str):
            self.infer(expr.name, env)
        if expr.content is not None:
            self.infer(expr.content, env)
        local = (expr.name.split(":")[-1]
                 if isinstance(expr.name, str) else None)
        return self.inference.record(
            expr, one(item("attribute", None, local)))

    def _infer_ComputedTextConstructor(self, expr, env) -> SeqType:
        self.infer(expr.content, env)
        return self.inference.record(expr, opt(item("text")))

    def _infer_ComputedDocumentConstructor(self, expr, env) -> SeqType:
        self.infer(expr.content, env)
        return self.inference.record(expr, one(item("document-node")))

    # -- paths ----------------------------------------------------------

    def _infer_FilterExpr(self, expr: ast.FilterExpr, env) -> SeqType:
        primary = self.infer(expr.primary, env)
        shape = self.inference.shape_of(expr.primary)
        inner_env = dict(env)
        inner_env["."] = Binding(iterate(primary), shape=shape)
        positional = False
        for predicate in expr.predicates:
            predicate_type = self.infer(predicate, inner_env)
            positional = positional or _is_numeric_type(predicate_type)
        high = 1 if positional else primary.high
        return self.inference.record(
            expr, SeqType(primary.items, 0, high), shape=shape)

    def _infer_PathExpr(self, expr: ast.PathExpr, env) -> SeqType:
        steps = list(expr.steps)
        base_binding = env.get(".")
        if expr.absolute:
            base_type = (base_binding.type if base_binding is not None
                         else one(item("document-node")))
            shape = base_binding.shape if base_binding is not None else None
            if shape is not None and shape.steps:
                shape = None  # '/' only analyzable at a document root
            pending_gap = expr.absolute == "//"
        elif steps and isinstance(steps[0], ast.ExprStep):
            first = steps.pop(0)
            base_type = self.infer(first.expr, env)
            shape = self.inference.shape_of(first.expr)
            self._infer_step_predicates(first, shape, base_type, env)
            pending_gap = False
        else:
            base_type = (base_binding.type if base_binding is not None
                         else ANY)
            shape = base_binding.shape if base_binding is not None else None
            pending_gap = False

        current = base_type
        cast_to: str | None = None
        for step in steps:
            cast_to = None
            if isinstance(step, ast.ExprStep):
                cast_to = _cast_step_target(step.expr)
                if cast_to is None:
                    # Opaque computed step: keep the final item type
                    # unknown but still walk nested expressions.
                    self.infer(step.expr, env)
                    shape = None
                    current = ANY
                else:
                    self._infer_step_predicates(step, shape, current, env)
                continue
            step_items = _step_item_types(step)
            if shape is not None:
                converted = _axis_step_to_pattern(step, pending_gap)
                if converted is None:
                    shape = None
                else:
                    delta, pending_gap = converted
                    shape = shape.extend(tuple(delta))
            current = SeqType(step_items, 0,
                              1 if step.axis == "attribute"
                              and current.high == 1 else None)
            self._infer_step_predicates(step, shape, current, env)

        result = current
        if cast_to is not None:
            result = SeqType(frozenset({item(cast_to)}), 0, result.high)
        result = self._bound_by_summary(expr, result, shape)
        return self.inference.record(expr, result, shape=shape)

    def _infer_step_predicates(self, step, shape: Shape | None,
                               current: SeqType, env) -> None:
        predicates = getattr(step, "predicates", [])
        if not predicates:
            return
        inner_env = dict(env)
        inner_env["."] = Binding(iterate(current), shape=shape)
        for predicate in predicates:
            self.infer(predicate, inner_env)

    def _bound_by_summary(self, expr, result: SeqType,
                          shape: Shape | None) -> SeqType:
        """Clamp a path's bounds with path-summary facts; flag SE005."""
        if shape is None or not shape.steps or self.database is None:
            return result
        stats = self._path_stats(shape)
        if stats is None:
            return result
        if stats.statically_empty:
            self.inference.sink.emit(
                Code.EMPTY_PATH,
                f"path matches no node in any of the {stats.docs_total} "
                f"document(s) of {shape.column}",
                subject=str(shape.pattern()), column=shape.column)
            return EMPTY
        cap = stats.max_per_doc if shape.per_item else stats.total_nodes
        high = cap if result.high is None else min(result.high, cap)
        return SeqType(result.items, min(result.low, high), high)

    def _path_stats(self, shape: Shape) -> PathStats | None:
        key = (shape.column, shape.steps)
        if key in self._stats_cache:
            return self._stats_cache[key]
        stats: PathStats | None = None
        try:
            from ..storage.pathsummary import PatternMatcher, get_summary
            table, _sep, column = shape.column.partition(".")
            stored_docs = self.database.documents(table, column)
            matcher = PatternMatcher(shape.pattern())
            docs_with = total = per_doc_max = 0
            for stored in stored_docs:
                summary = get_summary(stored.document, build=True)
                if summary is None:
                    stats = None
                    break
                count = summary.count_matching(matcher)
                if count:
                    docs_with += 1
                    total += count
                    per_doc_max = max(per_doc_max, count)
            else:
                stats = PathStats(len(stored_docs), docs_with, total,
                                  per_doc_max)
        except ReproError:
            stats = None  # unknown table/column: no data to consult
        self._stats_cache[key] = stats
        return stats

    def _schema_type_for(self, shape: Shape) -> tuple[str, bool] | None:
        """The declared type of a path's tail, when every registered
        schema that matches agrees (per-document association means any
        of them may govern a given document)."""
        if self.database is None or not shape.steps:
            return None
        schemas = getattr(self.database, "schemas", {})
        if not schemas:
            return None
        locals_tail = _locals_tail(shape.steps)
        if not locals_tail:
            return None
        found: tuple[str, bool] | None = None
        for schema in schemas.values():
            declaration = schema.lookup(locals_tail)
            if declaration is None:
                continue
            entry = (declaration.type_name, declaration.is_list)
            if found is not None and found != entry:
                return None  # conflicting schema versions: stay untyped
            found = entry
        return found

    # -- function calls -------------------------------------------------

    def _infer_FunctionCall(self, expr: ast.FunctionCall, env) -> SeqType:
        arg_types = [self.infer(argument, env) for argument in expr.args]
        uri, local = expr.name.uri, expr.name.local
        user_function = self.prolog.functions.get(
            (uri, local, len(expr.args)))
        if user_function is not None:
            return self.inference.record(
                expr, self._user_function_type(user_function))
        definition = lookup_function(uri, local)
        if definition is None:
            self.inference.sink.emit(
                Code.UNKNOWN_FUNCTION,
                f"unknown function {expr.name} "
                f"(#{len(expr.args)} args)", subject=str(expr.name))
            return self.inference.record(expr, ANY)
        if not definition.min_args <= len(expr.args) <= \
                definition.max_args:
            self.inference.sink.emit(
                Code.UNKNOWN_FUNCTION,
                f"wrong number of arguments for {expr.name}: got "
                f"{len(expr.args)}, expected "
                f"{definition.min_args}..{definition.max_args}",
                subject=str(expr.name))
            return self.inference.record(expr, ANY)
        return self._builtin_type(expr, uri, local, arg_types, env)

    def _builtin_type(self, expr, uri: str, local: str,
                      arg_types: list[SeqType], env) -> SeqType:
        record = self.inference.record
        if uri in (XS_NS, XDT_NS):
            target = _XS_CONSTRUCTORS.get(local)
            if target is None:
                return record(expr, ANY)
            const = None
            if expr.args:
                inner = self.inference.const_of(expr.args[0])
                if inner is not None:
                    try:
                        const = atomic.cast(inner, target)
                    except ReproError:
                        const = None
            low = (0 if not arg_types or arg_types[0].possibly_empty
                   else 1)
            return record(expr,
                          SeqType(frozenset({item(target)}), low, 1),
                          const=const)
        if uri == DB2FN_NS and local == "xmlcolumn":
            return record(expr, *self._xmlcolumn_type(expr))
        if uri == DB2FN_NS and local == "sqlquery":
            return record(expr, ANY)
        if local in _BOOLEAN_FNS:
            return record(expr, one(item(atomic.T_BOOLEAN)))
        if local in _INTEGER_FNS:
            return record(expr, one(item(atomic.T_INTEGER)))
        if local in _STRING_FNS:
            return record(expr, one(item(atomic.T_STRING)))
        if local in _DOUBLE_FNS:
            return record(expr, one(item(atomic.T_DOUBLE)))
        if local == "data" and arg_types:
            refined = self._schema_refined(expr.args[0], arg_types[0])
            return record(expr, atomized(refined),
                          shape=self.inference.shape_of(expr.args[0]))
        if local == "distinct-values" and arg_types:
            source = atomized(arg_types[0])
            return record(expr, source.at_least_empty())
        if local in ("reverse", "subsequence") and arg_types:
            return record(expr, arg_types[0].at_least_empty())
        if local == "zero-or-one" and arg_types:
            source = arg_types[0]
            high = 1 if source.high is None else min(source.high, 1)
            return record(expr, SeqType(source.items, min(source.low, 1),
                                        high),
                          shape=self.inference.shape_of(expr.args[0]))
        if local == "exactly-one" and arg_types:
            return record(expr, SeqType(arg_types[0].items, 1, 1),
                          shape=self.inference.shape_of(expr.args[0]))
        if local == "one-or-more" and arg_types:
            source = arg_types[0]
            return record(expr, SeqType(source.items,
                                        max(1, source.low), source.high),
                          shape=self.inference.shape_of(expr.args[0]))
        if local in ("sum",):
            return record(expr, one(item(atomic.T_DOUBLE)))
        if local in ("avg", "min", "max", "abs", "floor", "ceiling",
                     "round") and arg_types:
            source = atomized(arg_types[0])
            return record(expr, SeqType(
                source.items or frozenset({item(atomic.T_DOUBLE)}),
                0, 1))
        if local == "tokenize":
            return record(expr, star({item(atomic.T_STRING)}))
        return record(expr, ANY)

    def _xmlcolumn_type(self, expr) -> tuple:
        """(type, shape) of a db2-fn:xmlcolumn('T.C') call."""
        document = item("document-node")
        argument = expr.args[0] if expr.args else None
        if not isinstance(argument, ast.Literal):
            return star({document}), None
        column = argument.value.string_value().lower()
        shape = Shape(column)
        if self.database is not None:
            table, _sep, column_name = column.partition(".")
            try:
                count = len(self.database.documents(table, column_name))
            except ReproError:
                return star({document}), shape
            return SeqType(frozenset({document}), count, count), shape
        return star({document}), shape

    def _user_function_type(self, function: ast.UserFunction) -> SeqType:
        if function.return_type is not None:
            return _sequence_type(function.return_type)
        key = (function.name.uri, function.name.local, function.arity)
        cached = self._user_fn_types.get(key)
        if cached is not None:
            return cached
        if key in self._user_fn_in_progress:
            return ANY  # recursive without a declared type: ⊤
        self._user_fn_in_progress.add(key)
        try:
            env = {name: Binding(_sequence_type(param_type)
                                 if param_type is not None else ANY)
                   for name, param_type in function.params}
            result = self.infer(function.body, env)
        finally:
            self._user_fn_in_progress.discard(key)
        self._user_fn_types[key] = result
        return result


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _children(expr) -> list:
    children = []
    for name in getattr(expr, "__dataclass_fields__", {}):
        value = getattr(expr, name)
        if isinstance(value, ast.Expr):
            children.append(value)
        elif isinstance(value, list):
            children.extend(entry for entry in value
                            if isinstance(entry, ast.Expr))
    return children


def _render(expr) -> str:
    """A short, human-readable rendering of a comparison expression."""
    def side(value) -> str:
        if isinstance(value, ast.Literal):
            return repr(value.value.string_value())
        if isinstance(value, ast.VarRef):
            return f"${value.name}"
        if isinstance(value, ast.PathExpr):
            return "…/" + "/".join(
                str(step) for step in value.steps[-2:])
        if isinstance(value, ast.FunctionCall):
            return f"{value.name}(…)"
        if isinstance(value, ast.CastExpr):
            return f"(… cast as {value.type_name})"
        return type(value).__name__
    return f"{side(expr.left)} {expr.op} {side(expr.right)}"


def _step_item_types(step: ast.AxisStep) -> frozenset:
    test = step.test
    if isinstance(test, ast.KindTest):
        kind = {"document": "document-node"}.get(test.kind, test.kind)
        return frozenset({item(kind)})
    kind = "attribute" if step.axis == "attribute" else "element"
    return frozenset({item(kind, test.uri, test.local)})


def _cast_step_target(expr) -> str | None:
    """``xs:double(.)`` / ``data()`` as a path step -> target type."""
    if not isinstance(expr, ast.FunctionCall):
        return None
    args_ok = (len(expr.args) == 0 or
               (len(expr.args) == 1 and
                isinstance(expr.args[0], ast.ContextItem)))
    if not args_ok:
        return None
    if expr.name.local == "data":
        return atomic.T_UNTYPED
    if expr.name.uri in (XS_NS, XDT_NS):
        return _XS_CONSTRUCTORS.get(expr.name.local)
    return None


_KIND_ITEMS = {
    "document-node": item("document-node"),
    "element": item("element"),
    "attribute": item("attribute"),
    "text": item("text"),
    "node": item("node"),
    "item": ItemType("item"),
    "empty-sequence": None,
}

_OCCURRENCE_BOUNDS = {"": (1, 1), "?": (0, 1), "*": (0, None),
                      "+": (1, None)}


def _sequence_type(declared: ast.SequenceType) -> SeqType:
    entry = _KIND_ITEMS.get(declared.item_type,
                            item(declared.item_type))
    if entry is None:
        return EMPTY
    low, high = _OCCURRENCE_BOUNDS.get(declared.occurrence, (0, None))
    return SeqType(frozenset({entry}), low, high)


def _is_numeric_type(seq: SeqType) -> bool:
    kinds = {entry.kind for entry in seq.items}
    return bool(kinds) and kinds <= {atomic.T_INTEGER, atomic.T_LONG,
                                     atomic.T_DOUBLE, atomic.T_DECIMAL}


def _locals_tail(steps: tuple) -> tuple[str, ...]:
    """The longest gap-free suffix of a pattern as schema path locals.

    A descendant gap *before* the suffix is fine (schema declarations
    match path suffixes), but a gap inside it would make the lexical
    tail unsound, so the tail stops there.
    """
    tail: list[str] = []
    for index, step in enumerate(reversed(steps)):
        test = step.test
        if test.local is None:
            break
        name = f"@{test.local}" if test.kind == "attribute" else test.local
        if test.kind == "text":
            break
        tail.append(name)
        if step.gap:  # gap before this step: suffix must stop here
            break
    return tuple(reversed(tail))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def infer_module(module: ast.Module, database=None,
                 variables: dict[str, SeqType] | None = None,
                 report_unknown_vars: bool = True) -> Inference:
    """Abstractly interpret a parsed module.

    ``database`` (a :class:`~repro.storage.catalog.Database` /
    snapshot) enables data-aware verdicts: schema-typed atomization,
    summary-backed cardinality bounds, and statically-empty paths.
    ``variables`` pre-binds free variables (SQL PASSING arguments).
    ``report_unknown_vars=False`` suppresses ``SE003`` — used when a
    fragment is analyzed outside its binding context.
    """
    sink = DiagnosticSink()
    walker = _Inferencer(module.prolog, database=database, sink=sink)
    env = {name: Binding(seq_type)
           for name, seq_type in (variables or {}).items()}
    if not report_unknown_vars:
        walker._infer_VarRef = _lenient_varref(walker)  # type: ignore
    return walker.run(module.body, env)


def _lenient_varref(walker: _Inferencer):
    def infer_varref(expr, env):
        binding = env.get(expr.name)
        if binding is None:
            return walker.inference.record(expr, ANY)
        return walker.inference.record(expr, binding.type,
                                       shape=binding.shape,
                                       const=binding.const)
    return infer_varref


def refine_candidates(module: ast.Module, candidates) -> None:
    """Upgrade extracted predicate candidates with inferred facts.

    Where syntax-directed extraction left the comparison type (or the
    probe bound) unknown, inference may still prove it — a let-hoisted
    cast or constant, an arithmetic expression over literals, a
    schema-typed path.  Only *concrete* types are written back: an
    untyped operand stays unknown, preserving the Tip-1 verdict that
    an uncast join serves no index.
    """
    pending = [candidate for candidate in candidates
               if candidate.operand_expr is not None
               and (candidate.operand_type is None
                    or candidate.operand_value is None)]
    if not pending:
        return
    inference = infer_module(module, report_unknown_vars=False)
    for candidate in pending:
        inferred = inference.type_of(candidate.operand_expr)
        if inferred is None:
            continue
        if candidate.operand_type is None:
            refined = index_type_for(inferred)
            if refined is not None:
                candidate.operand_type = refined
        if candidate.operand_value is None:
            const = inference.const_of(candidate.operand_expr)
            if const is not None:
                candidate.operand_value = const


@dataclass
class StaticFacts:
    """What the static pass proved about a query against one database."""

    #: column -> the statically-empty path pattern (as text) that
    #: eliminates every binding on that column.
    empty_columns: dict = field(default_factory=dict)
    #: (column, path text) -> docs_with_path (cardinality seeds).
    docs_with_path: dict = field(default_factory=dict)
    #: How many distinct (column, path) facts were checked.
    checked: int = 0


def static_prefilter_facts(database, candidates) -> StaticFacts:
    """Summary-backed emptiness facts for the planner.

    For every candidate whose context lets an empty result eliminate a
    binding (the same :data:`FILTERING_CONTEXTS` contract index
    prefilters rely on), count the documents containing its path.  A
    path present in *no* document proves the conjunct can never hold:
    the planner replaces the whole column scan with the empty set —
    no probes, no document evaluation.

    Negated candidates never qualify; a disjunction qualifies only
    when every branch on the same column is statically empty.
    """
    facts = StaticFacts()
    by_disjunction: dict[int, list] = {}
    seen: dict[tuple, int] = {}
    for candidate in candidates:
        if candidate.context not in FILTERING_CONTEXTS or \
                candidate.negated:
            continue
        key = (candidate.column, str(candidate.path))
        if key in seen:
            count = seen[key]
        else:
            table, _sep, column = candidate.column.partition(".")
            try:
                count = database.docs_with_path(table, column,
                                                candidate.path)
                total = len(database.documents(table, column))
            except ReproError:
                continue
            if total == 0:
                continue  # an empty table proves nothing yet
            seen[key] = count
            facts.checked += 1
            facts.docs_with_path[key] = count
        if candidate.in_disjunction:
            by_disjunction.setdefault(
                candidate.disjunction_group, []).append(
                (candidate, count))
            continue
        if count == 0:
            facts.empty_columns.setdefault(candidate.column,
                                           str(candidate.path))
    for members in by_disjunction.values():
        columns = {candidate.column for candidate, _count in members}
        if len(columns) == 1 and all(count == 0
                                     for _candidate, count in members):
            column = next(iter(columns))
            facts.empty_columns.setdefault(
                column, str(members[0][0].path))
    return facts
