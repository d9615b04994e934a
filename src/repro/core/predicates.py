"""Predicate extraction: find candidate indexable predicates in a query.

The extractor walks an XQuery AST tracking two things the paper shows
are decisive:

1. **provenance** — whether an expression's value is reachable from an
   XML column through a linear path (``db2-fn:xmlcolumn('T.C')/a//b``,
   possibly through ``for``/``let`` variables and SQL PASSING
   arguments), and
2. **context** — whether an empty result at that position eliminates a
   binding (for-clauses, where-clauses, bind-out in return clauses,
   XMLEXISTS in a WHERE, the XMLTABLE row-producer) or must be
   preserved (let bindings, constructor content, select lists, XMLTABLE
   column paths) — the Section 3.2/3.4 analysis.

Every comparison (or bare existence path) found against column data
becomes a :class:`PredicateCandidate` with the *full* root-to-node path
pattern, the inferred comparison type (Section 3.1), singleton
guarantees for between-detection (Section 3.10), and its context.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

from ..errors import ReproError
from ..xdm import atomic
from ..xdm.atomic import AtomicValue
from ..xquery import ast
from .patterns import LinearPattern, PathPattern, PatternStep, StepTest


class PredicateContext(enum.Enum):
    PATH_FILTER = "path filter"
    FOR_BINDING = "for binding"
    WHERE_CLAUSE = "where clause"
    LET_BINDING = "let binding"
    LET_WITH_WHERE = "let binding consumed by where"
    RETURN_BINDOUT = "return bind-out"
    KEPT_VALUE = "value kept whether empty or not"
    AFTER_POSITION = "after a positional variable"
    CONSTRUCTOR_CONTENT = "constructor content"
    QUANTIFIED_SOME = "some-quantified"
    QUANTIFIED_EVERY = "every-quantified"
    SQL_SELECT_LIST = "SQL select list (XMLQUERY)"
    SQL_WHERE_XMLEXISTS = "SQL WHERE (XMLEXISTS)"
    SQL_BOOLEAN_XMLEXISTS = "SQL WHERE (XMLEXISTS with boolean body)"
    SQL_XMLTABLE_ROW = "XMLTABLE row-producer"
    SQL_XMLTABLE_COLUMN = "XMLTABLE column path"
    SQL_SCALAR = "SQL scalar expression (XMLCAST/XMLQUERY)"
    SQL_WHERE_COMPARISON = "SQL WHERE comparison over XMLCAST"


#: Contexts in which an empty result eliminates a binding, so an index
#: pre-filter preserves query semantics (Definition 1).
FILTERING_CONTEXTS = frozenset({
    PredicateContext.PATH_FILTER,
    PredicateContext.FOR_BINDING,
    PredicateContext.WHERE_CLAUSE,
    PredicateContext.LET_WITH_WHERE,
    PredicateContext.RETURN_BINDOUT,
    PredicateContext.QUANTIFIED_SOME,
    PredicateContext.SQL_WHERE_XMLEXISTS,
    PredicateContext.SQL_XMLTABLE_ROW,
    # A WHERE comparison does filter rows — when it is ineligible it is
    # because of SQL comparison semantics (§3.3), not its position.
    PredicateContext.SQL_WHERE_COMPARISON,
})


@dataclass(frozen=True)
class Origin:
    """Provenance of a value: an XML column plus a linear path."""

    column: str                      # 'table.column', lower-case
    steps: tuple[PatternStep, ...] = ()
    #: Comparison type forced by a trailing cast step (e.g. xs:double(.)).
    cast_type: str | None = None
    #: Reached through a let variable, which may hold several nodes.
    let_bound: bool = False

    def extend(self, steps: tuple[PatternStep, ...]) -> "Origin":
        return Origin(self.column, self.steps + steps, None, self.let_bound)


@dataclass(frozen=True)
class SQLTypedValue:
    """Provenance of a relational PASSING argument: its SQL type name."""

    sql_type: str      # 'VARCHAR' | 'DOUBLE' | 'INTEGER' | ...


_CONJUNCT_GROUPS = itertools.count(1)


@dataclass
class PredicateCandidate:
    column: str
    path: PathPattern
    op: str                              # '=', '<', 'eq', ..., 'exists'
    operand_type: str | None             # index type name or None
    operand_value: AtomicValue | None
    context: PredicateContext
    negated: bool = False
    in_disjunction: bool = False
    disjunction_group: int | None = None
    conjunct_group: int = 0
    singleton_guaranteed: bool = False
    uses_sql_comparison: bool = False
    description: str = ""
    #: XQuery AST of the non-indexed operand (for join probes) and the
    #: variables it references — lets the SQL planner run an index
    #: nested-loop join (Queries 13/16) by evaluating the operand per
    #: outer row and probing the index with the result.
    operand_expr: object | None = None
    operand_vars: frozenset[str] = frozenset()
    #: The comparison type a cast on the document side forces
    #: (``custid/xs:double(.)``: DOUBLE; ``string()``: VARCHAR;
    #: ``data()``: ANY), or None without one.
    cast: str | None = None
    #: The compared path starts at a let variable (``Origin.let_bound``).
    let_bound: bool = False
    #: The AST comparison (or ``fn:between`` call) the candidate came
    #: from; None for an existence test.
    comparison: object | None = field(default=None, compare=False,
                                      repr=False)

    @property
    def comparison_id(self) -> int:
        """Shared by the candidates one comparison emits (0 for none):
        the planner pairs up the sides of a join predicate by it, and
        keys an exact probe's node answers, which the evaluator finds
        from the same AST node.  The candidate holds the node, so no
        other live comparison has its id."""
        return 0 if self.comparison is None else id(self.comparison)

    @property
    def is_range(self) -> bool:
        return self.op in ("<", "<=", ">", ">=", "lt", "le", "gt", "ge")

    @property
    def is_equality(self) -> bool:
        return self.op in ("=", "eq")


@dataclass
class _WalkState:
    context: PredicateContext
    negated: bool = False
    disjunction_group: int | None = None
    conjunct_group: int = 0
    #: let-variables whose candidates get upgraded if a where consumes them
    let_candidates: dict[str, list[PredicateCandidate]] = field(
        default_factory=dict)

    def with_context(self, context: PredicateContext) -> "_WalkState":
        return replace(self, context=context)


def extract_candidates(module: ast.Module,
                       base_scope: dict[str, object] | None = None,
                       base_context: PredicateContext =
                       PredicateContext.PATH_FILTER,
                       suppress_xmlcolumn: bool = False
                       ) -> list[PredicateCandidate]:
    """Extract all candidate predicates from an XQuery module body.

    ``suppress_xmlcolumn=True`` ignores ``db2-fn:xmlcolumn`` origins —
    the SQL layer uses it to separate per-row (PASSING-variable)
    candidates, which take their context from the SQL statement, from
    collection-level candidates, which take it from the XQuery body.
    """
    extractor = _Extractor(suppress_xmlcolumn=suppress_xmlcolumn)
    state = _WalkState(context=base_context)
    extractor.walk(module.body, dict(base_scope or {}), state)
    return extractor.candidates


class _Extractor:
    def __init__(self, suppress_xmlcolumn: bool = False):
        self.candidates: list[PredicateCandidate] = []
        #: Variables a where clause being analyzed discards the empty
        #: sequences of (:meth:`_consume`); None outside one.
        self.consumed: set[str] | None = None
        self.suppress_xmlcolumn = suppress_xmlcolumn

    def emit(self, candidate: PredicateCandidate) -> None:
        self.candidates.append(candidate)

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def origin_of(self, expr: ast.Expr,
                  scope: dict[str, object]) -> Origin | None:
        """Resolve an expression to (column, linear path), if possible.

        Side effect free: predicates encountered along the way are NOT
        analyzed here (callers do that explicitly so that context is
        attributed correctly).
        """
        if isinstance(expr, ast.VarRef):
            bound = scope.get(expr.name)
            return bound if isinstance(bound, Origin) else None
        if isinstance(expr, ast.ContextItem):
            bound = scope.get(".")
            return bound if isinstance(bound, Origin) else None
        if isinstance(expr, ast.FunctionCall):
            if expr.name.local == "xmlcolumn" and len(expr.args) == 1:
                if self.suppress_xmlcolumn:
                    return None
                argument = expr.args[0]
                if isinstance(argument, ast.Literal):
                    return Origin(argument.value.string_value().lower())
                return None
            if expr.name.local in ("data", "string", "zero-or-one",
                                   "exactly-one", "one-or-more") and \
                    len(expr.args) == 1:
                inner = self.origin_of(expr.args[0], scope)
                if inner is not None and expr.name.local == "string":
                    return replace(inner, cast_type="VARCHAR")
                return inner
            cast_type = _cast_function_type(expr)
            if cast_type is not None and len(expr.args) == 1:
                inner = self.origin_of(expr.args[0], scope)
                if inner is not None:
                    return replace(inner, cast_type=cast_type)
                return None
            return None
        if isinstance(expr, ast.CastExpr):
            inner = self.origin_of(expr.operand, scope)
            if inner is not None:
                return replace(inner,
                               cast_type=atomic.index_type(expr.type_name))
            return None
        if isinstance(expr, ast.TreatExpr):
            return self.origin_of(expr.operand, scope)
        if isinstance(expr, ast.FilterExpr):
            # Predicates qualify nodes but do not change the path.
            return self.origin_of(expr.primary, scope)
        if isinstance(expr, ast.PathExpr):
            return self._path_origin(expr, scope)
        return None

    def _path_origin(self, expr: ast.PathExpr,
                     scope: dict[str, object]) -> Origin | None:
        steps = expr.steps
        if expr.absolute:
            base = scope.get(".")
            if not isinstance(base, Origin) or base.steps:
                return None  # leading '/' only analyzable at document root
            origin = base
            if expr.absolute == "//":
                pending_gap = True
            else:
                pending_gap = False
        else:
            first = steps[0]
            if isinstance(first, ast.ExprStep):
                origin = self.origin_of(first.expr, scope)
                steps = steps[1:]
            else:
                base = scope.get(".")
                origin = base if isinstance(base, Origin) else None
            if origin is None:
                return None
            pending_gap = False

        pattern_steps = list(origin.steps)
        cast_type: str | None = None
        for step in steps:
            cast_type = None
            if isinstance(step, ast.ExprStep):
                step_cast = _cast_step_type(step.expr)
                if step_cast is not None:
                    cast_type = step_cast
                    continue  # xs:double(.) step: path unchanged
                return None
            converted = _axis_step_to_pattern(step, pending_gap)
            if converted is None:
                return None
            pattern_steps_delta, pending_gap = converted
            pattern_steps.extend(pattern_steps_delta)
        return Origin(origin.column, tuple(pattern_steps),
                      cast_type or origin.cast_type, origin.let_bound)

    # ------------------------------------------------------------------
    # Walk
    # ------------------------------------------------------------------

    def walk(self, expr: ast.Expr, scope: dict[str, object],
             state: _WalkState) -> None:
        method = getattr(self, f"_walk_{type(expr).__name__}", None)
        if method is not None:
            method(expr, scope, state)
            return
        # Default: recurse into children with the same state.
        for child in _child_expressions(expr):
            self.walk(child, scope, state)

    # -- FLWOR -----------------------------------------------------------

    def _walk_FLWORExpr(self, expr: ast.FLWORExpr, scope, state) -> None:
        """A clause filters documents only where the FLWOR itself does
        (an enclosing let binding, constructor or select list keeps its
        context), and only up to a positional variable: dropping a
        document after ``at $p`` renumbers the positions later clauses
        see."""
        scope = dict(scope)
        let_vars: dict[str, list[PredicateCandidate]] = {}
        #: The state of every later clause once none may filter.
        blocked = None if state.context in FILTERING_CONTEXTS else state
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                self.walk(clause.expr, scope, blocked or state.with_context(
                    PredicateContext.FOR_BINDING))
                scope[clause.var] = self.origin_of(clause.expr, scope)
                if clause.position_var is not None:
                    blocked = _kept(state, PredicateContext.AFTER_POSITION)
            elif isinstance(clause, ast.LetClause):
                # Only this FLWOR's own where clause may upgrade a let,
                # and only a let of a path as it is: ``($d/a[b], 1)`` is
                # never empty.
                before = len(self.candidates)
                let_state = blocked or state.with_context(
                    PredicateContext.LET_BINDING)
                if blocked is not None or not _as_is(clause.expr):
                    let_state = _kept(let_state, PredicateContext.KEPT_VALUE)
                self.walk(clause.expr, scope, let_state)
                let_vars[clause.var] = self.candidates[before:]
                origin = self.origin_of(clause.expr, scope)
                scope[clause.var] = (None if origin is None
                                     else replace(origin, let_bound=True))
            elif isinstance(clause, ast.WhereClause):
                outer, self.consumed = self.consumed, set()
                self._analyze_boolean(
                    clause.expr, scope, blocked or state.with_context(
                        PredicateContext.WHERE_CLAUSE))
                consumed, self.consumed = self.consumed, outer
                if blocked is not None:
                    continue
                # A where clause that consumes a let variable discards
                # its empty sequences — upgrade (Section 3.4, Query 21).
                for var in consumed:
                    for candidate in let_vars.get(var, []):
                        if candidate.context is PredicateContext.LET_BINDING:
                            candidate.context = \
                                PredicateContext.LET_WITH_WHERE
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    self.walk(spec.expr, scope, blocked or _kept(
                        state, PredicateContext.KEPT_VALUE))
        self._walk_return(expr.return_expr, scope, blocked or state)

    def _walk_return(self, expr, scope, state) -> None:
        """Only a path returned as it is (or a nested FLWOR's return) is
        empty exactly when its binding contributes nothing; inside a
        function call, a sequence, arithmetic or a comparison it is a
        value the binding returns either way."""
        if not _as_is(expr):
            state = _kept(state, PredicateContext.KEPT_VALUE)
        elif state.context in FILTERING_CONTEXTS:
            state = state.with_context(PredicateContext.RETURN_BINDOUT)
        self.walk(expr, scope, state)

    def _walk_QuantifiedExpr(self, expr: ast.QuantifiedExpr, scope,
                             state) -> None:
        scope = dict(scope)
        context = (state.context
                   if state.context not in FILTERING_CONTEXTS
                   else PredicateContext.QUANTIFIED_SOME
                   if expr.quantifier == "some"
                   else PredicateContext.QUANTIFIED_EVERY)
        for var, binding in expr.bindings:
            self.walk(binding, scope, state.with_context(context))
            scope[var] = self.origin_of(binding, scope)
        self._analyze_boolean(expr.satisfies, scope,
                              state.with_context(context))

    # -- constructors: content preserves empty sequences -----------------

    def _walk_DirectElementConstructor(self, expr, scope, state) -> None:
        inner = state.with_context(PredicateContext.CONSTRUCTOR_CONTENT)
        for _name, template in expr.attributes:
            for part in template.parts:
                if not isinstance(part, str):
                    self.walk(part, scope, inner)
        for piece in expr.content:
            if isinstance(piece, str):
                continue
            self.walk(piece, scope, inner)

    def _walk_ComputedElementConstructor(self, expr, scope, state) -> None:
        inner = state.with_context(PredicateContext.CONSTRUCTOR_CONTENT)
        if not isinstance(expr.name, str):
            self.walk(expr.name, scope, inner)
        if expr.content is not None:
            self.walk(expr.content, scope, inner)

    _walk_ComputedAttributeConstructor = _walk_ComputedElementConstructor

    # -- boolean structure ------------------------------------------------

    def _walk_AndExpr(self, expr: ast.AndExpr, scope, state) -> None:
        self._analyze_boolean(expr, scope, state)

    def _walk_OrExpr(self, expr: ast.OrExpr, scope, state) -> None:
        self._analyze_boolean(expr, scope, state)

    def _analyze_boolean(self, expr, scope, state: _WalkState) -> None:
        """Decompose where-style boolean expressions into conjuncts and
        disjuncts, preserving negation information."""
        if isinstance(expr, ast.AndExpr):
            group = next(_CONJUNCT_GROUPS)
            left_state = replace(state, conjunct_group=group)
            self._analyze_boolean(expr.left, scope, left_state)
            self._analyze_boolean(expr.right, scope, left_state)
            return
        if isinstance(expr, ast.OrExpr):
            group = next(_CONJUNCT_GROUPS)
            branch = replace(state, disjunction_group=group)
            self._analyze_boolean(expr.left, scope, branch)
            self._analyze_boolean(expr.right, scope, branch)
            return
        if isinstance(expr, ast.FunctionCall) and \
                expr.name.local in ("not",) and len(expr.args) == 1:
            self._analyze_boolean(expr.args[0], scope,
                                  replace(state, negated=not state.negated))
            return
        if isinstance(expr, (ast.GeneralComparison, ast.ValueComparison)):
            self._analyze_comparison(expr, scope, state)
            return
        if isinstance(expr, ast.FunctionCall) and \
                expr.name.local in ("exists",) and len(expr.args) == 1:
            self._consume(expr.args[0], state)
            self._emit_exists(expr.args[0], scope, state)
            return
        if isinstance(expr, ast.FunctionCall) and \
                expr.name.local == "between" and len(expr.args) == 3:
            self._analyze_between_call(expr, scope, state)
            return
        if isinstance(expr, (ast.PathExpr, ast.FilterExpr, ast.VarRef)):
            self._consume(expr, state)
            self._emit_exists(expr, scope, state)
            return
        # empty(), count(...) = 0, if/then/else: the value decides, not
        # whether a path inside it is empty.
        self.walk(expr, scope, _kept(state, PredicateContext.KEPT_VALUE))

    # -- comparisons -------------------------------------------------------

    def _walk_GeneralComparison(self, expr, scope, state) -> None:
        self._analyze_comparison(expr, scope, state)

    _walk_ValueComparison = _walk_GeneralComparison

    def _consume(self, expr, state: _WalkState) -> None:
        """``expr`` is a path or a comparison operand in a where clause:
        empty, it makes the clause false — unless negated or one of a
        disjunction."""
        if self.consumed is not None and not state.negated and \
                state.disjunction_group is None:
            self.consumed.update(_variables_in(expr))

    def _analyze_comparison(self, expr, scope, state: _WalkState) -> None:
        is_value_comparison = isinstance(expr, ast.ValueComparison)
        op = expr.op
        left_info = self._side_info(expr.left, scope, state)
        right_info = self._side_info(expr.right, scope, state)
        for info in (left_info, right_info):
            if info["origin"] is not None:
                self._consume(info["expr"], state)

        self._emit_side(left_info, right_info, op, state,
                        is_value_comparison, expr)
        self._emit_side(right_info, left_info, _flip(op), state,
                        is_value_comparison, expr)

    def _side_info(self, expr, scope, state) -> dict:
        origin = self.origin_of(expr, scope)
        literal = _literal_value(expr)
        sql_typed = None
        if isinstance(expr, ast.VarRef):
            bound = scope.get(expr.name)
            if isinstance(bound, SQLTypedValue):
                sql_typed = bound.sql_type
        # Nested predicates along comparison operands still need a walk
        # (e.g. $d//a[b > 1]/c > 2) — but only when it isn't a plain
        # path, to avoid double-emitting.
        if origin is None and literal is None and sql_typed is None:
            self.walk(expr, scope,
                      _kept(state, PredicateContext.KEPT_VALUE))
        else:
            self._walk_step_predicates(expr, scope, state)
        return {"origin": origin, "literal": literal,
                "sql_type": sql_typed, "expr": expr,
                "is_context": isinstance(expr, ast.ContextItem)}

    def _walk_step_predicates(self, expr, scope, state) -> None:
        """Analyze predicates nested inside a path's steps."""
        if isinstance(expr, ast.FilterExpr):
            base = self.origin_of(expr.primary, scope)
            inner_scope = dict(scope)
            inner_scope["."] = base
            for predicate in expr.predicates:
                self._analyze_boolean(predicate, inner_scope, state)
            self._walk_step_predicates(expr.primary, scope, state)
            return
        if not isinstance(expr, ast.PathExpr):
            return
        base = None
        if expr.absolute or not isinstance(expr.steps[0], ast.ExprStep):
            # Paths rooted at '/'-root or at the context item.
            maybe = scope.get(".")
            base = maybe if isinstance(maybe, Origin) else None
        steps = list(expr.steps)
        if steps and isinstance(steps[0], ast.ExprStep):
            base = self.origin_of(steps[0].expr, scope)
            first = steps[0]
            if first.predicates and base is not None:
                inner_scope = dict(scope)
                inner_scope["."] = base
                for predicate in first.predicates:
                    self._analyze_boolean(predicate, inner_scope, state)
            steps = steps[1:]
        if base is None:
            return
        prefix = base
        pending_gap = expr.absolute == "//"
        for step in steps:
            if isinstance(step, ast.ExprStep):
                if _cast_step_type(step.expr) is None:
                    return
                # A cast/atomization step (xs:double(.), data()) keeps
                # the path; its predicates see the same nodes — the
                # §3.10 self-axis form `price/data()[. > 100 ...]`.
            else:
                converted = _axis_step_to_pattern(step, pending_gap)
                if converted is None:
                    return
                delta, pending_gap = converted
                prefix = prefix.extend(tuple(delta))
            if step.predicates:
                inner_scope = dict(scope)
                inner_scope["."] = prefix
                for predicate in step.predicates:
                    self._analyze_boolean(predicate, inner_scope, state)

    def _emit_side(self, side: dict, other: dict, op: str,
                   state: _WalkState, is_value_comparison: bool,
                   comparison) -> None:
        origin: Origin | None = side["origin"]
        if origin is None or not origin.column or not origin.steps:
            return
        operand_type = (origin.cast_type or
                        _implied_type(other, is_value_comparison))
        operand_value = other["literal"]
        pattern = PathPattern((LinearPattern(origin.steps),))
        final_kind = origin.steps[-1].test.kind
        # Singleton guarantees for between detection (§3.10): value
        # comparisons require singletons; the self axis ('.' inside a
        # step predicate) always binds one node; attributes occur at
        # most once per element (and list types are prohibited in
        # indexed documents, footnote 5).
        singleton = bool(
            is_value_comparison or final_kind == "attribute" or
            side.get("is_context", False))
        operand_expr = None if operand_value is not None else other["expr"]
        self.emit(PredicateCandidate(
            column=origin.column,
            path=pattern,
            op=op,
            operand_type=operand_type,
            operand_value=operand_value,
            context=state.context,
            negated=state.negated,
            in_disjunction=state.disjunction_group is not None,
            disjunction_group=state.disjunction_group,
            conjunct_group=state.conjunct_group,
            singleton_guaranteed=singleton,
            description=f"{pattern} {op} "
                        f"{_describe_operand(other)}",
            operand_expr=operand_expr,
            operand_vars=frozenset(_variables_in(operand_expr))
            if operand_expr is not None else frozenset(),
            cast=origin.cast_type,
            let_bound=origin.let_bound,
            comparison=comparison))

    def _analyze_between_call(self, expr, scope,
                              state: _WalkState) -> None:
        """fn:between($path, $low, $high) — the §4 extension.

        Its semantics put both bounds on the *same* value, so the two
        emitted candidates are singleton-guaranteed by construction and
        collapse to one range scan regardless of the path's node kind.
        """
        self._walk_step_predicates(expr.args[0], scope, state)
        origin = self.origin_of(expr.args[0], scope)
        if origin is None or not origin.column or not origin.steps:
            return
        group_state = replace(state, conjunct_group=next(_CONJUNCT_GROUPS))
        low = self._side_info(expr.args[1], scope, group_state)
        high = self._side_info(expr.args[2], scope, group_state)
        side = {"origin": origin, "literal": None, "sql_type": None,
                "expr": expr.args[0], "is_context": True}
        self._emit_side(side, low, "ge", group_state,
                        is_value_comparison=True, comparison=expr)
        self._emit_side(side, high, "le", group_state,
                        is_value_comparison=True, comparison=expr)

    def _emit_exists(self, expr, scope, state: _WalkState) -> None:
        origin = self.origin_of(expr, scope)
        self._walk_step_predicates(expr, scope, state)
        if origin is None or not origin.column or not origin.steps:
            return
        pattern = PathPattern((LinearPattern(origin.steps),))
        self.emit(PredicateCandidate(
            column=origin.column,
            path=pattern,
            op="exists",
            operand_type="VARCHAR",
            operand_value=None,
            context=state.context,
            negated=state.negated,
            in_disjunction=state.disjunction_group is not None,
            disjunction_group=state.disjunction_group,
            conjunct_group=state.conjunct_group,
            description=f"exists({pattern})"))

    # -- paths at statement level -----------------------------------------

    def _walk_PathExpr(self, expr: ast.PathExpr, scope, state) -> None:
        self._walk_step_predicates(expr, scope, state)

    def _walk_FilterExpr(self, expr: ast.FilterExpr, scope, state) -> None:
        self._walk_step_predicates(expr, scope, state)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _child_expressions(expr) -> list[ast.Expr]:
    children: list[ast.Expr] = []
    for name in getattr(expr, "__dataclass_fields__", {}):
        value = getattr(expr, name)
        if isinstance(value, ast.Expr):
            children.append(value)
        elif isinstance(value, list):
            for element in value:
                if isinstance(element, ast.Expr):
                    children.append(element)
    return children


def _as_is(expr) -> bool:
    """Is ``expr`` empty exactly when the paths in it select nothing: a
    path, a variable, or a FLWOR (whose clauses say the rest)?"""
    return isinstance(expr, (ast.PathExpr, ast.FilterExpr, ast.VarRef,
                             ast.FLWORExpr))


def _kept(state: _WalkState, context: PredicateContext) -> _WalkState:
    """``state`` at a position whose value is kept for every binding:
    ``context``, unless the enclosing context already filters nothing
    (it stays, with its reason) — but never a let binding, which a
    where clause could upgrade."""
    if state.context in FILTERING_CONTEXTS or \
            state.context is PredicateContext.LET_BINDING:
        return state.with_context(context)
    return state


def _variables_in(expr) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.VarRef):
            names.add(node.name)
    return names


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=",
         "lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq",
         "ne": "ne"}


def _flip(op: str) -> str:
    return _FLIP.get(op, op)


def _axis_step_to_pattern(step: ast.AxisStep, pending_gap: bool
                          ) -> tuple[list[PatternStep], bool] | None:
    """Convert one AST axis step into pattern steps.

    Returns (steps, pending_gap_for_next) or None when the axis cannot
    be linearized (parent/ancestor/sibling axes).
    """
    test = _node_test_to_step_test(step.test, step.axis)
    if test is None:
        return None
    if step.axis == "descendant-or-self":
        if isinstance(step.test, ast.KindTest) and step.test.kind == "node":
            return [], True  # the '//' expansion marker
        return None
    if step.axis == "descendant":
        return [PatternStep(test, gap=True)], False
    if step.axis in ("child", "attribute"):
        return [PatternStep(test, gap=pending_gap)], False
    if step.axis == "self":
        return None  # rare in predicates; treat as unanalyzable
    return None


def _node_test_to_step_test(test: ast.NodeTest, axis: str
                            ) -> StepTest | None:
    if isinstance(test, ast.KindTest):
        if test.kind == "node":
            return StepTest("attribute" if axis == "attribute" else "node")
        if test.kind == "document":
            return None
        return StepTest(test.kind, pi_target=test.target)
    kind = "attribute" if axis == "attribute" else "element"
    return StepTest(kind, uri=test.uri, local=test.local)


def _literal_value(expr) -> AtomicValue | None:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.CastExpr):
        operand, target = expr.operand, expr.type_name
    elif (isinstance(expr, ast.FunctionCall) and len(expr.args) == 1
          and _cast_function_type(expr) is not None):
        operand, target = expr.args[0], atomic.XS_TYPES[expr.name.local]
    else:
        return None
    if not isinstance(operand, ast.Literal):
        return None
    try:
        return atomic.cast(operand.value, target)
    except ReproError:
        return None


def _cast_function_type(expr: ast.FunctionCall) -> str | None:
    """xs:double(...) style constructor calls imply a comparison type."""
    from ..xdm.qname import XDT_NS, XS_NS
    if expr.name.uri not in (XS_NS, XDT_NS):
        return None
    return atomic.index_type(atomic.XS_TYPES.get(expr.name.local))


def _cast_step_type(expr: ast.Expr) -> str | None:
    """Is this ExprStep a per-item cast like ``xs:double(.)``?

    Returns the implied comparison type, "ANY" for type-preserving
    atomization steps (``data()`` / ``data(.)``), or None when the step
    is not a recognized cast (the path then becomes unanalyzable).
    """
    if not isinstance(expr, ast.FunctionCall):
        return None
    args_ok = (len(expr.args) == 0 or
               (len(expr.args) == 1 and
                isinstance(expr.args[0], ast.ContextItem)))
    if not args_ok:
        return None
    if expr.name.local == "data":
        return "ANY"  # atomization: path unchanged, type unknown
    if len(expr.args) == 1:
        return _cast_function_type(expr)
    return None


def _implied_type(other: dict, is_value_comparison: bool) -> str | None:
    """Infer the comparison type from the *other* operand (§3.1)."""
    origin: Origin | None = other["origin"]
    if origin is not None and origin.cast_type:
        return None if origin.cast_type == "ANY" else origin.cast_type
    literal: AtomicValue | None = other["literal"]
    if literal is not None:
        return atomic.index_type(literal.type_name)
    if other["sql_type"] is not None:
        return atomic.index_type(atomic.SQL_TYPES.get(other["sql_type"]))
    return None


def _describe_operand(side: dict) -> str:
    if side["literal"] is not None:
        return repr(side["literal"].string_value())
    origin = side["origin"]
    if origin is not None:
        suffix = f" (cast {origin.cast_type})" if origin.cast_type else ""
        if origin.steps:
            return (f"{origin.column}:"
                    f"{PathPattern((LinearPattern(origin.steps),))}{suffix}")
        return f"{origin.column}{suffix}"
    if side["sql_type"] is not None:
        return f"<SQL {side['sql_type']}>"
    return "<expr>"
