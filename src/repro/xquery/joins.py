"""Equality hash joins for FLWOR value joins (``for … for … where =``).

A nested ``for $i in A for $j in B where $i/x = $j/y`` evaluates ``B``
and both comparison operands once per *pair* — Query 4 over 100 orders
and 20 customers is 2 000 evaluations of each side.  When ``B`` does
not depend on the outer tuple, the inner sequence is evaluated once,
the ``$j`` operand once per inner item (the build side), the other
operand once per outer tuple (the probe side), and only pairs whose
keys meet (:func:`repro.xdm.compare.equality_keys`) are bound.

Legality is decided here, statically, from the AST alone; the key
classes decide per pair at run time.  The plan changes no answer:

* tuple order is the nested loop's (outer-major, inner items in
  sequence order), so return order and ``order by`` ties are unchanged;
* the equality must be the *leading* conjunct of the where clause, so a
  pair it rejects is rejected by the nested loop without evaluating
  anything else — and only pairs the comparison provably answers
  ``false`` without raising are skipped (:func:`keys_may_raise`); all
  other pairs run the full where clause exactly as before;
* an operand whose evaluation raises makes its tuple or item a
  wildcard, so the where clause raises at the same pair it did.

Joins that fail a rule keep the loop; :func:`flwor_join_report` names
the rule for EXPLAIN.  A loop whose inner sequence still cannot change
between outer tuples evaluates it once.

A where clause that directly follows ``for $x in P`` (no ``at``, no
hash join) and is one comparison of ``$x/rel`` — ``rel`` being child
and attribute name steps without predicates — with a literal or a
variable is folded into the sequence: the pair runs as ``for $x in
P[rel op operand]`` (:class:`WhereFold`), so the path's column kernel
or the index's node answers decide it instead of one where evaluation
per binding.  ``P`` must be a path ending in an axis step; the
predicate is non-positional and reads no focus, so filtering ``P``'s
nodes before binding them keeps the tuples, their order and whether
the clause raises.  :func:`flwor_fold_report` names the rule that keeps
any other where clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .functions import lookup_function

__all__ = ["FlworPlan", "HashJoin", "JoinTable", "WhereFold", "plan_flwor",
           "flwor_fold_report", "flwor_join_report"]

#: Node constructors: an inner sequence holding one builds fresh node
#: identities per outer tuple, which evaluating it once would merge.
_CONSTRUCTORS = (ast.DirectElementConstructor,
                 ast.ComputedElementConstructor,
                 ast.ComputedAttributeConstructor,
                 ast.ComputedTextConstructor,
                 ast.ComputedDocumentConstructor)


@dataclass(frozen=True)
class HashJoin:
    """A for clause joined by hashing instead of looping."""

    var: str
    position_var: str | None
    #: Equality operand evaluated once per inner item (references var).
    build_key: ast.Expr
    #: Equality operand evaluated once per outer tuple.
    probe_key: ast.Expr
    #: ``=`` (existential) rather than ``eq`` (singleton).
    general: bool
    #: The where clause is the equality alone: a key match decides it.
    key_only: bool


class JoinTable:
    """The build side of a hash join: slots by key and by key class.

    ``undecided(probe_class, build_class)`` says when keys cannot decide
    a pair (the comparison might raise, or is UNKNOWN and the rest of
    the condition still runs); such pairs go to the full condition.
    The FLWOR join (classes: :func:`~repro.xdm.compare.equality_keys`
    flags) and the SQL join (classes: :func:`~repro.sql.values.
    sql_equality_key`) share it.
    """

    def __init__(self, undecided):
        self._undecided = undecided
        self._slots: dict[object, list[int]] = {}
        self._by_class: dict[object, list[int]] = {}
        self._unsure: dict[object, set[int]] = {}

    def add(self, slot: int, key_class, keys) -> None:
        self._by_class.setdefault(key_class, []).append(slot)
        for key in keys:
            self._slots.setdefault(key, []).append(slot)

    def probe(self, key_class, keys) -> tuple[list[int], set[int]]:
        """(candidate slots in build order, the slots among them whose
        keys matched and so decide the comparison true)."""
        unsure = self._unsure.get(key_class)
        if unsure is None:
            unsure = self._unsure[key_class] = {
                slot for build_class, slots in self._by_class.items()
                if self._undecided(key_class, build_class)
                for slot in slots}
        matched = {slot for key in keys for slot in self._slots.get(key, ())}
        return sorted(matched | unsure), matched - unsure


@dataclass(frozen=True)
class WhereFold:
    """``for $x in P where $x/rel op operand`` run as ``for $x in
    P[rel op operand]``."""

    #: The for clause over the filtered sequence.
    clause: ast.ForClause
    #: ``rel op operand``, the predicate on the sequence's last step.
    predicate: ast.Expr
    #: The where clause's comparison: the predicate stands for it (an
    #: index probe planned for it answers the predicate's nodes).
    comparison: ast.Expr


@dataclass(frozen=True)
class FlworPlan:
    """How the for clauses of one FLWOR run, by clause index."""

    joins: dict[int, HashJoin]
    #: Inner for clauses whose sequence no outer tuple changes: it is
    #: evaluated once, not once per outer tuple.
    invariant: frozenset[int]
    #: (variable, reason) for every inner for clause left a loop.
    loops: list[tuple[str, str]]
    #: For clauses that absorb the where clause right after them.
    folds: dict[int, WhereFold] = field(default_factory=dict)
    #: (variable, reason) for every other where clause right after a
    #: for clause.
    kept: list[tuple[str, str]] = field(default_factory=list)


def _plans(module: ast.Module):
    """The plan of every FLWOR in ``module``'s body."""
    for node in ast.walk(module.body):
        if isinstance(node, ast.FLWORExpr):
            yield plan_flwor(node, module.prolog)


def flwor_join_report(module: ast.Module) -> list[str]:
    """One EXPLAIN line per inner for clause of every FLWOR."""
    lines = []
    for plan in _plans(module):
        for join in plan.joins.values():
            outer = ", ".join(f"${name}" for name
                              in sorted(_variables(join.probe_key)))
            lines.append(f"hash join for ${join.var}: inner sequence "
                         f"evaluated once, keyed on its side of the "
                         f"where-clause {'=' if join.general else 'eq'}; "
                         f"probed per outer tuple "
                         f"({outer or 'constant'})")
        for var, reason in plan.loops:
            lines.append(f"nested loop for ${var}: {reason}")
    return lines


def flwor_fold_report(module: ast.Module) -> list[str]:
    """One EXPLAIN line per where clause right after a for clause:
    folded into its sequence, or the rule that kept it."""
    lines = []
    for plan in _plans(module):
        for fold in plan.folds.values():
            lines.append(f"where clause folded into for ${fold.clause.var}:"
                         f" its comparison filters the sequence's last "
                         f"step")
        for var, reason in plan.kept:
            lines.append(f"where clause kept after for ${var}: {reason}")
    return lines


def plan_flwor(expr: ast.FLWORExpr, prolog: ast.Prolog) -> FlworPlan:
    """Which for clauses of ``expr`` hash-join, which run their sequence
    once, and why the others stay loops."""
    joins: dict[int, HashJoin] = {}
    invariant: set[int] = set()
    loops: list[tuple[str, str]] = []
    folds: dict[int, WhereFold] = {}
    kept: list[tuple[str, str]] = []
    clauses = expr.clauses
    bound: set[str] = set()
    seen_for = False
    for index, clause in enumerate(clauses):
        following = clauses[index + 1] if index + 1 < len(clauses) else None
        if isinstance(clause, ast.ForClause) and seen_for:
            verdict = _variance(clause, bound, prolog)
            if verdict is None:
                invariant.add(index)
                verdict = _hash_join(clause, following, bound)
            if isinstance(verdict, HashJoin):
                joins[index] = verdict
            else:
                if index in invariant:
                    verdict += "; inner sequence evaluated once"
                loops.append((clause.var, verdict))
        if (isinstance(clause, ast.ForClause)
                and isinstance(following, ast.WhereClause)):
            fold = _fold(clause, following.expr)
            if isinstance(fold, WhereFold) and index in joins:
                fold = f"the hash join for ${clause.var} applies it"
            if isinstance(fold, WhereFold):
                folds[index] = fold
                if (index in invariant
                        and _variance(fold.clause, bound, prolog)):
                    invariant.discard(index)
            else:
                kept.append((clause.var, fold))
        if isinstance(clause, ast.ForClause):
            seen_for = True
            bound.add(clause.var)
            if clause.position_var:
                bound.add(clause.position_var)
        elif isinstance(clause, ast.LetClause):
            bound.add(clause.var)
    return FlworPlan(joins, frozenset(invariant), loops, folds, kept)


def _variance(clause: ast.ForClause, outer: set[str],
              prolog: ast.Prolog) -> str | None:
    """Why ``clause``'s sequence may differ between outer tuples (None:
    it cannot, so one evaluation serves them all)."""
    if _variables(clause.expr) & outer:
        return "inner sequence depends on the outer tuple"
    if any(_may_construct(node, prolog) for node in ast.walk(clause.expr)):
        return "inner sequence may construct nodes"
    return None


def _hash_join(clause: ast.ForClause, following, outer: set[str]
               ) -> HashJoin | str:
    """The join for an invariant ``clause``, or why it stays a loop."""
    if not isinstance(following, ast.WhereClause):
        return "no where clause directly follows"
    leading = following.expr
    while isinstance(leading, ast.AndExpr):
        leading = leading.left
    if isinstance(leading, ast.GeneralComparison) and leading.op == "=":
        general = True
    elif isinstance(leading, ast.ValueComparison) and leading.op == "eq":
        general = False
    else:
        return "the where clause does not lead with an = or eq comparison"
    own = {clause.var} | ({clause.position_var} if clause.position_var
                          else set())
    left, right = _variables(leading.left), _variables(leading.right)
    if left & own and not right & own:
        build, probe, build_vars = leading.left, leading.right, left
    elif right & own and not left & own:
        build, probe, build_vars = leading.right, leading.left, right
    else:
        return (f"the leading equality does not separate ${clause.var} "
                f"from the outer tuple")
    if build_vars & outer:
        return f"the ${clause.var} side also depends on the outer tuple"
    return HashJoin(clause.var, clause.position_var, build, probe, general,
                    key_only=leading is following.expr)


def _fold(clause: ast.ForClause, where: ast.Expr) -> WhereFold | str:
    """The fold of ``where`` into ``clause``'s sequence, or why the
    where clause stays."""
    var = clause.var
    if clause.position_var:
        return f"for ${var} has a positional variable"
    sequence = clause.expr
    if not (isinstance(sequence, ast.PathExpr)
            and isinstance(sequence.steps[-1], ast.AxisStep)):
        return "the for sequence is not a path ending in an axis step"
    if not isinstance(where, (ast.GeneralComparison, ast.ValueComparison)):
        return "the where clause is not one comparison"
    left, right = (_relative_to(where.left, var),
                   _relative_to(where.right, var))
    if left is not None and right is None:
        rel, operand = left, where.right
    elif right is not None and left is None:
        rel, operand = right, where.left
    else:
        return (f"not exactly one side is ${var} or ${var}/… over "
                f"child and attribute name steps without predicates")
    if isinstance(operand, ast.ContextItem) or (
            isinstance(operand, ast.FunctionCall)
            and operand.name.local in ("position", "last")):
        # In P's predicate the focus would be P's item, not the FLWOR's.
        return "the where clause reads the focus"
    if not isinstance(operand, (ast.Literal, ast.VarRef)):
        return "the other side is not a literal or a variable"
    predicate = (type(where)(where.op, rel, where.right) if left is not None
                 else type(where)(where.op, where.left, rel))
    last = sequence.steps[-1]
    filtered = ast.AxisStep(last.axis, last.test,
                            [*last.predicates, predicate])
    return WhereFold(
        ast.ForClause(var, ast.PathExpr(sequence.absolute,
                                        [*sequence.steps[:-1], filtered])),
        predicate, where)


def _relative_to(expr: ast.Expr, var: str) -> ast.Expr | None:
    """``expr`` = ``$var`` or ``$var/rel`` (a plain
    :func:`ast.rel_path`), as ``.`` or the relative path ``rel``."""
    rel = ast.rel_path(expr)
    if rel is None or rel.var != var or rel.cast or rel.filtered:
        return None
    return ast.PathExpr("", list(rel.steps)) if rel.steps \
        else ast.ContextItem()


def _may_construct(node, prolog: ast.Prolog) -> bool:
    """Can evaluating ``node`` create nodes?  Constructors can, and so
    can a user function or ``db2-fn:sqlquery`` (XMLELEMENT results)."""
    if isinstance(node, _CONSTRUCTORS):
        return True
    if not isinstance(node, ast.FunctionCall):
        return False
    name = node.name
    return ((name.uri, name.local, len(node.args)) in prolog.functions
            or name.local == "sqlquery"
            or lookup_function(name.uri, name.local) is None)


def _variables(expr) -> set[str]:
    """Every variable name referenced anywhere inside ``expr`` — a
    superset of its free variables, which is the safe direction for
    every rule above."""
    return {node.name for node in ast.walk(expr)
            if isinstance(node, ast.VarRef)}
