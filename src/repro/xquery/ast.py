"""XQuery abstract syntax tree.

The AST is deliberately explicit: every construct the paper's 30
queries use has its own node class, because the eligibility analyzer
(:mod:`repro.core`) pattern-matches on these classes to classify
predicate contexts (for-binding vs let-binding vs constructor content,
and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..xdm.atomic import AtomicValue
from ..xdm.qname import XS_NS, QName

# ---------------------------------------------------------------------------
# Node tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NameTest:
    """A (possibly wildcarded) QName test.

    ``uri`` / ``local`` may each be None meaning "any" — covering the
    four §2.1 grammar forms ``qname | * | ncname:* | *:ncname``.
    ``uri=""`` means *empty namespace*, the default that Section 3.7
    shows surprising people.
    """

    uri: Optional[str]
    local: Optional[str]
    prefix: str = ""

    def matches(self, name: QName | None) -> bool:
        if name is None:
            return False
        if self.uri is not None and name.uri != self.uri:
            return False
        if self.local is not None and name.local != self.local:
            return False
        return True

    def __str__(self) -> str:
        uri_part = "*" if self.uri is None else (
            f"{{{self.uri}}}" if self.uri else "")
        local_part = "*" if self.local is None else self.local
        return f"{uri_part}{local_part}"


@dataclass(frozen=True)
class KindTest:
    """``node() | text() | comment() | processing-instruction(n?) |
    document-node() | element() | attribute()``."""

    kind: str
    target: Optional[str] = None  # PI target

    def matches_node(self, node) -> bool:
        if self.kind == "node":
            return True
        if self.kind != node.kind:
            return False
        if self.kind == "processing-instruction" and self.target is not None:
            return node.target == self.target
        return True

    def __str__(self) -> str:
        inner = self.target or ""
        return f"{self.kind}({inner})"


NodeTest = Union[NameTest, KindTest]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression AST nodes."""

    __slots__ = ()


@dataclass
class Literal(Expr):
    value: AtomicValue


@dataclass
class VarRef(Expr):
    name: str  # without the '$'


@dataclass
class ContextItem(Expr):
    pass


@dataclass
class SequenceExpr(Expr):
    """Comma operator: flat concatenation (discards nothing but nests
    nothing either — the Section 3.4 'no nested sequences' property)."""

    items: list[Expr]


@dataclass
class RangeExpr(Expr):
    start: Expr
    end: Expr


@dataclass
class IfExpr(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass
class OrExpr(Expr):
    left: Expr
    right: Expr


@dataclass
class AndExpr(Expr):
    left: Expr
    right: Expr


@dataclass
class GeneralComparison(Expr):
    """``= != < <= > >=`` — existential semantics (§3.10)."""

    op: str
    left: Expr
    right: Expr


@dataclass
class ValueComparison(Expr):
    """``eq ne lt le gt ge`` — singleton semantics (§3.10)."""

    op: str
    left: Expr
    right: Expr


@dataclass
class NodeComparison(Expr):
    op: str  # 'is' | '<<' | '>>'
    left: Expr
    right: Expr


@dataclass
class Arithmetic(Expr):
    op: str  # '+' '-' '*' 'div' 'idiv' 'mod'
    left: Expr
    right: Expr


@dataclass
class UnaryMinus(Expr):
    operand: Expr
    negate: bool = True


@dataclass
class SetExpr(Expr):
    op: str  # 'union' | 'intersect' | 'except'
    left: Expr
    right: Expr


@dataclass
class CastExpr(Expr):
    operand: Expr
    type_name: str  # canonical, e.g. 'xs:double'
    allow_empty: bool = False  # the '?' occurrence indicator


@dataclass
class CastableExpr(Expr):
    operand: Expr
    type_name: str
    allow_empty: bool = False


@dataclass
class InstanceOfExpr(Expr):
    operand: Expr
    sequence_type: "SequenceType"


@dataclass
class TreatExpr(Expr):
    operand: Expr
    sequence_type: "SequenceType"


@dataclass(frozen=True)
class SequenceType:
    """A minimal sequence type: item kind test + occurrence indicator."""

    item_type: str            # 'document-node' | 'element' | 'node' | type name
    occurrence: str = ""       # '' | '?' | '*' | '+'


@dataclass
class FunctionCall(Expr):
    name: QName
    args: list[Expr]


# -- paths ------------------------------------------------------------------


@dataclass
class AxisStep:
    axis: str                      # child/descendant/self/.../parent
    test: NodeTest
    predicates: list[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        predicate_marks = "[...]" * len(self.predicates)
        axis = "@" if self.axis == "attribute" else f"{self.axis}::"
        return f"{axis}{self.test}{predicate_marks}"


@dataclass
class ExprStep:
    """A primary expression used as a path step, evaluated once per
    context item — covers DB2's ``$i/custid/xs:double(.)`` idiom."""

    expr: Expr
    predicates: list[Expr] = field(default_factory=list)


Step = Union[AxisStep, ExprStep]


@dataclass
class PathExpr(Expr):
    """A path expression.

    ``absolute`` is '' (relative), '/' or '//'.  A leading '/' expands
    to ``fn:root(.) treat as document-node()`` — the Query 25 pitfall.
    ``steps[0]`` of a relative path may be an :class:`ExprStep` holding
    the initial primary expression (``$ord``, a function call, ...).
    """

    absolute: str
    steps: list[Step]


@dataclass
class FilterExpr(Expr):
    """Primary expression with predicates: ``$view[pid = '17']``."""

    primary: Expr
    predicates: list[Expr]


# -- FLWOR -------------------------------------------------------------------


@dataclass
class ForClause:
    var: str
    expr: Expr
    position_var: Optional[str] = None


@dataclass
class LetClause:
    var: str
    expr: Expr


@dataclass
class WhereClause:
    expr: Expr


@dataclass
class OrderSpec:
    expr: Expr
    descending: bool = False
    empty_greatest: bool = False


@dataclass
class OrderByClause:
    specs: list[OrderSpec]


Clause = Union[ForClause, LetClause, WhereClause, OrderByClause]


@dataclass
class FLWORExpr(Expr):
    clauses: list[Clause]
    return_expr: Expr


@dataclass
class QuantifiedExpr(Expr):
    quantifier: str  # 'some' | 'every'
    bindings: list[tuple[str, Expr]]
    satisfies: Expr


@dataclass
class TypeswitchCase:
    variable: Optional[str]
    sequence_type: "SequenceType"
    body: Expr


@dataclass
class TypeswitchExpr(Expr):
    """``typeswitch(e) case ... default ... return`` — dispatch on the
    dynamic type, the standard tool for schema-flexible data."""

    operand: Expr
    cases: list[TypeswitchCase]
    default_variable: Optional[str]
    default_body: Expr


# -- constructors -------------------------------------------------------------


@dataclass
class AttributeValueTemplate:
    """Attribute value made of literal text and ``{expr}`` parts."""

    parts: list[Union[str, Expr]]


@dataclass
class DirectElementConstructor(Expr):
    name: str                      # lexical QName, resolved at eval time
    namespace_declarations: dict[str, str]
    attributes: list[tuple[str, AttributeValueTemplate]]
    content: list[Union[str, Expr, "DirectElementConstructor"]]


@dataclass
class ComputedElementConstructor(Expr):
    name: Union[str, Expr]         # lexical QName or name expression
    content: Optional[Expr]


@dataclass
class ComputedAttributeConstructor(Expr):
    name: Union[str, Expr]
    content: Optional[Expr]


@dataclass
class ComputedTextConstructor(Expr):
    content: Expr


@dataclass
class ComputedDocumentConstructor(Expr):
    content: Expr


# -- module -------------------------------------------------------------------


@dataclass
class UserFunction:
    """A ``declare function`` definition from the prolog."""

    name: QName
    params: list[tuple[str, Optional[SequenceType]]]
    return_type: Optional[SequenceType]
    body: Expr

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class Prolog:
    namespaces: dict[str, str] = field(default_factory=dict)
    default_element_namespace: str = ""
    construction_mode: str = "strip"  # 'strip' | 'preserve'
    #: (uri, local, arity) -> UserFunction
    functions: dict[tuple[str, str, int], "UserFunction"] = field(
        default_factory=dict)


@dataclass
class Module:
    prolog: Prolog
    body: Expr
    #: The module lowered to closures, one lowering per ``plan_joins``
    #: value (:mod:`repro.xquery.evaluator` fills it on first use): it
    #: lives exactly as long as the compiled module.  Not part of its
    #: value.
    lowered: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)


def walk(expr) -> "list[object]":
    """All AST objects reachable from ``expr`` (pre-order), including
    clauses and steps — the traversal the analyzers build on."""
    found: list[object] = []
    _walk_into(expr, found)
    return found


def _walk_into(obj, found: list[object]) -> None:
    if obj is None or isinstance(obj, (str, bytes, int, float, bool,
                                       AtomicValue, QName, NameTest,
                                       KindTest, SequenceType)):
        return
    if isinstance(obj, (list, tuple)):
        for element in obj:
            _walk_into(element, found)
        return
    if isinstance(obj, dict):
        return
    found.append(obj)
    for attribute in getattr(obj, "__dataclass_fields__", {}):
        _walk_into(getattr(obj, attribute), found)


@dataclass(frozen=True)
class RelPath:
    """A comparison side of the ``rel`` shape (:func:`rel_path`)."""

    #: The variable it starts at; None: the focus.
    var: Optional[str]
    #: Its child and attribute name-test steps.
    steps: tuple
    #: The xs: constructor it ends in (``xs:double(.)``: "double").
    cast: Optional[str]
    #: Some step has predicates.
    filtered: bool


def rel_path(expr) -> Optional[RelPath]:
    """``expr`` as ``.``, ``$v``, ``rel`` or ``$v/rel``, ``rel`` being
    child and attribute name-test steps, maybe ending in an xs:
    constructor of ``.`` (``xs:double(.)``); else None.  The predicate
    planner, the where clause fold, the column kernel and the SQL
    executor's decided XMLEXISTS all read comparison sides this way."""
    if isinstance(expr, (VarRef, ContextItem)):
        return RelPath(getattr(expr, "name", None), (), None, False)
    if not isinstance(expr, PathExpr) or expr.absolute:
        return None
    var, steps, cast = None, list(expr.steps), None
    first = steps[0]
    if (isinstance(first, ExprStep) and not first.predicates
            and isinstance(first.expr, VarRef)):
        var, steps = first.expr.name, steps[1:]
    last = steps[-1] if steps else None
    if (isinstance(last, ExprStep) and not last.predicates
            and isinstance(last.expr, FunctionCall)
            and last.expr.name.uri == XS_NS and len(last.expr.args) == 1
            and isinstance(last.expr.args[0], ContextItem)):
        steps, cast = steps[:-1], last.expr.name.local
    if not all(isinstance(step, AxisStep)
               and step.axis in ("child", "attribute")
               and isinstance(step.test, NameTest) for step in steps):
        return None
    return RelPath(var, tuple(steps), cast,
                   any(step.predicates for step in steps))
