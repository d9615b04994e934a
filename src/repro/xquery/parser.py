"""Recursive-descent XQuery parser.

Covers the XQuery 1.0 subset exercised by the paper's thirty queries
(see DESIGN.md §3) plus a few conveniences.  One deliberate DB2-ism is
kept: a function call may appear as a non-initial path step
(``$i/custid/xs:double(.)``, Query 4), which XPath 2.0 permits via
FilterExpr steps.

The parser owns a cursor into the source text and tokenizes lazily,
which lets direct element constructors drop out of token mode and scan
raw XML-ish syntax, recursing into expression parsing for every
``{...}`` enclosure.
"""

from __future__ import annotations

import functools

from ..errors import XQueryStaticError
from ..xdm import atomic
from ..xdm.qname import DEFAULT_PREFIXES, FN_NS, QName
from . import ast
from .lexer import Lexer, Token, _resolve_entity

_AXES = {
    "child", "descendant", "attribute", "self", "descendant-or-self",
    "parent", "ancestor", "ancestor-or-self", "following-sibling",
    "preceding-sibling", "following", "preceding",
}

_KIND_TESTS = {"node", "text", "comment", "processing-instruction",
               "document-node", "element", "attribute"}

#: Names that can never be parsed as a function call.
_RESERVED_FUNCTION_NAMES = _KIND_TESTS | {
    "if", "typeswitch", "item", "empty-sequence",
}

_VALUE_COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}
_GENERAL_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_NODE_COMPARISONS = {"is", "<<", ">>"}

@functools.lru_cache(maxsize=256)
def parse_xquery(source: str) -> ast.Module:
    """Parse an XQuery main module (prolog + body expression).

    Memoized: modules are never mutated after parsing (rewrites build
    fresh Module objects), so repeated queries share one parse.
    """
    parser = _Parser(source)
    module = parser.parse_module()
    return module


def parse_expression(source: str,
                     namespaces: dict[str, str] | None = None,
                     default_element_namespace: str = "") -> ast.Module:
    """Parse a bare expression (no prolog) with given namespace bindings.

    Used by the SQL/XML layer for XMLQUERY/XMLEXISTS/XMLTABLE arguments.
    """
    parser = _Parser(source)
    parser.prolog.namespaces.update(namespaces or {})
    parser.prolog.default_element_namespace = default_element_namespace
    body = parser.parse_expr()
    parser.expect_eof()
    return ast.Module(parser.prolog, body)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.lexer = Lexer(source)
        self.pos = 0
        self._buffer: list[Token] = []
        self.prolog = ast.Prolog(namespaces=dict(DEFAULT_PREFIXES))

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        while len(self._buffer) <= offset:
            start = self._buffer[-1].end if self._buffer else self.pos
            self._buffer.append(self.lexer.next_token(start))
        return self._buffer[offset]

    def _advance(self) -> Token:
        token = self._peek()
        self._buffer.pop(0)
        self.pos = token.end
        return token

    def _reset_to(self, offset: int) -> None:
        """Drop lookahead and reposition the raw cursor (constructors)."""
        self._buffer.clear()
        self.pos = offset

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._advance()
        if not token.is_symbol(symbol):
            raise XQueryStaticError(
                f"expected {symbol!r}, got {token.value!r} "
                f"at offset {token.start}")
        return token

    def _expect_name(self, *names: str) -> Token:
        token = self._advance()
        if token.type != "name" or (names and token.value not in names):
            expected = " or ".join(repr(name) for name in names) or "a name"
            raise XQueryStaticError(
                f"expected {expected}, got {token.value!r} "
                f"at offset {token.start}")
        return token

    def expect_eof(self) -> None:
        token = self._peek()
        if token.type != "eof":
            raise XQueryStaticError(
                f"unexpected trailing input {token.value!r} "
                f"at offset {token.start}")

    # ------------------------------------------------------------------
    # QNames
    # ------------------------------------------------------------------

    def _parse_lexical_qname(self) -> str:
        first = self._expect_name()
        if (self._peek().is_symbol(":") and
                self._peek().start == first.end and
                self._peek(1).type == "name" and
                self._peek(1).start == self._peek().end):
            self._advance()
            local = self._advance()
            return f"{first.value}:{local.value}"
        return first.value

    def _resolve(self, lexical: str, default_ns: str = "") -> QName:
        if ":" in lexical:
            prefix, local = lexical.split(":", 1)
            uri = self.prolog.namespaces.get(prefix)
            if uri is None:
                raise XQueryStaticError(
                    f"undeclared namespace prefix {prefix!r}",
                    code="XPST0081")
            return QName(uri, local, prefix)
        return QName(default_ns, lexical)

    def _resolve_type_name(self, lexical: str) -> str:
        prefix, _colon, local = lexical.partition(":")
        if prefix in ("xs", "xdt") and local in atomic.XS_TYPES:
            return atomic.XS_TYPES[local]
        raise XQueryStaticError(f"unknown atomic type {lexical!r}",
                                code="XPST0051")

    # ------------------------------------------------------------------
    # Module & prolog
    # ------------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        self._parse_prolog()
        body = self.parse_expr()
        self.expect_eof()
        return ast.Module(self.prolog, body)

    def _parse_prolog(self) -> None:
        while self._peek().is_name("declare"):
            second = self._peek(1)
            if not second.is_name("default", "namespace", "construction",
                                  "boundary-space", "function"):
                break
            self._advance()  # 'declare'
            keyword = self._advance().value
            if keyword == "function":
                self._parse_function_declaration()
                self._expect_symbol(";")
                continue
            if keyword == "default":
                self._expect_name("element")
                self._expect_name("namespace")
                uri = self._advance()
                if uri.type != "string":
                    raise XQueryStaticError("expected namespace URI string")
                self.prolog.default_element_namespace = uri.value
            elif keyword == "namespace":
                prefix = self._expect_name().value
                self._expect_symbol("=")
                uri = self._advance()
                if uri.type != "string":
                    raise XQueryStaticError("expected namespace URI string")
                self.prolog.namespaces[prefix] = uri.value
            elif keyword == "construction":
                mode = self._expect_name("strip", "preserve").value
                self.prolog.construction_mode = mode
            elif keyword == "boundary-space":
                self._expect_name("strip", "preserve")
            self._expect_symbol(";")

    def _parse_function_declaration(self) -> None:
        """``declare function local:name($p as T, ...) as T { body }``"""
        lexical = self._parse_lexical_qname()
        if ":" not in lexical:
            raise XQueryStaticError(
                f"declared function {lexical!r} must have a namespace "
                f"prefix (e.g. local:{lexical})", code="XQST0060")
        name = self._resolve(lexical)
        self._expect_symbol("(")
        params: list[tuple[str, ast.SequenceType | None]] = []
        if not self._peek().is_symbol(")"):
            while True:
                self._expect_symbol("$")
                param_name = self._parse_lexical_qname()
                param_type = None
                if self._peek().is_name("as"):
                    self._advance()
                    param_type = self._parse_sequence_type()
                params.append((param_name, param_type))
                if self._peek().is_symbol(","):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        return_type = None
        if self._peek().is_name("as"):
            self._advance()
            return_type = self._parse_sequence_type()
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        key = (name.uri, name.local, len(params))
        if key in self.prolog.functions:
            raise XQueryStaticError(
                f"function {lexical}#{len(params)} declared twice",
                code="XQST0034")
        self.prolog.functions[key] = ast.UserFunction(
            name, params, return_type, body)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        items = [self.parse_expr_single()]
        while self._peek().is_symbol(","):
            self._advance()
            items.append(self.parse_expr_single())
        if len(items) == 1:
            return items[0]
        return ast.SequenceExpr(items)

    def parse_expr_single(self) -> ast.Expr:
        token = self._peek()
        if token.is_name("for", "let") and self._peek(1).is_symbol("$"):
            return self._parse_flwor()
        if (token.is_name("some", "every") and
                self._peek(1).is_symbol("$")):
            return self._parse_quantified()
        if token.is_name("if") and self._peek(1).is_symbol("("):
            return self._parse_if()
        if token.is_name("typeswitch") and self._peek(1).is_symbol("("):
            return self._parse_typeswitch()
        return self._parse_or()

    def _parse_var_name(self) -> str:
        self._expect_symbol("$")
        return self._parse_lexical_qname()

    def _parse_flwor(self) -> ast.FLWORExpr:
        clauses: list[ast.Clause] = []
        while True:
            token = self._peek()
            if token.is_name("for") and self._peek(1).is_symbol("$"):
                self._advance()
                while True:
                    var = self._parse_var_name()
                    position_var = None
                    if self._peek().is_name("at"):
                        self._advance()
                        position_var = self._parse_var_name()
                    self._expect_name("in")
                    expr = self.parse_expr_single()
                    clauses.append(ast.ForClause(var, expr, position_var))
                    if self._peek().is_symbol(","):
                        self._advance()
                        continue
                    break
            elif token.is_name("let") and self._peek(1).is_symbol("$"):
                self._advance()
                while True:
                    var = self._parse_var_name()
                    self._expect_symbol(":=")
                    expr = self.parse_expr_single()
                    clauses.append(ast.LetClause(var, expr))
                    if self._peek().is_symbol(","):
                        self._advance()
                        continue
                    break
            elif token.is_name("where"):
                self._advance()
                clauses.append(ast.WhereClause(self.parse_expr_single()))
            elif (token.is_name("order") and self._peek(1).is_name("by")) or \
                    (token.is_name("stable") and self._peek(1).is_name("order")):
                if token.is_name("stable"):
                    self._advance()
                self._advance()
                self._expect_name("by")
                specs = [self._parse_order_spec()]
                while self._peek().is_symbol(","):
                    self._advance()
                    specs.append(self._parse_order_spec())
                clauses.append(ast.OrderByClause(specs))
            else:
                break
        self._expect_name("return")
        return_expr = self.parse_expr_single()
        if not any(isinstance(clause, (ast.ForClause, ast.LetClause))
                   for clause in clauses):
            raise XQueryStaticError("FLWOR requires a for or let clause")
        return ast.FLWORExpr(clauses, return_expr)

    def _parse_order_spec(self) -> ast.OrderSpec:
        expr = self.parse_expr_single()
        descending = False
        empty_greatest = False
        if self._peek().is_name("ascending", "descending"):
            descending = self._advance().value == "descending"
        if self._peek().is_name("empty"):
            self._advance()
            empty_greatest = self._expect_name(
                "greatest", "least").value == "greatest"
        return ast.OrderSpec(expr, descending, empty_greatest)

    def _parse_quantified(self) -> ast.QuantifiedExpr:
        quantifier = self._advance().value
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            var = self._parse_var_name()
            self._expect_name("in")
            bindings.append((var, self.parse_expr_single()))
            if self._peek().is_symbol(","):
                self._advance()
                continue
            break
        self._expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.QuantifiedExpr(quantifier, bindings, satisfies)

    def _parse_typeswitch(self) -> ast.TypeswitchExpr:
        self._expect_name("typeswitch")
        self._expect_symbol("(")
        operand = self.parse_expr()
        self._expect_symbol(")")
        cases: list[ast.TypeswitchCase] = []
        while self._peek().is_name("case"):
            self._advance()
            variable = None
            if self._peek().is_symbol("$"):
                variable = self._parse_var_name()
                self._expect_name("as")
            sequence_type = self._parse_sequence_type()
            self._expect_name("return")
            cases.append(ast.TypeswitchCase(
                variable, sequence_type, self.parse_expr_single()))
        if not cases:
            raise XQueryStaticError("typeswitch requires at least one "
                                    "case clause")
        self._expect_name("default")
        default_variable = None
        if self._peek().is_symbol("$"):
            default_variable = self._parse_var_name()
        self._expect_name("return")
        default_body = self.parse_expr_single()
        return ast.TypeswitchExpr(operand, cases, default_variable,
                                  default_body)

    def _parse_if(self) -> ast.IfExpr:
        self._expect_name("if")
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then_branch = self.parse_expr_single()
        self._expect_name("else")
        else_branch = self.parse_expr_single()
        return ast.IfExpr(condition, then_branch, else_branch)

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._peek().is_name("or"):
            self._advance()
            left = ast.OrExpr(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self._peek().is_name("and"):
            self._advance()
            left = ast.AndExpr(left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_range()
        token = self._peek()
        if token.type == "symbol" and token.value in _GENERAL_COMPARISONS:
            op = self._advance().value
            return ast.GeneralComparison(op, left, self._parse_range())
        if token.type == "symbol" and token.value in ("<<", ">>"):
            op = self._advance().value
            return ast.NodeComparison(op, left, self._parse_range())
        if token.type == "name" and token.value in _VALUE_COMPARISONS:
            op = self._advance().value
            return ast.ValueComparison(op, left, self._parse_range())
        if token.is_name("is"):
            self._advance()
            return ast.NodeComparison("is", left, self._parse_range())
        return left

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self._peek().is_name("to"):
            self._advance()
            return ast.RangeExpr(left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().is_symbol("+", "-"):
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_union()
        while (self._peek().is_symbol("*") or
               self._peek().is_name("div", "idiv", "mod")):
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_union())
        return left

    def _parse_union(self) -> ast.Expr:
        left = self._parse_intersect_except()
        while self._peek().is_symbol("|") or self._peek().is_name("union"):
            self._advance()
            left = ast.SetExpr("union", left, self._parse_intersect_except())
        return left

    def _parse_intersect_except(self) -> ast.Expr:
        left = self._parse_instance_of()
        while self._peek().is_name("intersect", "except"):
            op = self._advance().value
            left = ast.SetExpr(op, left, self._parse_instance_of())
        return left

    def _parse_instance_of(self) -> ast.Expr:
        left = self._parse_treat()
        if self._peek().is_name("instance") and self._peek(1).is_name("of"):
            self._advance()
            self._advance()
            return ast.InstanceOfExpr(left, self._parse_sequence_type())
        return left

    def _parse_treat(self) -> ast.Expr:
        left = self._parse_castable()
        if self._peek().is_name("treat") and self._peek(1).is_name("as"):
            self._advance()
            self._advance()
            return ast.TreatExpr(left, self._parse_sequence_type())
        return left

    def _parse_castable(self) -> ast.Expr:
        left = self._parse_cast()
        if self._peek().is_name("castable") and self._peek(1).is_name("as"):
            self._advance()
            self._advance()
            type_name, allow_empty = self._parse_single_type()
            return ast.CastableExpr(left, type_name, allow_empty)
        return left

    def _parse_cast(self) -> ast.Expr:
        left = self._parse_unary()
        if self._peek().is_name("cast") and self._peek(1).is_name("as"):
            self._advance()
            self._advance()
            type_name, allow_empty = self._parse_single_type()
            return ast.CastExpr(left, type_name, allow_empty)
        return left

    def _parse_single_type(self) -> tuple[str, bool]:
        lexical = self._parse_lexical_qname()
        type_name = self._resolve_type_name(lexical)
        allow_empty = False
        if self._peek().is_symbol("?"):
            self._advance()
            allow_empty = True
        return type_name, allow_empty

    def _parse_sequence_type(self) -> ast.SequenceType:
        token = self._peek()
        if token.type == "name" and self._peek(1).is_symbol("("):
            name = self._advance().value
            self._expect_symbol("(")
            self._expect_symbol(")")
            item_type = name
        else:
            item_type = self._resolve_type_name(self._parse_lexical_qname())
        occurrence = ""
        if self._peek().is_symbol("?", "*", "+"):
            occurrence = self._advance().value
        return ast.SequenceType(item_type, occurrence)

    def _parse_unary(self) -> ast.Expr:
        negate = False
        seen = False
        while self._peek().is_symbol("-", "+"):
            seen = True
            if self._advance().value == "-":
                negate = not negate
        operand = self._parse_path()
        if seen:
            return ast.UnaryMinus(operand, negate)
        return operand

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _parse_path(self) -> ast.Expr:
        token = self._peek()
        if token.is_symbol("/"):
            self._advance()
            if self._can_start_step():
                steps = self._parse_relative_steps()
            else:
                steps = []
            return ast.PathExpr("/", steps)
        if token.is_symbol("//"):
            self._advance()
            steps = self._parse_relative_steps()
            return ast.PathExpr("//", steps)
        steps = self._parse_relative_steps()
        if len(steps) == 1 and isinstance(steps[0], ast.ExprStep):
            step = steps[0]
            if not step.predicates:
                return step.expr
            return ast.FilterExpr(step.expr, step.predicates)
        return ast.PathExpr("", steps)

    def _parse_relative_steps(self) -> list[ast.Step]:
        steps = [self._parse_step()]
        while True:
            token = self._peek()
            if token.is_symbol("/"):
                self._advance()
                steps.append(self._parse_step())
            elif token.is_symbol("//"):
                self._advance()
                steps.append(ast.AxisStep("descendant-or-self",
                                          ast.KindTest("node")))
                steps.append(self._parse_step())
            else:
                break
        return steps

    def _can_start_step(self) -> bool:
        token = self._peek()
        if token.type in ("name", "string", "integer", "decimal", "double"):
            return True
        return token.is_symbol("@", "*", ".", "..", "$", "(", "<")

    def _parse_step(self) -> ast.Step:
        token = self._peek()

        if token.is_symbol(".."):
            self._advance()
            return ast.AxisStep("parent", ast.KindTest("node"),
                                self._parse_predicates())
        if token.is_symbol("@"):
            self._advance()
            test = self._parse_node_test(default_ns="")
            return ast.AxisStep("attribute", test, self._parse_predicates())
        if token.is_symbol("*"):
            test = self._parse_node_test(
                default_ns=self.prolog.default_element_namespace)
            return ast.AxisStep("child", test, self._parse_predicates())

        # Explicit axis?
        if (token.type == "name" and token.value in _AXES and
                self._peek(1).is_symbol("::")):
            axis = self._advance().value
            self._advance()  # '::'
            default_ns = ("" if axis == "attribute"
                          else self.prolog.default_element_namespace)
            test = self._parse_node_test(default_ns=default_ns)
            return ast.AxisStep(axis, test, self._parse_predicates())

        # Kind test as a step: node(), text(), ...
        if (token.type == "name" and token.value in _KIND_TESTS and
                self._peek(1).is_symbol("(") and
                self._peek(1).start == token.end):
            test = self._parse_kind_test()
            return ast.AxisStep("child", test, self._parse_predicates())

        # Name test (child axis) — but beware function calls, computed
        # constructors, and other primaries, which become ExprSteps.
        if token.type == "name":
            if (token.value in ("element", "attribute", "text", "document",
                                "comment") and self._computed_ctor_ahead()):
                primary = self._parse_primary()
                return ast.ExprStep(primary, self._parse_predicates())
            if self._is_function_call_ahead():
                primary = self._parse_primary()
                return ast.ExprStep(primary, self._parse_predicates())
            lexical = self._parse_lexical_qname_or_wildcard()
            test = self._make_name_test(
                lexical, default_ns=self.prolog.default_element_namespace)
            return ast.AxisStep("child", test, self._parse_predicates())

        primary = self._parse_primary()
        return ast.ExprStep(primary, self._parse_predicates())

    def _is_function_call_ahead(self) -> bool:
        """NAME [':' NAME] '(' — adjacency-checked, reserved names excluded."""
        first = self._peek()
        if first.type != "name":
            return False
        offset = 1
        name = first.value
        if (self._peek(1).is_symbol(":") and self._peek(1).start == first.end
                and self._peek(2).type == "name"
                and self._peek(2).start == self._peek(1).end):
            name = f"{first.value}:{self._peek(2).value}"
            offset = 3
        if not self._peek(offset).is_symbol("("):
            return False
        return name not in _RESERVED_FUNCTION_NAMES

    def _parse_lexical_qname_or_wildcard(self) -> str:
        """QName | * | prefix:* | *:local, returned in lexical form."""
        if self._peek().is_symbol("*"):
            star = self._advance()
            if (self._peek().is_symbol(":") and
                    self._peek().start == star.end and
                    self._peek(1).type == "name"):
                self._advance()
                local = self._advance()
                return f"*:{local.value}"
            return "*"
        first = self._expect_name()
        if (self._peek().is_symbol(":") and self._peek().start == first.end):
            colon = self._advance()
            if self._peek().is_symbol("*") and self._peek().start == colon.end:
                self._advance()
                return f"{first.value}:*"
            local = self._expect_name()
            return f"{first.value}:{local.value}"
        return first.value

    def _make_name_test(self, lexical: str, default_ns: str) -> ast.NameTest:
        if lexical == "*":
            return ast.NameTest(None, None)
        if lexical.startswith("*:"):
            return ast.NameTest(None, lexical[2:])
        if lexical.endswith(":*"):
            prefix = lexical[:-2]
            uri = self.prolog.namespaces.get(prefix)
            if uri is None:
                raise XQueryStaticError(
                    f"undeclared namespace prefix {prefix!r}",
                    code="XPST0081")
            return ast.NameTest(uri, None, prefix)
        qname = self._resolve(lexical, default_ns)
        return ast.NameTest(qname.uri, qname.local, qname.prefix)

    def _parse_node_test(self, default_ns: str) -> ast.NodeTest:
        token = self._peek()
        if (token.type == "name" and token.value in _KIND_TESTS and
                self._peek(1).is_symbol("(") and
                self._peek(1).start == token.end):
            return self._parse_kind_test()
        lexical = self._parse_lexical_qname_or_wildcard()
        return self._make_name_test(lexical, default_ns)

    def _parse_kind_test(self) -> ast.KindTest:
        name = self._advance().value
        self._expect_symbol("(")
        target = None
        if name == "processing-instruction" and not self._peek().is_symbol(")"):
            token = self._advance()
            if token.type not in ("name", "string"):
                raise XQueryStaticError("expected PI target")
            target = token.value
        self._expect_symbol(")")
        kind = "document" if name == "document-node" else name
        return ast.KindTest(kind, target)

    def _parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self._peek().is_symbol("["):
            self._advance()
            predicates.append(self.parse_expr())
            self._expect_symbol("]")
        return predicates

    # ------------------------------------------------------------------
    # Primary expressions
    # ------------------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type == "string":
            self._advance()
            return ast.Literal(atomic.string(token.value))
        if token.type == "integer":
            self._advance()
            return ast.Literal(atomic.integer(int(token.value)))
        if token.type == "decimal":
            self._advance()
            return ast.Literal(atomic.decimal(token.value))
        if token.type == "double":
            self._advance()
            return ast.Literal(atomic.double(float(token.value)))
        if token.is_symbol("$"):
            self._advance()
            return ast.VarRef(self._parse_lexical_qname())
        if token.is_symbol("."):
            self._advance()
            return ast.ContextItem()
        if token.is_symbol("("):
            self._advance()
            if self._peek().is_symbol(")"):
                self._advance()
                return ast.SequenceExpr([])
            inner = self.parse_expr()
            self._expect_symbol(")")
            return inner
        if token.is_symbol("<"):
            return self._parse_direct_constructor()
        if token.type == "name":
            if token.value in ("element", "attribute", "text", "document",
                               "comment") and self._computed_ctor_ahead():
                return self._parse_computed_constructor()
            if self._is_function_call_ahead():
                return self._parse_function_call()
        raise XQueryStaticError(
            f"unexpected token {token.value!r} at offset {token.start}")

    def _computed_ctor_ahead(self) -> bool:
        """'element'/'attribute' followed by '{' or by a QName then '{'."""
        second = self._peek(1)
        if second.is_symbol("{"):
            return True
        if second.type != "name":
            return False
        offset = 2
        if (self._peek(2).is_symbol(":") and
                self._peek(3).type == "name"):
            offset = 4
        return self._peek(offset).is_symbol("{")

    def _parse_computed_constructor(self) -> ast.Expr:
        keyword = self._advance().value
        if keyword in ("text", "document", "comment"):
            self._expect_symbol("{")
            content = self.parse_expr()
            self._expect_symbol("}")
            if keyword == "text":
                return ast.ComputedTextConstructor(content)
            if keyword == "document":
                return ast.ComputedDocumentConstructor(content)
            raise XQueryStaticError("computed comment constructors are "
                                    "not supported")
        if self._peek().is_symbol("{"):
            self._advance()
            name_expr = self.parse_expr()
            self._expect_symbol("}")
            name: str | ast.Expr = name_expr
        else:
            name = self._parse_lexical_qname()
        content: ast.Expr | None = None
        self._expect_symbol("{")
        if not self._peek().is_symbol("}"):
            content = self.parse_expr()
        self._expect_symbol("}")
        if keyword == "element":
            return ast.ComputedElementConstructor(name, content)
        return ast.ComputedAttributeConstructor(name, content)

    def _parse_function_call(self) -> ast.FunctionCall:
        lexical = self._parse_lexical_qname()
        name = self._resolve(lexical, default_ns=FN_NS)
        self._expect_symbol("(")
        args: list[ast.Expr] = []
        if not self._peek().is_symbol(")"):
            args.append(self.parse_expr_single())
            while self._peek().is_symbol(","):
                self._advance()
                args.append(self.parse_expr_single())
        self._expect_symbol(")")
        return ast.FunctionCall(name, args)

    # ------------------------------------------------------------------
    # Direct element constructors (raw-mode scanning)
    # ------------------------------------------------------------------

    def _parse_direct_constructor(self) -> ast.DirectElementConstructor:
        start_token = self._peek()
        assert start_token.is_symbol("<")
        self._reset_to(start_token.start)
        constructor, end = self._scan_element(self.pos)
        self._reset_to(end)
        return constructor

    def _raw(self, pos: int) -> str:
        return self.source[pos] if pos < len(self.source) else ""

    def _scan_name_raw(self, pos: int) -> tuple[str, int]:
        start = pos
        while pos < len(self.source) and (
                self.source[pos].isalnum() or
                self.source[pos] in "_-.:" or ord(self.source[pos]) > 127):
            pos += 1
        if pos == start:
            raise XQueryStaticError(
                f"expected a name at offset {start} in constructor")
        return self.source[start:pos], pos

    def _skip_ws_raw(self, pos: int) -> int:
        while self._raw(pos) in (" ", "\t", "\r", "\n") and self._raw(pos):
            pos += 1
        return pos

    def _scan_element(self, pos: int
                      ) -> tuple[ast.DirectElementConstructor, int]:
        assert self._raw(pos) == "<"
        pos += 1
        name, pos = self._scan_name_raw(pos)
        namespace_declarations: dict[str, str] = {}
        attributes: list[tuple[str, ast.AttributeValueTemplate]] = []

        while True:
            pos = self._skip_ws_raw(pos)
            char = self._raw(pos)
            if char in (">", "/"):
                break
            if char == "":
                raise XQueryStaticError(f"unterminated start tag <{name}>")
            attribute_name, pos = self._scan_name_raw(pos)
            pos = self._skip_ws_raw(pos)
            if self._raw(pos) != "=":
                raise XQueryStaticError(
                    f"expected '=' after attribute {attribute_name!r}")
            pos = self._skip_ws_raw(pos + 1)
            template, pos = self._scan_attribute_value(pos)
            if attribute_name == "xmlns":
                namespace_declarations[""] = _template_as_uri(template)
            elif attribute_name.startswith("xmlns:"):
                namespace_declarations[attribute_name[6:]] = \
                    _template_as_uri(template)
            else:
                attributes.append((attribute_name, template))

        content: list[str | ast.Expr | ast.DirectElementConstructor] = []
        if self._raw(pos) == "/":
            if self._raw(pos + 1) != ">":
                raise XQueryStaticError("expected '/>'")
            return ast.DirectElementConstructor(
                name, namespace_declarations, attributes, content), pos + 2
        pos += 1  # consume '>'

        pos = self._scan_content(pos, content, name)
        return ast.DirectElementConstructor(
            name, namespace_declarations, attributes, content), pos

    def _scan_attribute_value(self, pos: int
                              ) -> tuple[ast.AttributeValueTemplate, int]:
        quote = self._raw(pos)
        if quote not in ("'", '"'):
            raise XQueryStaticError("attribute value must be quoted")
        pos += 1
        parts: list[str | ast.Expr] = []
        text: list[str] = []
        while True:
            char = self._raw(pos)
            if char == "":
                raise XQueryStaticError("unterminated attribute value")
            if char == quote:
                if self._raw(pos + 1) == quote:
                    text.append(quote)
                    pos += 2
                    continue
                break
            if char == "{":
                if self._raw(pos + 1) == "{":
                    text.append("{")
                    pos += 2
                    continue
                if text:
                    parts.append("".join(text))
                    text = []
                expr, pos = self._scan_enclosed(pos)
                parts.append(expr)
                continue
            if char == "}":
                if self._raw(pos + 1) == "}":
                    text.append("}")
                    pos += 2
                    continue
                raise XQueryStaticError("'}' must be escaped in attribute "
                                        "value")
            if char == "&":
                end = self.source.find(";", pos)
                if end < 0 or end - pos > 12:
                    raise XQueryStaticError("malformed entity reference")
                text.append(_resolve_entity(self.source[pos + 1:end]))
                pos = end + 1
                continue
            text.append(char)
            pos += 1
        if text:
            parts.append("".join(text))
        return ast.AttributeValueTemplate(parts), pos + 1

    def _scan_enclosed(self, pos: int) -> tuple[ast.Expr, int]:
        """Parse one ``{ Expr }`` enclosure via the main parser."""
        assert self._raw(pos) == "{"
        saved_buffer = list(self._buffer)
        saved_pos = self.pos
        self._reset_to(pos + 1)
        expr = self.parse_expr()
        closing = self._peek()
        if not closing.is_symbol("}"):
            raise XQueryStaticError(
                f"expected '}}' at offset {closing.start}")
        end = closing.end
        self._buffer = saved_buffer
        self.pos = saved_pos
        return expr, end

    def _scan_content(self, pos: int,
                      content: list,
                      element_name: str) -> int:
        text: list[str] = []

        def flush(boundary: bool) -> None:
            """Emit accumulated text; drop boundary whitespace."""
            if not text:
                return
            segment = "".join(text)
            text.clear()
            if boundary and not segment.strip():
                return
            content.append(segment)

        while True:
            char = self._raw(pos)
            if char == "":
                raise XQueryStaticError(
                    f"unterminated element constructor <{element_name}>")
            if char == "<":
                if self.source.startswith("</", pos):
                    flush(boundary=True)
                    pos += 2
                    closing, pos = self._scan_name_raw(pos)
                    if closing != element_name:
                        raise XQueryStaticError(
                            f"mismatched </{closing}> for <{element_name}>")
                    pos = self._skip_ws_raw(pos)
                    if self._raw(pos) != ">":
                        raise XQueryStaticError("expected '>' in closing tag")
                    return pos + 1
                if self.source.startswith("<!--", pos):
                    end = self.source.find("-->", pos + 4)
                    if end < 0:
                        raise XQueryStaticError("unterminated comment")
                    pos = end + 3
                    continue
                if self.source.startswith("<![CDATA[", pos):
                    end = self.source.find("]]>", pos + 9)
                    if end < 0:
                        raise XQueryStaticError("unterminated CDATA")
                    text.append(self.source[pos + 9:end])
                    pos = end + 3
                    continue
                flush(boundary=True)
                child, pos = self._scan_element(pos)
                content.append(child)
                continue
            if char == "{":
                if self._raw(pos + 1) == "{":
                    text.append("{")
                    pos += 2
                    continue
                flush(boundary=True)
                expr, pos = self._scan_enclosed(pos)
                content.append(expr)
                continue
            if char == "}":
                if self._raw(pos + 1) == "}":
                    text.append("}")
                    pos += 2
                    continue
                raise XQueryStaticError("'}' must be escaped in element "
                                        "content")
            if char == "&":
                end = self.source.find(";", pos)
                if end < 0 or end - pos > 12:
                    raise XQueryStaticError("malformed entity reference")
                text.append(_resolve_entity(self.source[pos + 1:end]))
                pos = end + 1
                continue
            text.append(char)
            pos += 1


def _template_as_uri(template: ast.AttributeValueTemplate) -> str:
    if len(template.parts) == 1 and isinstance(template.parts[0], str):
        return template.parts[0]
    if not template.parts:
        return ""
    raise XQueryStaticError("namespace declaration value must be a literal")
