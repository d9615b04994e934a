"""Unit tests for the XQuery evaluator (dynamic semantics)."""

import pytest

from repro.errors import XQueryDynamicError, XQueryError, XQueryTypeError
from repro.xdm import atomic
from repro.xmlio import parse_document, serialize_sequence
from repro.xquery import evaluate
from repro.xquery.evaluator import evaluate as ev


DOC = parse_document(
    "<order><custid>1001</custid>"
    "<lineitem price='120' quantity='2'><product><id>17</id></product>"
    "</lineitem>"
    "<lineitem price='90'><product><id>18</id></product></lineitem>"
    "<!--note--><?hint x?></order>")


def run(query: str, **variables) -> str:
    bound = {name: value if isinstance(value, list) else [value]
             for name, value in variables.items()}
    return serialize_sequence(ev(query, variables=bound))


class TestPaths:
    def test_child_navigation(self):
        assert run("$d/order/custid", d=DOC) == "<custid>1001</custid>"

    def test_descendant(self):
        assert run("count($d//product)", d=DOC) == "2"

    def test_attributes_only_via_attribute_axis(self):
        # §3.9: child/descendant axes never return attributes.
        assert run("count($d//@*)", d=DOC) == "3"
        # From the document node, //node() includes <order> itself.
        assert run("count($d//node())", d=DOC) == "13"
        assert run("count($d//*)", d=DOC) == "8"

    def test_predicate_filtering(self):
        assert run("$d//lineitem[@price > 100]/@price/data(.)",
                   d=DOC) == "120"

    def test_positional_predicates(self):
        assert run("$d//lineitem[2]/@price/data(.)", d=DOC) == "90"
        assert run("$d//lineitem[last()]/@price/data(.)", d=DOC) == "90"
        assert run("$d//lineitem[position() < 2]/@price/data(.)",
                   d=DOC) == "120"

    @pytest.mark.parametrize("predicate, expected", [
        ("2", "20"), ("2.0", "20"), ("2e0", "20"),
        ("2.0000000000000000001", ""), ("2.5", ""), ("0", ""), ("-1", ""), ("4", ""),
        ("xs:double('NaN')", ""), ("xs:double('INF')", ""),
        ("3 - 1", "20"), ("xs:decimal('2.0000000000000000001')", ""),
        ("1 + 1.0000000000000000001", "")])
    def test_a_numeric_predicate_is_position_eq_value(self, predicate,
                                                       expected):
        # position() eq $value under the one promotion rule: a decimal
        # meets the integer position exactly, a double as a double.
        assert run(f"(10, 20, 30)[{predicate}]") == expected

    def test_doc_order_dedup(self):
        # Both branches find the same nodes; union keeps one copy.
        assert run("count(($d//product, $d//product))", d=DOC) == "4"
        assert run("count($d//product | $d//product)", d=DOC) == "2"

    def test_parent_axis(self):
        assert run("$d//id[. = '17']/../../@price/data(.)", d=DOC) == "120"

    def test_kind_tests(self):
        assert run("count($d//comment())", d=DOC) == "1"
        assert run("count($d//processing-instruction())", d=DOC) == "1"
        assert run("count($d//processing-instruction(hint))", d=DOC) == "1"
        assert run("count($d//processing-instruction(other))", d=DOC) == "0"
        assert run("count($d//text())", d=DOC) == "3"

    def test_leading_slash_requires_document_root(self):
        # Query 25: absolute paths under constructed elements error.
        with pytest.raises(XQueryDynamicError) as error:
            ev("let $o := <a>{$d/order}</a> return $o[//custid]",
               variables={"d": [DOC]})
        assert "XPDY0050" in str(error.value)

    def test_context_item_undefined(self):
        with pytest.raises(XQueryError):
            ev("lineitem")

    def test_mixed_step_result_rejected(self):
        with pytest.raises(XQueryTypeError):
            ev("$d/order/(custid, 1)", variables={"d": [DOC]})

    def test_mixed_leading_step_rejected_before_the_axis(self):
        # The path's first primary is a step too: XPTY0018, not the
        # next step's XPTY0020 for an atomic context item.
        with pytest.raises(XQueryTypeError) as error:
            ev("(1, $d)/order", variables={"d": [DOC]})
        assert error.value.code == "XPTY0018"

    def test_axis_on_atomic_rejected(self):
        with pytest.raises(XQueryTypeError):
            ev("(1)/a")


class TestFLWOR:
    def test_for_iterates(self):
        assert run("for $i in (1,2,3) return $i * 2") == "2 4 6"

    def test_let_preserves_empty(self):
        # §3.4: a let binding produces a tuple even for ().
        assert run("for $i in (1,2) let $x := ()[1] "
                   "return count($x)") == "0 0"

    def test_where_discards(self):
        assert run("for $i in (1,2,3) where $i >= 2 return $i") == "2 3"

    def test_where_discards_empty_let(self):
        # Query 20/21 equivalence base case.
        query = ("for $li in $d//lineitem let $p := $li/@price "
                 "where $p > 100 return $li/@price/data(.)")
        assert run(query, d=DOC) == "120"

    def test_order_by(self):
        assert run("for $i in (3,1,2) order by $i return $i") == "1 2 3"
        assert run("for $i in (3,1,2) order by $i descending "
                   "return $i") == "3 2 1"

    def test_order_by_empty_least(self):
        assert run("for $x in (<a n='2'/>, <a/>, <a n='1'/>) "
                   "order by $x/@n return count($x/@n)") == "0 1 1"
        assert run("for $x in (<a n='2'/>, <a/>, <a n='1'/>) "
                   "order by $x/@n empty greatest "
                   "return count($x/@n)") == "1 1 0"

    def test_position_variable(self):
        assert run("for $x at $p in ('a','b') return $p") == "1 2"

    def test_cartesian_product(self):
        assert run("for $i in (1,2), $j in (10,20) return $i+$j") == \
            "11 21 12 22"


class TestConstructors:
    def test_atomics_space_joined(self):
        # §3.6: sequences of atomics join with single spaces.
        assert run("<a>{1, 2, 3}</a>") == "<a>1 2 3</a>"

    def test_literal_text_breaks_joining(self):
        assert run("<a>{1}-{2}</a>") == "<a>1-2</a>"

    def test_copied_nodes_lose_types(self):
        # Constructed content is untyped (strip mode default).
        document = parse_document("<v>42</v>")
        from repro.schema import Schema, validate
        validate(document, Schema("s").declare("v", "xs:double"))
        result = ev("<w>{$d/v}</w>/v/data(.)", variables={"d": [document]})
        assert result[0].type_name == "xdt:untypedAtomic"

    def test_duplicate_attribute_error(self):
        # §3.6 item 4 — duplicate @price raises XQDY0025.
        document = parse_document(
            "<l><p price='1'/><p price='2'/></l>")
        with pytest.raises(XQueryDynamicError) as error:
            ev("<item>{$d//@price}</item>", variables={"d": [document]})
        assert "XQDY0025" in str(error.value)

    def test_attribute_after_content_error(self):
        with pytest.raises(XQueryTypeError):
            ev("<a>{'x', $d//@price}</a>", variables={"d": [DOC]})

    def test_attribute_value_template(self):
        assert run('<a b="{1+1}-{2}"/>') == '<a b="2-2"/>'

    def test_document_content_unwrapped(self):
        assert run("<wrap>{$d}</wrap>/order/custid/data(.)",
                   d=DOC) == "1001"

    def test_computed_element_and_attribute(self):
        assert run("element foo { attribute bar {'b'}, 'content' }") == \
            '<foo bar="b">content</foo>'

    def test_computed_text(self):
        assert run("<a>{text {'t'}}</a>") == "<a>t</a>"
        assert run("count(text { () })") == "0"

    def test_constructed_namespace(self):
        assert run('declare default element namespace "http://d"; '
                   'namespace-uri(<a/>)') == "http://d"

    def test_concatenation_of_multiple_ids(self):
        # §3.6 item 3: <pid>{$i/product/id/data(.)}</pid> over p1,p2
        # yields the space-joined string "p1 p2".
        document = parse_document(
            "<product><id>p1</id><id>p2</id></product>")
        assert run("<pid>{$d/product/id/data(.)}</pid>/data(.)",
                   d=document) == "p1 p2"


class TestOperatorsAndTypes:
    def test_arithmetic(self):
        assert run("7 div 2") == "3.5"
        assert run("7 idiv 2") == "3"
        assert run("7 mod 2") == "1"
        assert run("-(3)") == "-3"

    def test_division_by_zero(self):
        with pytest.raises(XQueryDynamicError):
            ev("1 div 0")

    @pytest.mark.parametrize("op, flipped", [
        ("<", ">"), ("<=", ">="), (">", "<"), (">=", "<="), ("=", "="),
        ("!=", "!=")])
    @pytest.mark.parametrize("literal", ["90", "100", "120", "150", '"100"'])
    def test_literal_on_either_side_of_a_comparison(self, op, flipped,
                                                    literal):
        # Prices 120 and 90: every operator and bound is decided by one
        # side, so an operand swapped while lowering shows.
        prices = "$d//lineitem/@price"
        assert run(f"{literal} {op} {prices}", d=DOC) == \
            run(f"{prices} {flipped} {literal}", d=DOC)

    def test_arithmetic_empty_propagates(self):
        assert run("count(() + 1)") == "0"

    def test_untyped_arithmetic_is_double(self):
        result = ev("$d//lineitem[1]/@price + 1", variables={"d": [DOC]})
        assert result[0].type_name == "xs:double"

    def test_cast_expression(self):
        assert run("'99.5' cast as xs:double + 0.5") == "100"

    def test_cast_empty_with_question_mark(self):
        assert run("count(() cast as xs:double?)") == "0"

    def test_treat_failure(self):
        with pytest.raises(XQueryDynamicError):
            ev("<a/> treat as document-node()")

    def test_instance_of(self):
        assert run("1 instance of xs:integer") == "true"
        assert run("(1,2) instance of xs:integer") == "false"
        assert run("(1,2) instance of xs:integer+") == "true"
        assert run("<a/> instance of element()") == "true"

    def test_quantified(self):
        assert run("some $x in (1,2,3) satisfies $x > 2") == "true"
        assert run("every $x in (1,2,3) satisfies $x > 2") == "false"
        assert run("every $x in () satisfies $x > 2") == "true"

    def test_if_branches(self):
        assert run("if (()) then 1 else 2") == "2"

    def test_set_operations(self):
        assert run("count($d//lineitem except $d//lineitem[1])",
                   d=DOC) == "1"
        assert run("count($d//* intersect $d//product)", d=DOC) == "2"

    def test_except_on_fresh_copies_removes_nothing(self):
        # §3.6 item 5: constructed copies have new identities.
        assert run("count(<a>{$d//product}</a>/product except "
                    "$d//product)", d=DOC) == "2"


class TestFunctions:
    def test_string_functions(self):
        assert run("concat('a', 'b', 'c')") == "abc"
        assert run("string-join(('p1','p2'), ' ')") == "p1 p2"
        assert run("substring('hamburger', 5, 3)") == "urg"
        assert run("contains('hello', 'ell')") == "true"
        assert run("normalize-space('  a   b ')") == "a b"
        assert run("upper-case('aBc')") == "ABC"
        assert run("substring-before('a=b', '=')") == "a"
        assert run("substring-after('a=b', '=')") == "b"
        assert run("translate('abc', 'abc', 'xyz')") == "xyz"
        assert run("string-length('abcd')") == "4"

    def test_aggregates(self):
        assert run("sum((1,2,3))") == "6"
        assert run("avg((1,2,3))") == "2"
        assert run("max((1,5,3))") == "5"
        assert run("min((4,2,8))") == "2"
        assert run("count(())") == "0"
        assert run("sum(())") == "0"
        assert run("count(avg(()))") == "0"

    def test_sequences(self):
        assert run("exists(())") == "false"
        assert run("empty(())") == "true"
        assert run("distinct-values((1, 1, 2, '2'))") == "1 2 2"
        assert run("reverse((1,2,3))") == "3 2 1"
        assert run("subsequence((1,2,3,4), 2, 2)") == "2 3"
        assert run("index-of((10,20,10), 10)") == "1 3"

    def test_cardinality_checks(self):
        assert run("exactly-one((5))") == "5"
        with pytest.raises(XQueryTypeError):
            ev("exactly-one((1,2))")
        with pytest.raises(XQueryTypeError):
            ev("zero-or-one((1,2))")
        with pytest.raises(XQueryTypeError):
            ev("one-or-more(())")

    def test_node_functions(self):
        assert run("local-name($d/order)", d=DOC) == "order"
        assert run("name(($d//@price)[1])", d=DOC) == "price"
        assert run("count(root(($d//id)[1]))", d=DOC) == "1"

    def test_number_and_data(self):
        assert run("number('12.5') + 0.5") == "13"
        assert run("string(number('abc'))") == "NaN"
        # //id[1] applies the predicate per parent: both ids qualify.
        assert run("data($d//id[1])", d=DOC) == "17 18"
        assert run("data(($d//id)[1])", d=DOC) == "17"

    def test_numeric_functions(self):
        assert run("abs(-2)") == "2"
        assert run("floor(2.7)") == "2"
        assert run("ceiling(2.1)") == "3"
        assert run("round(2.5)") == "3"

    def test_deep_equal(self):
        assert run("deep-equal(<a x='1'>t</a>, <a x='1'>t</a>)") == "true"
        assert run("deep-equal(<a x='1'/>, <a x='2'/>)") == "false"

    def test_boolean_functions(self):
        assert run("not(())") == "true"
        assert run("boolean((1))") == "true"

    def test_unknown_function(self):
        with pytest.raises(XQueryError):
            ev("no-such-function(1)")

    def test_wrong_arity(self):
        with pytest.raises(XQueryError):
            ev("count(1, 2)")

    def test_xs_constructors(self):
        assert run("xs:double('1e2')") == "100"
        assert run("xs:integer('42') + 1") == "43"
        assert run("string(xs:date('2006-09-12'))") == "2006-09-12"
        assert run("count(xs:double(()))") == "0"

    def test_xmlcolumn_requires_database(self):
        with pytest.raises(XQueryDynamicError):
            evaluate("db2-fn:xmlcolumn('T.C')")


class TestStaticErrorsRaiseWhenReached:
    """A module is lowered once, as a whole; an error found while
    lowering a branch belongs to that branch and raises only if it
    runs, after everything evaluated before it."""

    @pytest.mark.parametrize("query", [
        "if (1 = 2) then no-such-function(1) else 7",
        "if (1 = 2) then count(1, 2) else 7",
        "if (1 = 2) then <p:a/> else 7",
        "if (1 = 2) then element p:a {()} else 7",
        "if (1 = 2) then <a b='1' b='2'/> else 7",
    ])
    def test_untaken_branch_does_not_raise(self, query):
        assert run(query) == "7"

    @pytest.mark.parametrize("query, code", [
        ("if (1 = 1) then no-such-function(1) else 7", "XPST0017"),
        ("if (1 = 1) then count(1, 2) else 7", "XPST0017"),
        ("<p:a/>", "XPST0081"),
        ("<a b='1' b='2'/>", "XQDY0025"),
        # attribute values before the failing name are built first
        ("<a b='{1 div 0}' p:c='x'/>", "FOAR0001"),
        ("<a b='{1 div 0}' b='x'/>", "FOAR0001"),
        ("<a p:c='x' b='{1 div 0}'/>", "XPST0081"),
    ])
    def test_taken_branch_raises_in_order(self, query, code):
        with pytest.raises(XQueryError) as error:
            ev(query)
        assert error.value.code == code


class TestLowerOnce:
    def test_sub_expression_is_lowered_once_per_module(self, monkeypatch):
        """The SQL join probe's operand shares its module's lowering: a
        second request lowers nothing, not even the prolog functions."""
        from repro.xquery import evaluator
        from repro.xquery.parser import parse_xquery
        module = parse_xquery(
            "declare function local:twice($x) { $x * 2 }; "
            "$d//lineitem[@price = local:twice($p)]")
        operand = module.body.steps[-1].predicates[0].right
        lowered = []
        lower = evaluator._Lowering.lower
        monkeypatch.setattr(evaluator._Lowering, "lower",
                            lambda self, expr: lowered.append(expr)
                            or lower(self, expr))
        first = evaluator.lower_expression(module, operand)
        assert lowered
        lowered.clear()
        second = evaluator.lower_expression(module, operand)
        assert lowered == []
        for run_probe in (first, second):
            assert run_probe({"p": [atomic.integer(60)]}) == [
                atomic.integer(120)]
