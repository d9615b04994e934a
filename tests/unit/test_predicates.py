"""Unit tests for predicate extraction and context classification."""

from repro.core.predicates import (PredicateContext, extract_candidates)
from repro.xquery.parser import parse_xquery

COLUMN = "orders.orddoc"
XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def candidates(query: str):
    return extract_candidates(parse_xquery(query))


def single(query: str):
    found = candidates(query)
    assert len(found) >= 1, f"no candidates in {query}"
    return found[0]


class TestPathsAndTypes:
    def test_simple_filter(self):
        candidate = single(f"{XMLCOL}//order[lineitem/@price>100]")
        assert candidate.column == COLUMN
        assert str(candidate.path) == "//order/lineitem/@price"
        assert candidate.op == ">"
        assert candidate.operand_type == "DOUBLE"
        assert candidate.operand_value.value == 100
        assert candidate.context is PredicateContext.PATH_FILTER

    def test_string_literal_gives_varchar(self):
        candidate = single(f'{XMLCOL}//order[lineitem/@price > "100"]')
        assert candidate.operand_type == "VARCHAR"

    def test_flipped_comparison(self):
        candidate = single(f"{XMLCOL}//order[100 < lineitem/@price]")
        assert candidate.op == ">"
        assert str(candidate.path) == "//order/lineitem/@price"

    def test_cast_forces_type(self):
        query = (f"for $i in {XMLCOL}/order "
                 f"for $j in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer "
                 f"where $i/custid/xs:double(.) = $j/id/xs:double(.) "
                 f"return $i")
        found = candidates(query)
        columns = {candidate.column: candidate for candidate in found}
        assert columns["orders.orddoc"].operand_type == "DOUBLE"
        assert columns["customer.cdoc"].operand_type == "DOUBLE"
        assert str(columns["orders.orddoc"].path) == "/order/custid"

    def test_join_without_casts_has_unknown_type(self):
        query = (f"for $i in {XMLCOL}/order "
                 f"for $j in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer "
                 f"where $i/custid = $j/id return $i")
        for candidate in candidates(query):
            assert candidate.operand_type is None
            assert candidate.operand_expr is not None

    def test_exists_candidate(self):
        query = (f"for $i in {XMLCOL}/order "
                 f"where $i/lineitem return $i")
        candidate = single(query)
        assert candidate.op == "exists"
        assert candidate.operand_type == "VARCHAR"

    def test_attribute_singleton_flag(self):
        candidate = single(f"{XMLCOL}//lineitem[@price > 100]")
        assert candidate.singleton_guaranteed

    def test_element_general_comparison_not_singleton(self):
        candidate = single(f"{XMLCOL}//lineitem[price > 100]")
        assert not candidate.singleton_guaranteed

    def test_value_comparison_singleton(self):
        candidate = single(f"{XMLCOL}//lineitem[price gt 100]")
        assert candidate.singleton_guaranteed

    def test_self_axis_singleton(self):
        candidate = single(f"{XMLCOL}//lineitem/price[. > 100]")
        assert candidate.singleton_guaranteed

    def test_date_cast(self):
        candidate = single(
            f'{XMLCOL}//order[date/xs:date(.) > xs:date("2006-01-01")]')
        assert candidate.operand_type == "DATE"


class TestContexts:
    def test_for_binding(self):
        query = (f"for $d in {XMLCOL} "
                 f"for $i in $d//lineitem[@price > 100] return $i")
        candidate = single(query)
        assert candidate.context is PredicateContext.FOR_BINDING

    def test_let_binding(self):
        query = (f"for $d in {XMLCOL} "
                 f"let $i := $d//lineitem[@price > 100] "
                 f"return <r>{{$i}}</r>")
        candidate = single(query)
        assert candidate.context is PredicateContext.LET_BINDING

    def test_let_upgraded_by_where(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"let $p := $d/lineitem[@price > 100] "
                 f"where $p return <r>{{$d/lineitem}}</r>")
        candidate = single(query)
        assert candidate.context is PredicateContext.LET_WITH_WHERE

    def test_where_clause(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"where $d/lineitem/@price > 100 return $d")
        candidate = single(query)
        assert candidate.context is PredicateContext.WHERE_CLAUSE

    def test_return_bindout(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"return $d/lineitem[@price > 100]")
        candidate = single(query)
        assert candidate.context is PredicateContext.RETURN_BINDOUT

    def test_constructor_content(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"return <r>{{$d/lineitem[@price > 100]}}</r>")
        candidate = single(query)
        assert candidate.context is PredicateContext.CONSTRUCTOR_CONTENT

    def test_some_quantifier(self):
        query = (f"some $d in {XMLCOL}//lineitem "
                 f"satisfies $d/@price > 100")
        found = candidates(query)
        assert any(candidate.context is PredicateContext.QUANTIFIED_SOME
                   for candidate in found)

    def test_negation_flag(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"where not($d/lineitem/@price > 100) return $d")
        candidate = single(query)
        assert candidate.negated

    def test_double_negation_cancels(self):
        query = (f"for $d in {XMLCOL}/order "
                 f"where not(not($d/lineitem/@price > 100)) return $d")
        candidate = single(query)
        assert not candidate.negated

    def test_disjunction_grouping(self):
        query = (f"for $d in {XMLCOL}/order where "
                 f"$d/lineitem/@price > 100 or $d/custid = 1 return $d")
        found = candidates(query)
        groups = {candidate.disjunction_group for candidate in found}
        assert all(candidate.in_disjunction for candidate in found)
        assert len(groups) == 1

    def test_conjunction_grouping(self):
        query = (f"{XMLCOL}//lineitem[@price > 100 and @price < 200]")
        found = candidates(query)
        assert len(found) == 2
        assert found[0].conjunct_group == found[1].conjunct_group
        assert not found[0].in_disjunction


class TestUnanalyzable:
    def test_parent_axis_bails(self):
        assert candidates(f"{XMLCOL}//id[../@x > 1]/..") == []

    def test_unknown_function_path_bails(self):
        assert candidates(
            f"{XMLCOL}//order[concat(custid, 'x') = '1x']") == []

    def test_variable_without_origin(self):
        assert candidates("$undefined//a[b > 1]") == []

    def test_attribute_below_a_child_step_not_singleton(self):
        candidate = single(f"{XMLCOL}//o[l/@price > 100]")
        assert not candidate.singleton_guaranteed

    def test_cast_attribute_singleton(self):
        candidate = single(f"{XMLCOL}//l[xs:double(@price) > 100]")
        assert candidate.singleton_guaranteed

    def test_wildcard_attribute_not_singleton(self):
        candidate = single(f"{XMLCOL}//l[@* > 100]")
        assert not candidate.singleton_guaranteed
