"""Unit tests for the eligibility checker and its reason codes."""

import pytest

from repro.core import Reason, analyze_eligibility
from repro.core.eligibility import check_index
from repro.core.predicates import extract_candidates
from repro.xquery.parser import parse_xquery

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def verdict_for(indexed_db, index_name: str, query: str):
    module = parse_xquery(query)
    candidates = extract_candidates(module)
    index = indexed_db.xml_indexes[index_name]
    matching = [candidate for candidate in candidates
                if candidate.column == f"{index.table}.{index.column}"]
    assert matching, "no candidate extracted for the index's column"
    return check_index(index, matching[0])


class TestVerdicts:
    def test_query1_eligible(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i")
        assert verdict.eligible
        assert verdict.reasons == [Reason.ELIGIBLE]

    def test_query2_wildcard_not_contained(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f"for $i in {XMLCOL}//order[lineitem/@*>100] return $i")
        assert not verdict.eligible
        assert Reason.PATTERN_NOT_CONTAINED in verdict.reasons

    def test_query3_type_mismatch(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f'for $i in {XMLCOL}//order[lineitem/@price > "100"] '
            f"return $i")
        assert not verdict.eligible
        assert Reason.TYPE_MISMATCH in verdict.reasons

    def test_untyped_join_unknown(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "o_custid",
            f"for $i in {XMLCOL}/order "
            f"for $j in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer "
            f"where $i/custid = $j/id return $i")
        assert not verdict.eligible
        assert Reason.TYPE_UNKNOWN in verdict.reasons

    def test_let_binding_reason(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f"for $d in {XMLCOL} let $i := $d//lineitem[@price > 100] "
            f"return <r>{{$i}}</r>")
        assert not verdict.eligible
        assert Reason.LET_BINDING in verdict.reasons

    def test_constructor_reason(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f"for $d in {XMLCOL}/order "
            f"return <r>{{$d/lineitem[@price > 100]}}</r>")
        assert not verdict.eligible
        assert Reason.CONSTRUCTOR_CONTENT in verdict.reasons

    def test_negation_reason(self, indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f"for $d in {XMLCOL}/order "
            f"where not($d/lineitem/@price > 100) return $d")
        assert not verdict.eligible
        assert Reason.NEGATION in verdict.reasons

    def test_exists_needs_varchar(self, indexed_db):
        query = (f"for $d in {XMLCOL}/order "
                 f"where $d/lineitem/@price return $d")
        verdict = verdict_for(indexed_db, "li_price", query)
        assert not verdict.eligible  # DOUBLE index misses '20 USD'
        indexed_db.execute(
            "CREATE INDEX li_price_str ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/@price' AS VARCHAR")
        verdict = verdict_for(indexed_db, "li_price_str", query)
        assert verdict.eligible

    def test_text_misalignment_reason(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX price_text ON orders(orddoc) "
            "USING XMLPATTERN '//price' AS VARCHAR")
        verdict = verdict_for(
            indexed_db, "price_text",
            f'for $o in {XMLCOL}/order[lineitem/price/text() = "99.50"] '
            f"return $o")
        assert not verdict.eligible
        assert Reason.TEXT_MISALIGNMENT in verdict.reasons

    def test_namespace_mismatch_reason(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX c_nation ON customer(cdoc) "
            "USING XMLPATTERN '//nation' AS DOUBLE")
        module = parse_xquery(
            'declare namespace c="http://ournamespaces.com/customer"; '
            "for $cust in db2-fn:xmlcolumn('CUSTOMER.CDOC')"
            "/c:customer[c:nation = 1] return $cust")
        candidates = extract_candidates(module)
        index = indexed_db.xml_indexes["c_nation"]
        verdict = check_index(index, candidates[0])
        assert not verdict.eligible
        assert Reason.NAMESPACE_MISMATCH in verdict.reasons

    def test_unrelated_index_is_not_an_attribute_axis_mistake(
            self, indexed_db):
        # Flipping @price to price does not make '//custid' contain
        # the path: the index is simply about something else.
        verdict = verdict_for(
            indexed_db, "o_custid",
            f"for $i in {XMLCOL}//order[lineitem/@price > 100] "
            f"return $i")
        assert verdict.reasons == [Reason.PATTERN_NOT_CONTAINED]

    def test_unrelated_index_is_not_a_text_misalignment(self,
                                                         indexed_db):
        verdict = verdict_for(
            indexed_db, "li_price",
            f'for $o in {XMLCOL}/order[lineitem/price/text() = "99.50"] '
            f"return $o")
        assert verdict.reasons == [Reason.PATTERN_NOT_CONTAINED]

    def test_attribute_axis_reason(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX all_elems ON orders(orddoc) "
            "USING XMLPATTERN '//*' AS VARCHAR")
        verdict = verdict_for(
            indexed_db, "all_elems",
            f"for $d in {XMLCOL}/order where $d//@price return $d")
        assert not verdict.eligible
        assert Reason.ATTRIBUTE_AXIS in verdict.reasons


class TestReportAPI:
    def test_analyze_eligibility_xquery(self, indexed_db):
        report = analyze_eligibility(
            indexed_db,
            f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i")
        assert report.is_index_eligible("li_price")
        assert "li_price" in report.eligible_indexes
        assert "ELIGIBLE" in report.explain()

    def test_analyze_eligibility_sql_auto(self, indexed_db):
        report = analyze_eligibility(
            indexed_db,
            "SELECT ordid FROM orders WHERE XMLEXISTS("
            "'$o//lineitem[@price > 100]' PASSING orddoc AS \"o\")")
        assert report.language == "sql"
        assert report.is_index_eligible("li_price")

    def test_boolean_xmlexists_reason(self, indexed_db):
        report = analyze_eligibility(
            indexed_db,
            "SELECT ordid FROM orders WHERE XMLEXISTS("
            "'$o//lineitem/@price > 100' PASSING orddoc AS \"o\")")
        assert not report.is_index_eligible("li_price")
        reasons = [reason for predicate in report.predicates
                   for verdict in predicate.verdicts
                   for reason in verdict.reasons]
        assert Reason.BOOLEAN_XMLEXISTS in reasons

    def test_no_predicates(self, indexed_db):
        report = analyze_eligibility(indexed_db,
                                     f"count({XMLCOL})")
        assert report.eligible_indexes == []

    def test_reason_metadata(self):
        assert Reason.TYPE_MISMATCH.section == "3.1"
        assert Reason.TYPE_MISMATCH.tip == 1
        assert Reason.BOOLEAN_XMLEXISTS.tip == 3
        assert "3.7" in str(Reason.NAMESPACE_MISMATCH)
