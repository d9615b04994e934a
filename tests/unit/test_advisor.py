"""Unit tests for the tip table, index-pattern lints and catalog
introspection."""

import pytest

from repro.static import Code, Diagnostic, lint_index_pattern, lint_statement


class TestAdviceStructure:
    def test_code_table_carries_every_emitted_tip(self):
        # Tips 5 and 9 have no rule that could emit them.
        tips = {code.tip for code in Code if code.tip is not None}
        assert tips == set(range(1, 13)) - {5, 9}
        for code in Code:
            if code.tip is not None:
                assert code.suggestion, code

    def test_str_rendering(self):
        finding = Diagnostic(Code.BOOLEAN_XMLEXISTS, "msg")
        assert "Tip 3" in str(finding)
        finding = Diagnostic(Code.EXISTENTIAL_BETWEEN, "msg")
        assert "§3.10" in str(finding)


class TestIndexPatternAdvice:
    def test_star_pattern_warns(self):
        assert any(item.code.tip == 12
                   for item in lint_index_pattern("//*"))

    def test_node_pattern_warns(self):
        assert any(item.code.tip == 12
                   for item in lint_index_pattern("//node()"))

    def test_named_element_pattern_ns_info(self):
        advice = lint_index_pattern("//lineitem/@price")
        assert any(item.code.tip == 10 for item in advice)
        assert all(item.severity == "info" for item in advice)

    def test_attribute_pattern_clean(self):
        assert lint_index_pattern("//@*") == []

    def test_wildcard_namespace_pattern_clean(self):
        advice = lint_index_pattern("//*:nation")
        assert all(item.code.tip != 10 for item in advice)

    def test_declared_namespace_pattern_clean(self):
        advice = lint_index_pattern(
            'declare default element namespace "http://x"; //nation')
        assert all(item.code.tip != 10 for item in advice)


class TestAdviseDeduplication:
    def test_repeated_pitfall_reported_once(self, indexed_db):
        query = ("for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
                 "let $a := $d//lineitem[@price > 100] "
                 "let $b := $d//lineitem[@price > 200] "
                 "return <r>{$a, $b}</r>")
        findings = lint_statement(query, database=indexed_db)
        let_warnings = [item for item in findings
                        if item.code is Code.LET_BINDING]
        assert len(let_warnings) == 2  # both let predicates are flagged
        # Exact duplicates (same message) are deduplicated.
        messages = [item.message for item in let_warnings]
        assert len(messages) == len(set(messages))


class TestDescribe:
    def test_catalog_summary(self, indexed_db):
        text = indexed_db.describe()
        assert "table orders" in text
        assert "li_price" in text
        assert "XMLPATTERN" in text
        assert "VARCHAR(13)" in text

    def test_describe_mentions_skipped_nodes(self, indexed_db):
        # The '20 USD' price is skipped by the tolerant DOUBLE index.
        assert "1 skipped" in indexed_db.describe()
