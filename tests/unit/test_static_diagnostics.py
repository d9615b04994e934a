"""One test per diagnostic reason code, plus the sink machinery.

Every ``Code`` the rules engine can emit gets a minimal statement that
provokes exactly that finding against the paper fixture, so a
regression in any single rule fails its own named test.
"""

import pytest

from repro.static import Code, lint_index_pattern, lint_statement
from repro.static.diagnostics import Diagnostic, DiagnosticSink

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def codes_of(findings) -> set:
    return {finding.code for finding in findings}


class TestStaticErrors:
    def test_se001_xquery_syntax_error(self):
        findings = lint_statement("for $i in ((( return $i")
        assert codes_of(findings) == {Code.SYNTAX_ERROR}

    def test_se001_sql_syntax_error(self):
        findings = lint_statement("SELECT WHERE FROM")
        assert Code.SYNTAX_ERROR in codes_of(findings)

    def test_se002_unknown_function(self):
        findings = lint_statement("fn:frobnicate(1)")
        assert Code.UNKNOWN_FUNCTION in codes_of(findings)

    def test_se002_wrong_arity(self):
        findings = lint_statement("fn:count(1, 2, 3)")
        assert Code.UNKNOWN_FUNCTION in codes_of(findings)

    def test_se003_unknown_variable(self):
        findings = lint_statement("$undeclared + 1")
        assert Code.UNKNOWN_VARIABLE in codes_of(findings)

    def test_se004_incomparable_comparison(self):
        findings = lint_statement(
            "xs:double('1') = xs:date('2001-01-01')")
        assert Code.INCOMPARABLE_TYPES in codes_of(findings)

    def test_se004_not_raised_for_untyped_side(self, indexed_db):
        findings = lint_statement(
            f"{XMLCOL}//order[custid = 1001]", database=indexed_db)
        assert Code.INCOMPARABLE_TYPES not in codes_of(findings)

    def test_se005_statically_empty_path(self, indexed_db):
        findings = lint_statement(
            f"for $i in {XMLCOL}//order[warehouse/code = 'X'] "
            "return $i", database=indexed_db)
        assert Code.EMPTY_PATH in codes_of(findings)

    def test_se006_unknown_table(self, indexed_db):
        findings = lint_statement("SELECT wid FROM warehouse",
                                  database=indexed_db)
        assert Code.UNKNOWN_NAME in codes_of(findings)


class TestPitfallWarnings:
    def test_sw301_uncast_join(self, indexed_db):
        findings = lint_statement(
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
            'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
            "where $i/custid = $j/id return $i", database=indexed_db)
        assert Code.UNCAST_JOIN in codes_of(findings)

    def test_sw301_silent_when_cast(self, indexed_db):
        findings = lint_statement(
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
            'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
            "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
            "return $i", database=indexed_db)
        assert Code.UNCAST_JOIN not in codes_of(findings)

    def test_sw307_namespace_drift(self, indexed_db):
        findings = lint_statement(
            "declare namespace f = 'http://fruit.example'; "
            f"for $i in {XMLCOL}//f:order[f:lineitem/@price > 100] "
            "return $i", database=indexed_db)
        assert Code.NAMESPACE_DRIFT in codes_of(findings)

    def test_sw308_text_misalignment(self, indexed_db):
        findings = lint_statement(
            f"for $i in {XMLCOL}//order[custid/text() = '1001'] "
            "return $i", database=indexed_db)
        assert Code.TEXT_MISALIGNMENT in codes_of(findings)

    def test_sw309_attribute_axis(self, indexed_db):
        # Element step where the data (and index) has an attribute.
        findings = lint_statement(
            f"for $i in {XMLCOL}//order[lineitem/price > 100] "
            "return $i", database=indexed_db)
        assert Code.ATTRIBUTE_AXIS in codes_of(findings)

    def test_sw310_existential_between(self, indexed_db):
        findings = lint_statement(
            f"{XMLCOL}//lineitem[price > 100 and price < 200]",
            database=indexed_db)
        assert Code.EXISTENTIAL_BETWEEN in codes_of(findings)

    def test_sw310_silent_for_single_scan_pair(self, indexed_db):
        findings = lint_statement(
            f"for $i in {XMLCOL}"
            "//order[lineitem[@price>100 and @price<200]] return $i",
            database=indexed_db)
        assert Code.EXISTENTIAL_BETWEEN not in codes_of(findings)

    def test_sw303_sql_comparison(self, indexed_db):
        findings = lint_statement(
            "SELECT p.name FROM products p, orders o WHERE "
            "p.id = XMLCast(XMLQuery('$o//lineitem/product/id' "
            "passing o.orddoc as \"o\") as VARCHAR(13))",
            database=indexed_db)
        assert Code.SQL_COMPARISON in codes_of(findings)

    def test_sw305_absolute_path_in_constructed_tree(self, indexed_db):
        findings = lint_statement(
            f"let $o := <n>{{{XMLCOL}/order}}</n> "
            "return $o[//custid]", database=indexed_db)
        assert Code.ABSOLUTE_PATH_IN_CONSTRUCTED_TREE in codes_of(findings)

    def test_sw311_index_type_mismatch(self, indexed_db):
        findings = lint_statement(
            f'for $i in {XMLCOL}//order[lineitem/@price > "100"] '
            "return $i", database=indexed_db)
        assert codes_of(findings) == {Code.INDEX_TYPE_MISMATCH}

    def test_sw321_select_list(self, indexed_db):
        findings = lint_statement(
            "SELECT XMLQuery('$o//lineitem[@price > 100]' "
            'passing orddoc as "o") FROM orders', database=indexed_db)
        assert codes_of(findings) == {Code.SELECT_LIST}

    def test_sw322_boolean_xmlexists(self, indexed_db):
        findings = lint_statement(
            "SELECT ordid FROM orders WHERE XMLExists("
            "'$o//lineitem/@price > 100' passing orddoc as \"o\")",
            database=indexed_db)
        assert codes_of(findings) == {Code.BOOLEAN_XMLEXISTS}

    def test_sw323_xmltable_column(self, indexed_db):
        findings = lint_statement(
            "SELECT o.ordid, t.price FROM orders o, "
            "XMLTable('$d//lineitem' passing o.orddoc as \"d\" "
            "COLUMNS price DOUBLE PATH '@price[. > 100]') AS t",
            database=indexed_db)
        assert codes_of(findings) == {Code.XMLTABLE_COLUMN}

    def test_sw341_let_binding(self, indexed_db):
        findings = lint_statement(
            f"for $d in {XMLCOL} "
            "let $x := $d//lineitem[@price > 100] "
            "return <r>{$x}</r>", database=indexed_db)
        assert codes_of(findings) == {Code.LET_BINDING}

    def test_sw342_constructor_content(self, indexed_db):
        findings = lint_statement(
            f"for $o in {XMLCOL}/order "
            "return <r>{$o/lineitem[@price > 100]}</r>",
            database=indexed_db)
        assert codes_of(findings) == {Code.CONSTRUCTOR_CONTENT}

    def test_si307_pattern_empty_namespace(self):
        findings = lint_index_pattern("//lineitem/@price")
        assert codes_of(findings) == {Code.PATTERN_EMPTY_NAMESPACE}
        assert findings[0].severity == "info"

    def test_clean_query_is_clean(self, indexed_db):
        findings = lint_statement(
            f"for $i in {XMLCOL}//order[lineitem/@price > 100] "
            "return $i", database=indexed_db)
        assert findings == []


class TestEveryCodeIsExercised:
    def test_class_covers_all_codes(self):
        """Each Code has a provoking test above (SE001 has two)."""
        tested = {
            Code.SYNTAX_ERROR, Code.UNKNOWN_FUNCTION,
            Code.UNKNOWN_VARIABLE, Code.INCOMPARABLE_TYPES,
            Code.EMPTY_PATH, Code.UNKNOWN_NAME, Code.UNCAST_JOIN,
            Code.NAMESPACE_DRIFT, Code.TEXT_MISALIGNMENT,
            Code.ATTRIBUTE_AXIS, Code.EXISTENTIAL_BETWEEN,
            Code.SQL_COMPARISON, Code.ABSOLUTE_PATH_IN_CONSTRUCTED_TREE,
            Code.INDEX_TYPE_MISMATCH, Code.SELECT_LIST,
            Code.BOOLEAN_XMLEXISTS, Code.XMLTABLE_COLUMN,
            Code.LET_BINDING, Code.CONSTRUCTOR_CONTENT,
            Code.PATTERN_EMPTY_NAMESPACE,
        }
        assert tested == set(Code)


class TestDiagnosticMachinery:
    def test_to_dict_round_trip(self):
        finding = Diagnostic(Code.EMPTY_PATH, "no such path",
                             subject="//order/warehouse",
                             column="ORDERS.ORDDOC", detail="0 of 7")
        payload = finding.to_dict()
        assert payload["code"] == "SE005"
        assert payload["severity"] == "error"
        assert payload["section"] is not None
        assert payload["message"] == "no such path"
        assert payload["suggestion"] is None

    def test_to_dict_carries_the_tip_text(self):
        payload = Diagnostic(Code.UNCAST_JOIN, "uncast join").to_dict()
        assert payload["tip"] == 1
        assert payload["suggestion"].startswith("Use type-cast")

    def test_str_carries_code_and_severity(self):
        finding = Diagnostic(Code.UNCAST_JOIN, "uncast join")
        rendered = str(finding)
        assert "SW301" in rendered and "uncast join" in rendered

    def test_sink_dedups_identical_findings(self):
        sink = DiagnosticSink()
        sink.emit(Code.EMPTY_PATH, "same", subject="s", column="c")
        sink.emit(Code.EMPTY_PATH, "same", subject="s", column="c")
        assert len(sink.findings) == 1

    def test_sink_splits_severities(self):
        sink = DiagnosticSink()
        sink.emit(Code.EMPTY_PATH, "an error")
        sink.emit(Code.UNCAST_JOIN, "a warning")
        assert len(sink.errors) == 1
        assert len(sink.warnings) == 1
        assert sink.errors[0].severity == "error"
        assert sink.warnings[0].severity == "warning"
