"""Unit tests for between detection (§3.10)."""

import pytest

from repro.core.between import detect_between, one_node
from repro.core.predicates import extract_candidates
from repro.storage.catalog import Database
from repro.xquery.ast import rel_path
from repro.xquery.parser import parse_xquery

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def groups(query: str):
    return detect_between(extract_candidates(parse_xquery(query)))


class TestDetection:
    def test_attribute_pair_single_scan(self):
        found = groups(f"{XMLCOL}//lineitem[@price>100 and @price<200]")
        assert len(found) == 1
        assert found[0].single_scan

    def test_element_general_pair_two_scans(self):
        found = groups(f"{XMLCOL}//lineitem[price > 100 and price < 200]")
        assert len(found) == 1
        assert not found[0].single_scan

    def test_value_comparison_single_scan(self):
        found = groups(f"{XMLCOL}//lineitem[price gt 100 and "
                       f"price lt 200]")
        assert len(found) == 1
        assert found[0].single_scan

    def test_self_axis_single_scan(self):
        found = groups(f"{XMLCOL}//lineitem/price"
                       f"[. > 100 and . < 200]")
        assert len(found) == 1
        assert found[0].single_scan

    def test_data_step_single_scan(self):
        found = groups(f"{XMLCOL}//lineitem[price/data()"
                       f"[. > 100 and . < 200]]")
        assert len(found) == 1
        assert found[0].single_scan

    def test_different_paths_not_paired(self):
        found = groups(f"{XMLCOL}//lineitem[@price > 100 and "
                       f"@quantity < 5]")
        assert found == []

    def test_unrelated_conjunctions_not_paired(self):
        found = groups(
            f"for $a in {XMLCOL}//lineitem[@price > 100] "
            f"for $b in {XMLCOL}//lineitem[@price < 200] return ($a,$b)")
        assert found == []

    def test_same_direction_not_paired(self):
        found = groups(f"{XMLCOL}//lineitem[@price > 100 and "
                       f"@price > 200]")
        assert found == []

    def test_inclusive_operators_pair(self):
        found = groups(f"{XMLCOL}//lineitem[@price >= 100 and "
                       f"@price <= 200]")
        assert len(found) == 1
        assert found[0].single_scan

    def test_description_mentions_mode(self):
        found = groups(f"{XMLCOL}//lineitem[@price>100 and @price<200]")
        assert "single range scan" in found[0].description

    def test_attribute_below_a_child_step_two_scans(self):
        """``l/@price`` crosses a many-valued ``l``: one ``l`` may pass
        the lower bound and another the upper one."""
        found = groups(f"{XMLCOL}//o[l/@price > 100 and l/@price < 150]")
        assert len(found) == 1
        assert not found[0].single_scan

    def test_where_clause_below_a_child_step_two_scans(self):
        found = groups(f"for $o in {XMLCOL}/o where $o/l/@price > 100 "
                       f"and $o/l/@price < 150 return $o")
        assert len(found) == 1
        assert not found[0].single_scan

    def test_attribute_of_a_for_variable_single_scan(self):
        found = groups(f"for $l in {XMLCOL}//l where $l/@price > 100 "
                       f"and $l/@price < 150 return $l")
        assert len(found) == 1
        assert found[0].single_scan

    def test_attribute_of_a_let_variable_two_scans(self):
        found = groups(f"let $l := {XMLCOL}//l where $l/@price > 100 "
                       f"and $l/@price < 150 return $l")
        assert len(found) == 1
        assert not found[0].single_scan

    @pytest.mark.parametrize("rel", ["@*", "@*:price", "@n:*"])
    def test_wildcard_attribute_two_scans(self, rel):
        """A wildcard selects several attributes of one element: one
        may pass the lower bound and another the upper one."""
        found = groups(f"declare namespace n='urn:n'; {XMLCOL}//l"
                       f"[{rel} > 100 and {rel} < 150]")
        assert len(found) == 1
        assert not found[0].single_scan

    def test_for_variable_over_wildcard_attributes_single_scan(self):
        found = groups(f"for $a in {XMLCOL}//l/@* where $a > 100 "
                       f"and $a < 150 return $a")
        assert len(found) == 1
        assert found[0].single_scan


@pytest.mark.parametrize("steps, expected", [
    ("", True), ("@price", True), ("@n:price", True), ("@*", False),
    ("@n:*", False), ("@*:price", False), ("price", False),
    ("l/@price", False)])
def test_one_node(steps, expected):
    path = f"declare namespace n='urn:n'; {XMLCOL}//l[{steps or '.'} > 1]"
    comparison = parse_xquery(path).body.steps[-1].predicates[0]
    rel = rel_path(comparison.left)
    assert one_node(rel.steps) is expected


#: One ``l`` above the range, one at its exclusive lower bound: no
#: ``l/@price`` is in (100, 150), yet each bound holds for some ``l``.
SPLIT = "<o><l price='200'/><l price='100'/></o>"


@pytest.mark.parametrize("form", ["xquery", "where", "sql"])
def test_a_pair_across_a_child_step_answers_as_without_indexes(form):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.create_xml_index("t_price", "t", "doc", "//l/@price", "DOUBLE")
    database.insert("t", {"id": 1, "doc": SPLIT})
    column = "db2-fn:xmlcolumn('T.DOC')"
    if form == "sql":
        statement = ("SELECT id FROM t WHERE XMLExists('$d/o[l/@price > 100 "
                     "and l/@price < 150]' passing doc as \"d\")")
        rows = [database.sql(statement, use_indexes=flag).rows
                for flag in (True, False)]
        assert rows[0] == rows[1] and len(rows[0]) == 1
        return
    query = (f"{column}//o[l/@price > 100 and l/@price < 150]"
             if form == "xquery" else
             f"for $o in {column}/o where $o/l/@price > 100 and "
             f"$o/l/@price < 150 return $o")
    answers = [database.xquery(query, use_indexes=flag).serialize()
               for flag in (True, False)]
    assert answers[0] == answers[1] and len(answers[0]) == 1


def test_comparisons_in_two_step_predicates_do_not_pair():
    """Each ``lineitem`` is its own focus: one may pass the lower bound
    and another the upper one."""
    assert groups(f"{XMLCOL}//order[lineitem[@price > 100] and "
                  f"lineitem[@price < 150]]") == []
