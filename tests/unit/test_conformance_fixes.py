"""Regression tests for the conformance bugfix sweep.

Each class pins one bug that shipped before the fix:

* ``fn:substring`` used Python ``round()`` (banker's rounding) and
  raised ``ValueError`` on NaN/INF positions;
* ``fn:substring-after`` with an empty separator returned ``""``
  instead of the input string;
* SQL doc filters silently dropped rows that reference no XML
  documents (a dead always-False arm in ``_rows_for``);
* ``fn:number`` and ``_bounds_for`` swallowed *every* exception, so
  injected programming bugs (TypeError) vanished into NaN / a skipped
  index probe instead of failing loudly.
"""

import pytest

from repro import Database
from repro.errors import CastError
from repro.planner.plan import _bounds_for
from repro.core.predicates import PredicateCandidate
from repro.xmlio import serialize_sequence
from repro.xquery.evaluator import evaluate as ev


def run(query: str) -> str:
    return serialize_sequence(ev(query))


class TestSubstringRounding:
    def test_half_rounds_toward_positive_infinity(self):
        # Python round(2.5) == 2 (banker's); XPath fn:round(2.5) eq 3.
        assert run("substring('12345', 2.5)") == "345"

    def test_half_length_rounds_too(self):
        # start round(1.5)=2, length round(2.5)=3 -> positions 2..4.
        assert run("substring('12345', 1.5, 2.5)") == "234"

    def test_exact_positions_unchanged(self):
        assert run("substring('hamburger', 5, 3)") == "urg"

    def test_nan_start_is_empty(self):
        # F&O 7.4.3: NaN comparisons are false -> zero-length string
        # (the old code raised ValueError on non-finite positions).
        assert run("substring('12345', xs:double('NaN'))") == ""

    def test_nan_length_is_empty(self):
        assert run("substring('12345', 1, xs:double('NaN'))") == ""

    def test_infinite_length_keeps_tail(self):
        assert run("substring('12345', -42, xs:double('INF'))") == "12345"

    def test_minus_inf_start_plus_inf_length_is_empty(self):
        # -INF + INF is NaN, so no position qualifies.
        assert run("substring('12345', xs:double('-INF'), "
                   "xs:double('INF'))") == ""

    def test_negative_start_clips(self):
        assert run("substring('motor car', 0)") == "motor car"
        assert run("substring('12345', -2, 5)") == "12"


class TestSubstringBeforeAfterEmptySeparator:
    def test_substring_after_empty_separator_returns_input(self):
        # F&O 7.5.5: "" occurs before the first character, so the
        # remainder after it is the whole string (old code: "").
        assert run("substring-after('a=b', '')") == "a=b"

    def test_substring_before_empty_separator_returns_empty(self):
        # F&O 7.5.4: everything before "" is the zero-length string.
        assert run("substring-before('a=b', '')") == ""

    def test_separator_found(self):
        assert run("substring-after('a=b', '=')") == "b"
        assert run("substring-before('a=b', '=')") == "a"

    def test_separator_missing(self):
        assert run("substring-after('abc', 'x')") == ""
        assert run("substring-before('abc', 'x')") == ""


class TestDocFilterKeepsDoclessRows:
    @pytest.fixture()
    def mixed_db(self):
        db = Database()
        db.create_table("t", [("id", "INTEGER"), ("doc", "XML")])
        db.insert("t", {"id": 1,
                        "doc": "<item><price>150</price></item>"})
        db.insert("t", {"id": 2,
                        "doc": "<item><price>10</price></item>"})
        # The relational-only row: no XML document at all.
        db.insert("t", {"id": 3, "doc": None})
        db.execute("CREATE INDEX px ON t(doc) USING XMLPATTERN "
                   "'/item/price' AS DOUBLE")
        return db

    def test_rows_for_keeps_null_xml_row_under_doc_filter(self, mixed_db):
        # Unit-level pin on _located: with a doc filter installed, a
        # row whose XML column is NULL must survive to the residual
        # WHERE (the old dead-arm filter dropped it outright).
        from repro.core.querycache import compile_statement
        from repro.sql.executor import _Run
        plan = compile_statement(
            mixed_db, "SELECT id FROM t WHERE XMLEXISTS("
            "'$DOC/item[price > 100]' PASSING doc AS \"DOC\")", True)
        run = _Run(plan, mixed_db)
        plan.prepare(run)
        source = plan.sources[0]
        assert source.alias in run.doc_filters, "index prefilter expected"
        rows = run._located(source, [None])[0]
        ids = {row.values["id"] for row in rows}
        assert 3 in ids, "doc-less row must not be dropped by the " \
                         "doc filter"
        assert 1 in ids
        assert 2 not in ids, "filtered-out document should be pruned"

    def test_end_to_end_xmlexists_still_correct(self, mixed_db):
        result = mixed_db.sql(
            "SELECT id FROM t WHERE XMLEXISTS('$DOC/item[price > 100]' "
            "PASSING doc AS \"DOC\")")
        assert [row[0] for row in result.rows] == [1]
        unindexed = mixed_db.sql(
            "SELECT id FROM t WHERE XMLEXISTS('$DOC/item[price > 100]' "
            "PASSING doc AS \"DOC\")", use_indexes=False)
        assert result.rows == unindexed.rows


def test_doc_filters_on_two_xml_columns_of_one_table():
    # Each XMLEXISTS verdict names documents of its own column; doc ids
    # of different columns never meet, so intersecting the two id sets
    # (instead of the rows they select) dropped every row.
    db = Database()
    db.create_table("pairs", [("pid", "INTEGER"), ("a", "XML"),
                              ("b", "XML")])
    db.create_xml_index("pa_k", "pairs", "a", "//k", "DOUBLE")
    db.create_xml_index("pb_k", "pairs", "b", "//k", "DOUBLE")
    db.insert("pairs", {"pid": 1, "a": "<x><k>1</k></x>",
                        "b": "<x><k>2</k></x>"})
    db.insert("pairs", {"pid": 2, "a": "<x><k>1</k></x>",
                        "b": "<x><k>0</k></x>"})
    query = ("SELECT pid FROM pairs WHERE "
             "XMLExists('$a/x[k = 1]' passing a as \"a\") AND "
             "XMLExists('$b/x[k > 1]' passing b as \"b\")")
    indexed = db.sql(query)
    assert indexed.rows == [(1,)]
    assert indexed.stats.indexes_used
    assert db.sql(query, use_indexes=False).rows == [(1,)]


class TestNarrowedExceptionHandling:
    def test_fn_number_uncastable_is_nan(self):
        assert run("number('not a number')") == "NaN"

    def test_fn_number_propagates_injected_type_error(self, monkeypatch):
        # Mutant-style: if atomic.cast itself breaks with a TypeError,
        # fn:number must not turn the bug into NaN.
        from repro.xquery import functions as functions_module

        def broken_cast(value, target):
            raise TypeError("injected programming bug")

        monkeypatch.setattr(functions_module.atomic, "cast", broken_cast)
        with pytest.raises(TypeError, match="injected"):
            run("number('42')")

    @staticmethod
    def _candidate():
        from repro.core.predicates import PredicateContext
        from repro.xdm import atomic
        return PredicateCandidate(
            column="t.doc", path=None, op="=", operand_type="DOUBLE",
            operand_value=atomic.string("boom"),
            context=PredicateContext.WHERE_CLAUSE)

    def test_bounds_for_skips_probe_on_cast_error(self):
        class CastFailIndex:
            def key_for_value(self, value):
                raise CastError("uncastable bound")

        assert _bounds_for(self._candidate(), CastFailIndex()) is None

    def test_bounds_for_propagates_injected_type_error(self):
        class BuggyIndex:
            def key_for_value(self, value):
                raise TypeError("injected programming bug")

        with pytest.raises(TypeError, match="injected"):
            _bounds_for(self._candidate(), BuggyIndex())
