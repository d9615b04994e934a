"""Equality hash joins: when they are chosen, what they save, and that
EXPLAIN names the reason a join stays a nested loop."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.querycache import compile_query
from repro.workload.paperqueries import PAPER_QUERIES, load_paper_fixture
from repro.xquery.joins import flwor_join_report

_O = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"
_C = "db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer"


@pytest.fixture()
def fixture_db() -> Database:
    database = Database()
    load_paper_fixture(database, with_indexes=False)
    return database


def _report(query: str) -> list[str]:
    return flwor_join_report(compile_query(query).module)


class TestFlworLegality:
    def test_query4_is_a_hash_join(self):
        (line,) = _report(PAPER_QUERIES[4][1])
        assert line.startswith("hash join for $j:")
        assert "($i)" in line

    @pytest.mark.parametrize("query, reason", [
        (f"for $i in {_O} for $j in {_C} return $j",
         "no where clause directly follows"),
        (f"for $i in {_O} for $j in $i/lineitem where $j/@price = 1 "
         f"return $j", "inner sequence depends on the outer tuple"),
        (f"for $i in {_O} for $j in <a><id>1</id></a> "
         f"where $i/custid = $j/id return $i",
         "inner sequence may construct nodes"),
        (f"for $i in {_O} for $j in {_C} where $i/custid < $j/id "
         f"return $i", "does not lead with an = or eq comparison"),
        (f"for $i in {_O} for $j in {_C} where $j/id = $i/custid + "
         f"$j/id return $i", "does not separate $j"),
        (f"for $i in {_O} for $j in {_C} where $i/custid = "
         f"$j/id + count($i/lineitem) return $i",
         "the $j side also depends on the outer tuple"),
    ])
    def test_loops_name_their_reason(self, query, reason):
        (line,) = _report(query)
        assert line.startswith("nested loop for $j:")
        assert reason in line

    def test_a_constant_probe_filters_the_inner_sequence_once(self):
        (line,) = _report(f"for $i in {_O} for $j in {_C} where $j/id = 1 "
                          f"and $i/custid = $j/id return $i")
        assert line.startswith("hash join for $j:")
        assert line.endswith("(constant)")

    def test_first_for_clause_is_never_a_join(self):
        assert _report(f"for $i in {_O} where $i/custid = 1 return $i") \
            == []


class TestFlworExecution:
    def test_query4_evaluates_the_inner_collection_once(self, fixture_db):
        query = PAPER_QUERIES[4][1]
        hashed = fixture_db.xquery(query)
        looped = fixture_db.xquery(query, use_indexes=False)
        assert hashed.serialize() == looped.serialize()
        orders = len(fixture_db.documents("orders", "orddoc"))
        customers = len(fixture_db.documents("customer", "cdoc"))
        assert hashed.stats.docs_scanned == orders + customers
        assert looped.stats.docs_scanned == orders * (customers + 1)
        assert "hash join for $j on the where clause's leading =" in \
            hashed.stats.plan_notes

    def test_an_invariant_loop_evaluates_its_sequence_once(self,
                                                            fixture_db):
        query = f"for $i in {_O} for $j in {_C} return $j/id"
        (line,) = _report(query)
        assert line.endswith("inner sequence evaluated once")
        planned = fixture_db.xquery(query)
        looped = fixture_db.xquery(query, use_indexes=False)
        assert planned.serialize() == looped.serialize()
        assert planned.stats.docs_scanned < looped.stats.docs_scanned

    def test_explain_lists_the_join(self, fixture_db):
        text = fixture_db.explain(PAPER_QUERIES[4][1])
        assert "  hash join for $j:" in text

    def test_error_of_a_clashing_pair_is_kept(self, fixture_db):
        # The typed string of one order meets the double of a customer:
        # the nested loop raises XPTY0004, so the hash join must too.
        query = (f"for $i in {_O} for $j in {_C} "
                 f"where $i/custid/string(.) = $j/id/xs:double(.) return $i")
        errors = []
        for use_indexes in (True, False):
            with pytest.raises(Exception) as caught:
                fixture_db.xquery(query, use_indexes=use_indexes)
            errors.append(getattr(caught.value, "code", None))
        assert errors == ["XPTY0004", "XPTY0004"]


    def test_a_decimal_meets_a_double_as_a_double(self):
        # 0.1 is no exact double: the loops promote the decimal to
        # xs:double before comparing, so the join keys must as well.
        query = ("for $x in (xs:decimal('0.1'), 0.5) "
                 "for $y in (xs:double('0.1'), 0.5e0) "
                 "where $x = $y return $x")
        database = Database()
        hashed = database.xquery(query)
        looped = database.xquery(query, use_indexes=False)
        assert any(note.startswith("hash join for $y")
                   for note in hashed.stats.plan_notes)
        assert hashed.serialize() == looped.serialize() == ["0.1", "0.5"]


class TestSqlHashJoin:
    def test_query15_rows_and_order_are_the_loops(self, fixture_db):
        statement = PAPER_QUERIES[15][1]
        hashed = fixture_db.sql(statement)
        looped = fixture_db.sql(statement, use_indexes=False)
        assert hashed.serialize_rows() == looped.serialize_rows()
        assert hashed.stats.rows_scanned < looped.stats.rows_scanned
        assert any(note.startswith("hash join into c")
                   for note in hashed.stats.plan_notes)

    def test_explain_names_the_hash_join(self, fixture_db):
        text = fixture_db.explain(PAPER_QUERIES[15][1])
        assert "  hash join into c:" in text

    def test_an_index_probe_keeps_the_index_join(self):
        database = Database()
        load_paper_fixture(database, with_indexes=True)
        text = database.explain(PAPER_QUERIES[16][1])
        assert "xml index nested-loop into o" in text
        assert "nested-loop join:" in text

    def test_a_relational_index_probe_is_named(self):
        database = Database()
        for name in ("a", "b"):
            database.create_table(name, [("id", "INTEGER"),
                                         ("v", "VARCHAR(4)")])
            database.insert(name, {"id": 1, "v": "x"})
        database.create_relational_index("b_v", "b", "v")
        statement = "SELECT a.id, b.id FROM a, b WHERE a.v = b.v"
        assert "nested-loop join: an index nested-loop join probes b" in \
            database.explain(statement)
        assert database.sql(statement).rows == [(1, 1)]

    @pytest.mark.parametrize("statement", [
        "SELECT p.pid, o.ordid FROM p, o WHERE o.ordid = p.pid",
        "SELECT p.pid, o.ordid, t.k FROM p, o, XMLTABLE('$d/r/k' "
        "PASSING o.d AS \"d\" COLUMNS k INTEGER PATH '.') AS t "
        "WHERE o.ordid = p.pid",
    ])
    def test_a_probe_run_behind_its_outer_table_keeps_the_from_order(
            self, statement):
        # The probe into p needs o bound, so o's loop runs outside p's;
        # the rows still come back in the FROM clause's loop order.
        database = Database()
        database.create_table("p", [("pid", "INTEGER")])
        database.create_table("o", [("ordid", "INTEGER"), ("d", "XML")])
        for pid in (5, 1):
            database.insert("p", {"pid": pid})
        for ordid in (1, 3, 5):
            database.insert("o", {"ordid": ordid,
                                  "d": f"<r><k>{ordid}</k><k>0</k></r>"})
        database.create_relational_index("p_pid", "p", "pid")
        assert "an index nested-loop join probes p" in \
            database.explain(statement)
        looped = database.sql(statement, use_indexes=False).rows
        assert [row[0] for row in looped] == sorted(
            (row[0] for row in looped), reverse=True)
        assert database.sql(statement).rows == looped

    def test_leading_non_equality_stays_a_loop(self, fixture_db):
        text = fixture_db.explain(
            "SELECT c.cid, o.ordid FROM customer c, orders o "
            "WHERE c.cid < o.ordid")
        assert "nested-loop join: the WHERE clause does not lead with" in text

    def test_single_table_reports_no_join(self, fixture_db):
        text = fixture_db.explain("SELECT cid FROM customer WHERE cid = 1")
        assert "join:" not in text and "hash join" not in text

    def test_cast_error_surfaces_at_the_same_row(self):
        database = Database()
        database.create_table("a", [("id", "INTEGER"), ("d", "XML")])
        database.create_table("b", [("id", "INTEGER"), ("d", "XML")])
        database.insert("a", {"id": 1, "d": "<r><k>1</k></r>"})
        database.insert("b", {"id": 1, "d": "<r><k>1</k></r>"})
        database.insert("b", {"id": 2, "d": "<r><k>1</k><k>2</k></r>"})
        statement = ("SELECT a.id, b.id FROM a, b WHERE "
                     "XMLCast(XMLQuery('$d/r/k' passing a.d as \"d\") "
                     "as INTEGER) = XMLCast(XMLQuery('$d/r/k' passing "
                     "b.d as \"d\") as INTEGER)")
        states = []
        for use_indexes in (True, False):
            with pytest.raises(Exception) as caught:
                database.sql(statement, use_indexes=use_indexes)
            states.append(getattr(caught.value, "sqlstate", None))
        assert states == ["22001", "22001"]
