"""Lowered SQL statements: name resolution, DELETE's one pass, and the
path-summary predicate that p2-shaped queries now use."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.querycache import cache_info
from repro.errors import SQLError
from repro.workload.paperqueries import load_paper_fixture
from repro.xmlio.serializer import serialize


def _state(database, statement: str, use_indexes: bool):
    try:
        return database.sql(statement, use_indexes=use_indexes).rows
    except SQLError as error:
        return error.sqlstate


class TestAmbiguousColumns:
    """An unqualified name two FROM items share is 42702 on every route
    (Definition 1: an index may not decide which table it reads)."""

    @pytest.fixture()
    def database(self) -> Database:
        database = Database()
        database.create_table("a", [("id", "INTEGER"), ("doc", "XML")])
        database.create_table("b", [("id", "INTEGER"), ("k", "INTEGER")])
        for position in (1, 2, 3):
            database.insert("a", {"id": position,
                                  "doc": f"<r><v>{position}</v></r>"})
            database.insert("b", {"id": 100 + position, "k": position})
        database.execute("CREATE INDEX av ON a(doc) USING XMLPATTERN "
                         "'//v' AS DOUBLE")
        return database

    def test_the_index_join_plans_the_statement(self, database):
        assert "xml index nested-loop into a" in database.explain(
            "SELECT a.id FROM a, b WHERE XMLExists('$d//v[. = $k]' "
            "passing a.doc as \"d\", b.k as \"k\")")

    @pytest.mark.parametrize("statement", [
        "SELECT id FROM a, b WHERE XMLExists('$d//v[. = $k]' "
        "passing a.doc as \"d\", b.k as \"k\")",
        "SELECT a.id FROM a, b WHERE id = k",
        "SELECT id FROM a, XMLTABLE('$d//v' passing a.doc as \"d\" "
        "COLUMNS id INTEGER PATH '.') AS x",
    ])
    def test_every_route_refuses(self, database, statement):
        assert [_state(database, statement, use_indexes)
                for use_indexes in (True, False)] == ["42702", "42702"]

    def test_qualified_names_answer_alike(self, database):
        for column, expected in (("a.id", [(1,), (2,), (3,)]),
                                 ("b.id", [(101,), (102,), (103,)])):
            statement = (f"SELECT {column} FROM a, b WHERE XMLExists("
                         f"'$d//v[. = $k]' passing a.doc as \"d\", "
                         f"b.k as \"k\")")
            assert _state(database, statement, True) == expected
            assert _state(database, statement, False) == expected


class _CountingRows(list):
    """A row list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        _CountingRows.passes += 1
        return super().__iter__()


class TestDeleteIsOnePass:
    @staticmethod
    def _passes(rows: int) -> int:
        database = Database()
        database.create_table("t", [("id", "INTEGER"), ("doc", "XML")])
        for position in range(rows):
            database.insert("t", {"id": position,
                                  "doc": f"<r><v>{position % 7}</v></r>"})
        table = database.table("t")
        table.rows = _CountingRows(table.rows)
        _CountingRows.passes = 0
        result = database.sql("DELETE FROM t WHERE XMLExists("
                              "'$d/r[v = 3]' passing doc as \"d\")")
        assert result.rows == [(sum(1 for position in range(rows)
                                    if position % 7 == 3),)]
        assert all(row.values["id"] % 7 != 3 for row in table.rows)
        return _CountingRows.passes

    def test_passes_do_not_grow_with_the_table(self):
        # One pass decides the victims, one removes them.
        assert self._passes(40) == self._passes(400) == 2


class TestPathPredicateUsesTheSummary:
    ORDERS = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

    @pytest.fixture(scope="class")
    def database(self) -> Database:
        database = Database()
        load_paper_fixture(database, with_indexes=True)
        return database

    def _routes(self, database, query: str) -> list:
        results = [database.xquery(query, use_indexes=use_indexes)
                   for use_indexes in (True, False)]
        assert len({tuple(serialize(item) for item in result.items)
                    for result in results}) == 1
        return [result.stats.summary_lookups for result in results]

    def test_a_nested_path_predicate_is_one_lookup(self, database):
        query = (f"{self.ORDERS}//order[lineitem[@price > 80 and "
                 f"@price < 200]]")
        assert len(database.xquery(query).items) == 2
        assert self._routes(database, query) == [1, 1]

    def test_a_predicate_ending_in_an_expression_may_be_a_position(
            self, database):
        # count(...) is a number, so it is a position per context: the
        # merged node list of the summary would change its meaning.
        query = f"{self.ORDERS}//order[lineitem[1]/count(product)]"
        assert self._routes(database, query) == [0, 0]


def test_a_new_catalog_epoch_replaces_the_plan():
    """DDL makes a lowered statement stale; its text keeps one entry."""
    database = Database()
    database.create_table("t", [("id", "INTEGER")])
    database.insert("t", {"id": 1})
    size = cache_info().size
    for number in range(20):
        assert database.sql("SELECT id FROM t WHERE id = 1").rows == [(1,)]
        database.execute(f"CREATE INDEX i{number} ON t(id)")
    assert cache_info().size <= size + 1
