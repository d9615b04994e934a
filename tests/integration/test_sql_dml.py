"""Integration tests: SQL INSERT and DELETE statements."""

import pytest

from repro import Database
from repro.durability import DurableDatabase
from repro.errors import SQLError, XMLParseError


@pytest.fixture()
def dml_db() -> Database:
    database = Database()
    database.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
    database.execute("CREATE INDEX li_price ON orders(orddoc) "
                     "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")
    return database


class TestInsert:
    def test_insert_with_columns(self, dml_db):
        result = dml_db.execute(
            "INSERT INTO orders (ordid, orddoc) VALUES "
            "(1, '<order><lineitem price=\"150\"/></order>')")
        assert result.rows == [(1,)]
        assert len(dml_db.table("orders")) == 1

    def test_insert_multiple_rows(self, dml_db):
        dml_db.execute(
            "INSERT INTO orders (ordid, orddoc) VALUES "
            "(1, '<order><lineitem price=\"150\"/></order>'), "
            "(2, '<order><lineitem price=\"90\"/></order>')")
        assert len(dml_db.table("orders")) == 2

    def test_inserted_docs_are_indexed(self, dml_db):
        dml_db.execute(
            "INSERT INTO orders (ordid, orddoc) VALUES "
            "(1, '<order><lineitem price=\"150\"/></order>')")
        result = dml_db.xquery(
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]")
        assert len(result) == 1
        assert result.stats.indexes_used == ["li_price"]

    def test_insert_constructed_xml(self, dml_db):
        dml_db.execute(
            "INSERT INTO orders (ordid, orddoc) VALUES "
            "(5, XMLQUERY('<order><lineitem price=\"{200}\"/>"
            "</order>'))")
        result = dml_db.sql(
            "SELECT ordid FROM orders WHERE XMLEXISTS("
            "'$d//lineitem[@price = 200]' PASSING orddoc AS \"d\")")
        assert result.rows == [(5,)]

    def test_insert_null(self, dml_db):
        dml_db.execute("INSERT INTO orders (ordid, orddoc) VALUES "
                       "(7, NULL)")
        assert dml_db.documents("orders", "orddoc") == []

    def test_arity_mismatch(self, dml_db):
        with pytest.raises(SQLError):
            dml_db.execute("INSERT INTO orders (ordid, orddoc) "
                           "VALUES (1)")

    def test_implicit_column_order(self, dml_db):
        dml_db.execute("INSERT INTO orders VALUES (3, '<order/>')")
        result = dml_db.sql("SELECT ordid FROM orders")
        assert result.rows == [(3,)]


class TestMultiRowInsertIsAllOrNothing:
    """Every VALUES row is parsed and coerced before the first is
    inserted: a bad value in any row leaves the table as it was, on a
    plain and on a durable database (also after a reopen)."""

    @pytest.mark.parametrize("engine", ["plain", "durable"])
    def test_malformed_xml_in_a_later_row_inserts_nothing(
            self, tmp_path, engine):
        self._assert_all_or_nothing(
            tmp_path, engine, "INTEGER",
            "INSERT INTO t VALUES (1, '<a/>'), (2, '<b')", XMLParseError)

    @pytest.mark.parametrize("engine", ["plain", "durable"])
    @pytest.mark.parametrize("sql_type, good", [
        ("INTEGER", "3"), ("BIGINT", "3"), ("DOUBLE", "1.5"),
        ("DECIMAL(6,2)", "1.5"), ("DATE", "'2006-09-12'"),
        ("TIMESTAMP", "'2006-09-12T10:00:00'")])
    def test_uncastable_value_is_sqlstate_22018(self, tmp_path, engine,
                                                sql_type, good):
        error = self._assert_all_or_nothing(
            tmp_path, engine, sql_type,
            f"INSERT INTO t VALUES ({good}, '<a/>'), ('x', '<b/>')",
            SQLError)
        assert error.sqlstate == "22018"

    @staticmethod
    def _assert_all_or_nothing(tmp_path, engine, sql_type, statement,
                               error_type):
        def open_database():
            return (DurableDatabase(tmp_path / "state")
                    if engine == "durable" else Database())
        database = open_database()
        database.execute(f"CREATE TABLE t (k {sql_type}, d XML)")
        with pytest.raises(error_type) as caught:
            database.execute(statement)
        assert database.table("t").rows == []
        if engine == "durable":
            database.close()
            with open_database() as reopened:
                assert reopened.table("t").rows == []
        return caught.value


class TestDelete:
    def fill(self, database: Database) -> None:
        for ordid, price in [(1, 150), (2, 90), (3, 200)]:
            database.insert("orders", {
                "ordid": ordid,
                "orddoc": f"<order><lineitem price='{price}'/></order>"})

    def test_delete_all(self, dml_db):
        self.fill(dml_db)
        result = dml_db.execute("DELETE FROM orders")
        assert result.rows == [(3,)]
        assert len(dml_db.table("orders")) == 0
        assert len(dml_db.xml_indexes["li_price"]) == 0

    def test_delete_where_relational(self, dml_db):
        self.fill(dml_db)
        result = dml_db.execute("DELETE FROM orders WHERE ordid = 2")
        assert result.rows == [(1,)]
        remaining = dml_db.sql("SELECT ordid FROM orders ORDER BY ordid")
        assert [row[0] for row in remaining.rows] == [1, 3]

    def test_delete_where_xmlexists(self, dml_db):
        self.fill(dml_db)
        dml_db.execute(
            "DELETE FROM orders o WHERE XMLEXISTS("
            "'$d//lineitem[@price > 100]' PASSING o.orddoc AS \"d\")")
        remaining = dml_db.sql("SELECT ordid FROM orders")
        assert [row[0] for row in remaining.rows] == [2]

    def test_delete_maintains_index_consistency(self, dml_db):
        self.fill(dml_db)
        dml_db.execute("DELETE FROM orders WHERE ordid = 1")
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "//lineitem[@price > 100]")
        fast = dml_db.xquery(query)
        slow = dml_db.xquery(query, use_indexes=False)
        assert fast.serialize() == slow.serialize()
        assert len(fast) == 1  # only the 200 remains

    def test_delete_nothing(self, dml_db):
        self.fill(dml_db)
        result = dml_db.execute("DELETE FROM orders WHERE ordid = 99")
        assert result.rows == [(0,)]
