"""Integration tests: DATE and TIMESTAMP index types (§2.1)."""

import pytest

from repro import Database


@pytest.fixture()
def temporal_db() -> Database:
    database = Database()
    database.create_table("orders", [("orddoc", "XML")])
    docs = [
        "<order><date>2006-01-15</date><ts>2006-01-15T08:00:00Z</ts>"
        "</order>",
        "<order><date>2006-06-30</date><ts>2006-06-30T23:59:59Z</ts>"
        "</order>",
        "<order><date>2006-09-12</date><ts>2006-09-12T12:00:00+02:00"
        "</ts></order>",
        # The §2.1 example: free-text dates skip tolerant typed indexes.
        "<order><date>January 1, 2001</date>"
        "<ts>sometime later</ts></order>",
    ]
    for doc in docs:
        database.insert("orders", {"orddoc": doc})
    database.execute("CREATE INDEX o_date ON orders(orddoc) "
                     "USING XMLPATTERN '//date' AS DATE")
    database.execute("CREATE INDEX o_ts ON orders(orddoc) "
                     "USING XMLPATTERN '//ts' AS TIMESTAMP")
    return database


class TestDateIndex:
    def test_tolerant_build(self, temporal_db):
        assert len(temporal_db.xml_indexes["o_date"]) == 3
        assert temporal_db.xml_indexes["o_date"].skipped_nodes == 1

    def test_range_query_uses_index(self, temporal_db):
        query = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order[date[. castable as xs:date]/xs:date(.) ge xs:date('2006-06-01')] "
                 "return $o")
        result = temporal_db.xquery(query)
        assert len(result) == 2
        assert result.stats.indexes_used == ["o_date"]
        baseline = temporal_db.xquery(query, use_indexes=False)
        assert result.serialize() == baseline.serialize()

    def test_equality_query(self, temporal_db):
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order[date[. castable as xs:date]/xs:date(.) eq xs:date('2006-09-12')]")
        result = temporal_db.xquery(query)
        assert len(result) == 1
        assert result.stats.indexes_used == ["o_date"]

    def test_between_on_dates(self, temporal_db):
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"
                 "[date[. castable as xs:date]/xs:date(.) ge xs:date('2006-01-01') and "
                 "date[. castable as xs:date]/xs:date(.) le xs:date('2006-06-30')]")
        result = temporal_db.xquery(query)
        assert len(result) == 2
        baseline = temporal_db.xquery(query, use_indexes=False)
        assert result.serialize() == baseline.serialize()


class TestTimestampIndex:
    def test_timezone_normalization_in_queries(self, temporal_db):
        # 12:00+02:00 equals 10:00Z; the index must agree.
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"
                 "[ts[. castable as xs:dateTime]/xs:dateTime(.) eq "
                 "xs:dateTime('2006-09-12T10:00:00Z')]")
        result = temporal_db.xquery(query, use_indexes=False)
        assert len(result) == 1

    def test_range_uses_index(self, temporal_db):
        query = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
                 "where $o/ts[. castable as xs:dateTime]/xs:dateTime(.) lt "
                 "xs:dateTime('2006-02-01T00:00:00Z') return $o")
        result = temporal_db.xquery(query)
        assert len(result) == 1
        assert result.stats.indexes_used == ["o_ts"]

    def test_zoned_and_unzoned_timestamps_compare_on_both_routes(self):
        # An unzoned timestamp is taken as UTC, the implicit timezone,
        # by the scan's comparison as by the index's keys.
        database = Database()
        database.create_table("t", [("d", "XML")])
        database.insert("t", {"d": "<r><t>2006-09-12T10:00:00Z</t></r>"})
        database.insert("t", {"d": "<r><t>2006-09-13T10:00:00</t></r>"})
        query = ("db2-fn:xmlcolumn('T.D')"
                 "//t[. >= xs:dateTime('2006-09-13T00:00:00')]")
        expected = ["<t>2006-09-13T10:00:00</t>"]
        assert database.xquery(query).serialize() == expected
        database.execute("CREATE INDEX t_ts ON t(d) "
                         "USING XMLPATTERN '//t' AS TIMESTAMP")
        result = database.xquery(query)
        assert result.stats.indexes_used == ["t_ts"]
        assert result.serialize() == expected

    def test_mismatched_temporal_types_ineligible(self, temporal_db):
        # A DATE comparison cannot be served by the TIMESTAMP index.
        from repro.core import analyze_eligibility
        report = analyze_eligibility(
            temporal_db,
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "/order[ts[. castable as xs:date]/xs:date(.) eq xs:date('2006-09-12')]")
        assert not report.is_index_eligible("o_ts")

    def test_sql_timestamp_roundtrip(self, temporal_db):
        result = temporal_db.sql(
            "SELECT XMLCAST(XMLQUERY('($d//ts)[1]' PASSING orddoc AS "
            "\"d\") AS TIMESTAMP) FROM orders "
            "WHERE XMLEXISTS('$d/order[date[. castable as xs:date]/xs:date(.) eq "
            "xs:date(\"2006-01-15\")]' PASSING orddoc AS \"d\")")
        assert len(result) == 1
        assert result.rows[0][0].year == 2006
