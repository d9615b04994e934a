"""Integration tests: schema-flexible RSS workloads and the Tips 1–12
lint."""

import pytest

from repro import Database
from repro.static import lint_index_pattern, lint_statement
from repro.workload import WorkloadGenerator


@pytest.fixture()
def rss_db() -> Database:
    database = Database()
    database.create_table("feeds", [("fid", "INTEGER"),
                                    ("feed", "XML")])
    generator = WorkloadGenerator(seed=7)
    for feed_id in range(1, 21):
        database.insert("feeds", {"fid": feed_id,
                                  "feed": generator.rss_feed(feed_id)})
    return database


class TestRSSWorkload:
    """RSS allows elements of any namespace anywhere (§1): queries must
    cope with extension elements they did not anticipate."""

    def test_titles_query(self, rss_db):
        result = rss_db.xquery(
            "for $t in db2-fn:xmlcolumn('FEEDS.FEED')"
            "/rss/channel/item/title return $t/data(.)")
        assert len(result) == 100  # 20 feeds x 5 items

    def test_foreign_namespace_extensions_queryable(self, rss_db):
        result = rss_db.xquery(
            'declare namespace dc="http://purl.org/dc/elements/1.1/"; '
            "db2-fn:xmlcolumn('FEEDS.FEED')//item[dc:creator]")
        baseline = rss_db.xquery(
            "db2-fn:xmlcolumn('FEEDS.FEED')//item[*:creator]")
        assert len(result) == len(baseline)
        assert len(result) > 0

    def test_wildcard_namespace_index_covers_extensions(self, rss_db):
        rss_db.execute(
            "CREATE INDEX any_creator ON feeds(feed) "
            "USING XMLPATTERN '//*:creator' AS VARCHAR")
        index = rss_db.xml_indexes["any_creator"]
        assert len(index) > 0

    def test_date_index_on_pubdate(self, rss_db):
        rss_db.execute(
            "CREATE INDEX pubdate ON feeds(feed) "
            "USING XMLPATTERN '//item/pubDate' AS DATE")
        query = ("db2-fn:xmlcolumn('FEEDS.FEED')//item"
                 "[pubDate/xs:date(.) ge xs:date('2006-09-20')]")
        result = rss_db.xquery(query)
        baseline = rss_db.xquery(query, use_indexes=False)
        assert result.serialize() == baseline.serialize()
        assert "pubdate" in result.stats.indexes_used


class TestAdvisorIntegration:
    """The lint is the advisor: every tip scenario yields its code."""

    def test_tips_cover_the_pitfall_catalogue(self, indexed_db):
        scenarios = {
            1: 'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
               '//order[lineitem/@price > "100"] return $i',
            2: "SELECT XMLQuery('$o//lineitem[@price > 100]' "
               'passing orddoc as "o") FROM orders',
            3: "SELECT ordid FROM orders WHERE XMLExists("
               "'$o//lineitem/@price > 100' passing orddoc as \"o\")",
            4: "SELECT o.ordid, t.price FROM orders o, "
               "XMLTable('$d//lineitem' passing o.orddoc as \"d\" "
               "COLUMNS price DOUBLE PATH '@price[. > 100]') AS t",
            7: "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
               "return <r>{$o/lineitem[@price > 100]}</r>",
            8: "let $o := <n>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/order}"
               "</n> return $o[//custid]",
        }
        for tip, query in scenarios.items():
            findings = lint_statement(query, database=indexed_db)
            assert tip in {item.code.tip for item in findings}, \
                f"expected Tip {tip} for {query!r}"
            assert all(item.suggestion for item in findings
                       if item.code.tip == tip)

    def test_between_advice(self, indexed_db):
        findings = lint_statement(
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//lineitem[price > 100 and price < 200]",
            database=indexed_db)
        assert any(item.code.section == "3.10" for item in findings)

    def test_clean_query_no_warnings(self, indexed_db):
        findings = lint_statement(
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//order[lineitem/@price>100] return $i",
            database=indexed_db)
        assert [item for item in findings if item.severity == "warning"] \
            == []

    def test_index_pattern_lints(self):
        assert any(item.code.tip == 12
                   for item in lint_index_pattern("//node()"))
        assert any(item.code.tip == 10
                   for item in lint_index_pattern("//nation"))
        assert lint_index_pattern("//@*") == []

    def test_sql_join_advice(self, indexed_db):
        findings = lint_statement(
            "SELECT c.cid FROM orders o, customer c, "
            "WHERE XMLCast(XMLQuery('$o/order/custid' passing o.orddoc "
            "as \"o\") as DOUBLE) = XMLCast(XMLQuery('$c/customer/id' "
            "passing c.cdoc as \"c\") as DOUBLE)", database=indexed_db)
        assert any(item.code.tip == 6 for item in findings)
