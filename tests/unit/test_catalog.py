"""Unit tests for the Database catalog: DDL, DML, index maintenance."""

import pytest

from repro import Database
from repro.errors import CatalogError, SQLError


class TestDDL:
    def test_create_table_api(self, db):
        table = db.create_table("t", [("a", "INTEGER"), ("d", "XML")])
        assert table.column_type("a").name == "INTEGER"
        assert table.xml_columns() == ["d"]

    def test_create_table_ddl(self, db):
        db.execute("CREATE TABLE customer (cid INTEGER, cdoc XML)")
        assert "customer" in db.tables

    def test_create_table_with_typed_columns_ddl(self, db):
        db.execute("CREATE TABLE products "
                   "(id VARCHAR(13), name VARCHAR(32))")
        assert db.table("products").column_type("id").length == 13

    def test_duplicate_table_rejected(self, db):
        db.create_table("t", [("a", "INTEGER")])
        with pytest.raises(CatalogError):
            db.create_table("T", [("a", "INTEGER")])

    def test_create_xml_index_ddl_paper_syntax(self, db):
        db.create_table("orders", [("orddoc", "XML")])
        index = db.execute(
            "CREATE INDEX li_price ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")
        assert index.index_type == "DOUBLE"
        assert "li_price" in db.xml_indexes

    def test_create_xml_index_with_namespaces(self, db):
        db.create_table("customer", [("cdoc", "XML")])
        db.execute(
            "CREATE INDEX c_nation_ns1 ON customer(cdoc) "
            "USING XMLPATTERN 'declare default element namespace "
            "\"http://ournamespaces.com/order\"; //nation' AS double")
        assert "c_nation_ns1" in db.xml_indexes

    def test_xml_index_on_relational_column_rejected(self, db):
        db.create_table("t", [("a", "INTEGER")])
        with pytest.raises(CatalogError):
            db.create_xml_index("i", "t", "a", "//x", "DOUBLE")

    def test_relational_index_on_xml_column_rejected(self, db):
        db.create_table("t", [("d", "XML")])
        with pytest.raises(CatalogError):
            db.create_relational_index("i", "t", "d")

    def test_drop_index(self, db):
        db.create_table("t", [("d", "XML")])
        db.create_xml_index("i", "t", "d", "//x", "DOUBLE")
        db.drop_index("i")
        assert "i" not in db.xml_indexes
        with pytest.raises(CatalogError):
            db.drop_index("i")

    def test_drop_table_drops_indexes(self, db):
        db.create_table("t", [("a", "INTEGER"), ("d", "XML")])
        db.create_xml_index("xi", "t", "d", "//x", "DOUBLE")
        db.create_relational_index("ri", "t", "a")
        db.drop_table("t")
        assert not db.xml_indexes and not db.rel_indexes

    def test_unknown_statement(self, db):
        with pytest.raises(SQLError):
            db.execute("GRANT ALL TO nobody")

    @pytest.mark.parametrize("entry", ["execute", "execute_any"])
    def test_drop_statements(self, db, entry):
        run = getattr(db, entry)
        run("CREATE TABLE t (a INTEGER, d XML)")
        run("CREATE INDEX xi ON t(d) USING XMLPATTERN '//x' AS DOUBLE")
        run("CREATE INDEX ri ON t(a)")
        assert run("DROP INDEX xi") is None
        assert run("  drop index RI;") is None
        assert not db.xml_indexes and not db.rel_indexes
        with pytest.raises(CatalogError):
            run("DROP INDEX xi")
        run("DROP TABLE t")
        assert not db.tables

    def test_drop_statements_are_logged(self, tmp_path):
        from repro import DurableDatabase
        with DurableDatabase(tmp_path) as durable:
            durable.execute("CREATE TABLE t (a INTEGER, d XML)")
            durable.execute("CREATE TABLE u (a INTEGER)")
            durable.execute("CREATE INDEX xi ON t(d) USING XMLPATTERN "
                            "'//x' AS DOUBLE")
            durable.execute_any("DROP INDEX xi")
            durable.execute_any("DROP TABLE u")
        with DurableDatabase(tmp_path) as recovered:
            assert list(recovered.tables) == ["t"]
            assert not recovered.xml_indexes


class TestDML:
    def test_insert_parses_xml(self, db):
        db.create_table("t", [("d", "XML")])
        db.insert("t", {"d": "<a><b>1</b></a>"})
        docs = db.documents("t", "d")
        assert len(docs) == 1
        assert docs[0].document.root_element.name.local == "a"

    def test_index_built_on_existing_and_new_rows(self, db):
        db.create_table("t", [("d", "XML")])
        db.insert("t", {"d": "<a x='1'/>"})
        index = db.create_xml_index("i", "t", "d", "//@x", "DOUBLE")
        assert len(index) == 1
        db.insert("t", {"d": "<a x='2'/>"})
        assert len(index) == 2

    def test_delete_maintains_indexes(self, db):
        db.create_table("t", [("n", "INTEGER"), ("d", "XML")])
        db.create_xml_index("xi", "t", "d", "//@x", "DOUBLE")
        db.create_relational_index("ri", "t", "n")
        db.insert("t", {"n": 1, "d": "<a x='1'/>"})
        db.insert("t", {"n": 2, "d": "<a x='2'/>"})
        removed = db.delete_rows("t", lambda values: values["n"] == 1)
        assert removed == 1
        assert len(db.xml_indexes["xi"]) == 1
        assert len(db.rel_indexes["ri"]) == 1
        assert len(db.table("t")) == 1

    def test_failed_index_insert_rolls_back_row(self, db):
        from repro.schema import Schema
        db.create_table("t", [("d", "XML")])
        db.create_xml_index("i", "t", "d", "//nums", "DOUBLE")
        db.register_schema(
            Schema("lists").declare("nums", "xs:double", is_list=True))
        with pytest.raises(Exception):
            db.insert("t", {"d": "<a><nums>1 2</nums></a>"},
                      schema="lists")
        assert len(db.table("t")) == 0
        assert len(db.xml_indexes["i"]) == 0

    def test_xmlcolumn_reference(self, db):
        db.create_table("t", [("d", "XML")])
        db.insert("t", {"d": "<a/>"})
        docs = db.xmlcolumn("T.D")
        assert len(docs) == 1
        with pytest.raises(CatalogError):
            db.xmlcolumn("JUSTONENAME")

    def test_stats_counted_on_xmlcolumn(self, db):
        from repro.planner.stats import ExecutionStats
        db.create_table("t", [("d", "XML")])
        db.insert("t", {"d": "<a/>"})
        stats = ExecutionStats()
        db.xmlcolumn("t.d", stats=stats)
        assert stats.docs_scanned == 1

    def test_null_xml_column(self, db):
        db.create_table("t", [("n", "INTEGER"), ("d", "XML")])
        db.insert("t", {"n": 1})
        assert db.documents("t", "d") == []
        assert db.xmlcolumn("t.d") == []


class TestIndexCompaction:
    """A delete only makes indexes forget rows; once an index's dead
    entries reach its live ones the catalog swaps in a compacted copy,
    and snapshots keep the object they pinned."""

    XQUERY = "db2-fn:xmlcolumn('T.D')/r[k > 2]"
    SQL = "SELECT n FROM t WHERE n = 3"

    def answers(self, view, use_indexes):
        return (view.xquery(self.XQUERY,
                            use_indexes=use_indexes).serialize(),
                view.sql(self.SQL, use_indexes=use_indexes).rows)

    def test_compaction_swaps_in_a_new_index(self, db):
        db.create_table("t", [("n", "INTEGER"), ("d", "XML")])
        db.create_xml_index("xi", "t", "d", "//k", "DOUBLE")
        db.create_relational_index("ri", "t", "n")
        for number in range(10):
            db.insert("t", {"n": number,
                            "d": f"<r><k>{number}</k><k>{number}</k></r>"})
        xi, ri = db.xml_indexes["xi"], db.rel_indexes["ri"]
        snapshot = db.snapshot()
        expected = self.answers(snapshot, use_indexes=False)

        db.delete_rows("t", lambda values: values["n"] < 4)
        # 8 dead entries < 12 live ones: forgotten, still in the tree.
        assert db.xml_indexes["xi"] is xi and db.rel_indexes["ri"] is ri
        assert (len(xi), len(xi.tree), xi.distinct_doc_count()) == \
            (12, 20, 6)
        assert (len(ri), len(ri.tree)) == (6, 10)

        db.delete_rows("t", lambda values: values["n"] < 6)
        compacted, compacted_ri = db.xml_indexes["xi"], db.rel_indexes["ri"]
        assert compacted is not xi and compacted_ri is not ri
        assert (len(compacted), len(compacted.tree),
                compacted.distinct_doc_count()) == (8, 8, 4)
        assert (len(compacted_ri), len(compacted_ri.tree)) == (4, 4)
        assert "[8 entries, 0 skipped]" in db.describe()
        assert "rel index ri ON n [4 entries]" in db.describe()
        # The pinned objects are left as they were.
        assert (len(xi.tree), len(ri.tree)) == (20, 10)
        assert snapshot.xml_indexes["xi"] is xi
        assert self.answers(snapshot, use_indexes=True) == expected

        db.insert("t", {"n": 20, "d": "<r><k>20</k></r>"})
        assert db.xml_indexes["xi"] is compacted
        assert (len(compacted), len(compacted.tree)) == (9, 9)
        assert (len(compacted_ri), len(xi.tree), len(ri.tree)) == \
            (5, 20, 10)
        assert self.answers(db, use_indexes=True) == \
            self.answers(db, use_indexes=False)
        assert self.answers(snapshot, use_indexes=True) == expected

    def test_delete_reads_no_document(self, tmp_path):
        from repro.obs.metrics import METRICS, enabled_metrics
        db = Database(buffer_pool_bytes=1, buffer_pool_spill_dir=tmp_path)
        try:
            db.create_table("t", [("n", "INTEGER"), ("d", "XML")])
            db.create_xml_index("xi", "t", "d", "//k", "DOUBLE")
            for number in range(6):
                db.insert("t", {"n": number,
                                "d": f"<r><k>{number}</k></r>"})
            with enabled_metrics():
                assert db.delete_rows(
                    "t", lambda values: values["n"] % 2 == 0) == 3
                assert METRICS.counter("bufferpool.loads") == 0
                assert METRICS.counter("columnar.materializations") == 0
            assert len(db.xml_indexes["xi"]) == 3
        finally:
            db.buffer_pool.close()
