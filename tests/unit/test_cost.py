"""Unit tests for the probe estimates EXPLAIN ANALYZE reports, and for
the planner using every eligible index whatever its selectivity."""

import pytest

from repro import Database
from repro.planner.cost import CostModel, KeyHistogram
from repro.storage.btree import BPlusTree


class TestHistogram:
    def make_tree(self, count: int = 1000) -> BPlusTree:
        tree = BPlusTree(order=16)
        for value in range(count):
            tree.insert(float(value), value)
        return tree

    def test_full_range(self):
        histogram = KeyHistogram(self.make_tree())
        assert histogram.range_fraction(None, None) == pytest.approx(
            1.0, abs=0.05)

    def test_half_range(self):
        histogram = KeyHistogram(self.make_tree())
        assert histogram.range_fraction(500.0, None) == pytest.approx(
            0.5, abs=0.1)

    def test_narrow_range(self):
        histogram = KeyHistogram(self.make_tree())
        assert histogram.range_fraction(990.0, None) <= 0.1

    def test_empty_tree(self):
        histogram = KeyHistogram(BPlusTree(order=16))
        assert histogram.range_fraction(None, None) == 0.0

    def test_incomparable_bounds_conservative(self):
        histogram = KeyHistogram(self.make_tree())
        assert histogram.range_fraction("a-string", None) == 1.0


@pytest.fixture()
def priced_db() -> Database:
    database = Database()
    database.create_table("orders", [("orddoc", "XML")])
    for value in range(100):
        database.insert("orders", {
            "orddoc": f"<order><lineitem price='{value}'/></order>"})
    database.create_xml_index("li_price", "orders", "orddoc",
                              "//lineitem/@price", "DOUBLE")
    return database


class TestCostBasedPlanning:
    def test_rule_based_default_always_probes(self, priced_db):
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "//lineitem[@price >= 0]")
        result = priced_db.xquery(query)   # rule-based default
        assert result.stats.indexes_used == ["li_price"]

    def test_estimate_probe_accounting(self, priced_db):
        model = CostModel()
        index = priced_db.xml_indexes["li_price"]
        estimate = model.estimate_probe(index, 90.0, None, 100)
        assert estimate.docs_fraction < 0.3
        estimate = model.estimate_probe(index, None, None, 100)
        assert estimate.docs_fraction == pytest.approx(1.0)

    def test_distinct_doc_count_maintained(self, priced_db):
        index = priced_db.xml_indexes["li_price"]
        assert index.distinct_doc_count() == 100
        removed = priced_db.delete_rows(
            "orders", lambda values:
            "price='5'" in _doc_text(values["orddoc"]))
        assert removed == 1
        assert index.distinct_doc_count() == 99
        priced_db.delete_rows("orders")
        assert index.distinct_doc_count() == 0


class TestEstimatesFollowLiveData:
    def build(self, rows: int, keep: int) -> Database:
        database = Database()
        database.create_table("t", [("id", "INTEGER"), ("d", "XML")])
        for value in range(1, rows + 1):
            database.insert("t", {"id": value,
                                  "d": f"<r><k>{value}</k></r>"})
        database.create_xml_index("k_idx", "t", "d", "//k", "DOUBLE")
        database.delete_rows("t", lambda values: values["id"] > keep)
        return database

    def estimates(self, database) -> list:
        analyzed = database.explain_analyze(
            "db2-fn:xmlcolumn('T.D')/r[k <= 51]")
        return [(scan.estimated_rows, scan.actual_rows)
                for scan in analyzed.operators("index-scan")]

    def test_forgotten_entries_are_not_counted(self):
        """49 dead entries stay in the tree (fewer than the 51 live
        ones, so no compaction); the estimate must equal a fresh
        database's over the same 51 rows."""
        deleted = self.build(100, keep=51)
        assert len(deleted.xml_indexes["k_idx"].tree) == 100
        fresh = self.build(51, keep=51)
        assert self.estimates(deleted) == self.estimates(fresh) == \
            [(51.0, 51)]


def _doc_text(stored) -> str:
    from repro.xmlio import serialize
    return serialize(stored.document).replace('"', "'")


class TestPathSummarySelectivity:
    """Probe estimates consume real path-summary cardinalities."""

    def make_db(self, with_lineitems: int, without: int) -> Database:
        database = Database()
        database.create_table("orders", [("orddoc", "XML")])
        for value in range(with_lineitems):
            database.insert("orders", {
                "orddoc": f"<order><lineitem price='{value}'/></order>"})
        for _ in range(without):
            database.insert("orders", {
                "orddoc": "<order><note>n</note></order>"})
        # A structural index present in *every* document: the histogram
        # alone sees no selectivity, only the path summary does.
        database.create_xml_index("ord_idx", "orders", "orddoc",
                                  "//order", "VARCHAR")
        return database

    def test_docs_with_path_and_cardinality(self):
        database = self.make_db(10, 30)
        assert database.docs_with_path(
            "orders", "orddoc", "//order") == 40
        assert database.docs_with_path(
            "orders", "orddoc", "//order/lineitem") == 10
        assert database.path_cardinality(
            "orders", "orddoc", "//lineitem/@price") == 10

    def test_summary_counts_change_probe_selectivity(self):
        database = self.make_db(10, 30)
        model = CostModel()
        index = database.xml_indexes["ord_idx"]

        plain = model.estimate_probe(index, None, None, 40)
        sparse = model.estimate_probe(
            index, None, None, 40,
            docs_with_path=database.docs_with_path(
                "orders", "orddoc", "//order/lineitem"))
        assert plain.docs_fraction == pytest.approx(1.0)
        # The path summary caps coverage at the 10 of 40 documents
        # that hold the query's path.
        assert sparse.docs_fraction == pytest.approx(0.25)

        # Change the summary counts (more documents carry the path):
        # the estimated selectivity must follow.
        for value in range(20):
            database.insert("orders", {
                "orddoc": f"<order><lineitem price='{100 + value}'/>"
                          f"</order>"})
        denser = model.estimate_probe(
            index, None, None, 60,
            docs_with_path=database.docs_with_path(
                "orders", "orddoc", "//order/lineitem"))
        assert denser.docs_fraction > sparse.docs_fraction
