"""Unit tests for XML value indexes (§2.1 semantics)."""

import pytest

from repro.core.patterns import parse_xmlpattern
from repro.errors import SchemaValidationError
from repro.storage.xmlindex import XmlIndex
from repro.xmlio import parse_document


def make_index(pattern: str, index_type: str) -> XmlIndex:
    return XmlIndex("test_idx", "orders", "orddoc", pattern, index_type)


class TestIndexing:
    def test_double_index_entries(self):
        index = make_index("//lineitem/@price", "DOUBLE")
        doc = parse_document(
            "<order><lineitem price='99.50'/><lineitem price='150'/>"
            "</order>")
        index.index_document(1, doc)
        assert len(index) == 2
        assert {key for key, _entry in index.tree.items()} == {99.5, 150.0}

    def test_tolerant_skip_on_cast_failure(self):
        # §2.1: "20 USD" is simply not added to a DOUBLE index.
        index = make_index("//lineitem/@price", "DOUBLE")
        doc = parse_document("<order><lineitem price='20 USD'/></order>")
        index.index_document(1, doc)
        assert len(index) == 0
        assert index.skipped_nodes == 1

    def test_nan_is_not_a_key(self):
        # NaN equals and orders against nothing; as a key it broke the
        # tree's order, and `//x[k = 2]` lost the document holding 2.
        index = make_index("//k", "DOUBLE")
        index.index_document(1, parse_document("<x><k>NaN</k></x>"))
        index.index_document(2, parse_document("<x><k>1</k><k>2</k></x>"))
        assert index.skipped_nodes == 1
        assert index.matching_documents(2.0, 2.0) == {2}

    def test_nan_neighbours_survive_the_prefilter(self):
        from repro import Database
        database = Database(index_order=4)
        database.create_table("l", [("d", "XML")])
        for values in (["1", "NaN"], ["NaN"], ["1", "2"]):
            children = "".join(f"<k>{value}</k>" for value in values)
            database.insert("l", {"d": f"<x>{children}</x>"})
        database.create_xml_index("lk", "l", "d", "//k", "DOUBLE")
        query = "db2-fn:xmlcolumn('L.D')/x[k = 2]"
        assert database.xquery(query).serialize() == \
            database.xquery(query, use_indexes=False).serialize() == \
            ["<x><k>1</k><k>2</k></x>"]

    def test_varchar_contains_all_nodes(self):
        # §2.1: "all nodes appear in a string index".
        index = make_index("//lineitem/@price", "VARCHAR")
        doc = parse_document(
            "<order><lineitem price='20 USD'/><lineitem price='1'/>"
            "</order>")
        index.index_document(1, doc)
        assert len(index) == 2

    def test_element_string_value_indexed(self):
        # Interior nodes index "the concatenation of all text below".
        index = make_index("//price", "VARCHAR")
        doc = parse_document(
            "<order><price>99.50<currency>USD</currency></price></order>")
        index.index_document(1, doc)
        keys = [key for key, _entry in index.tree.items()]
        assert keys == ["99.50USD"]

    def test_text_node_indexed_separately(self):
        index = make_index("//price/text()", "VARCHAR")
        doc = parse_document(
            "<order><price>99.50<currency>USD</currency></price></order>")
        index.index_document(1, doc)
        keys = [key for key, _entry in index.tree.items()]
        assert keys == ["99.50"]

    def test_broad_attribute_index(self):
        # The §2.1 "//@* as double" broad-index scenario.
        index = make_index("//@*", "DOUBLE")
        doc = parse_document(
            "<a x='1' label='name'><b y='2.5'/></a>")
        index.index_document(1, doc)
        assert len(index) == 2  # 'name' skipped, 1 and 2.5 kept

    def test_typed_annotation_respected(self):
        from repro.schema import Schema, validate
        index = make_index("//v", "VARCHAR")
        doc = parse_document("<a><v>01.50</v></a>")
        validate(doc, Schema("s").declare("v", "xs:double"))
        index.index_document(1, doc)
        # Indexed via the typed value: canonical "1.5", not "01.50".
        keys = [key for key, _entry in index.tree.items()]
        assert keys == ["1.5"]

    def test_list_type_rejected(self):
        # §3.10 footnote 5: list types are prohibited in indexed docs.
        from repro.schema import Schema, validate
        index = make_index("//nums", "DOUBLE")
        doc = parse_document("<a><nums>1 2</nums></a>")
        validate(doc, Schema("s").declare("nums", "xs:double",
                                          is_list=True))
        with pytest.raises(SchemaValidationError):
            index.index_document(1, doc)

    def test_date_index(self):
        index = make_index("//date", "DATE")
        doc = parse_document(
            "<o><date>2006-09-12</date><date>January 1</date></o>")
        index.index_document(1, doc)
        assert len(index) == 1

    def test_timestamp_normalizes_zones(self):
        index = make_index("//t", "TIMESTAMP")
        doc = parse_document(
            "<o><t>2006-09-12T10:00:00Z</t>"
            "<t>2006-09-12T12:00:00+02:00</t></o>")
        index.index_document(1, doc)
        assert index.tree.key_count == 1  # same instant

    def test_namespace_restriction(self):
        # §3.7: a pattern without namespaces indexes only empty-ns nodes.
        index = make_index("//nation", "DOUBLE")
        ns_doc = parse_document(
            '<customer xmlns="http://c"><nation>1</nation></customer>')
        plain_doc = parse_document("<customer><nation>1</nation></customer>")
        index.index_document(1, ns_doc)
        index.index_document(2, plain_doc)
        assert {entry.doc_id for _key, entry in index.tree.items()} == {2}


class TestProbing:
    def make_populated(self) -> XmlIndex:
        index = make_index("//lineitem/@price", "DOUBLE")
        for doc_id, price in enumerate([50, 99.5, 150, 250], start=1):
            index.index_document(doc_id, parse_document(
                f"<order><lineitem price='{price}'/></order>"))
        return index

    def test_range_probe(self):
        index = self.make_populated()
        assert index.matching_documents(low=100) == {3, 4}
        assert index.matching_documents(high=99.5) == {1, 2}
        assert index.matching_documents(low=99.5, high=150) == {2, 3}
        assert index.matching_documents(
            low=99.5, high=150, low_inclusive=False) == {3}

    def test_path_filter_restriction(self):
        # §2.2: the //lineitem/@price index can apply a more
        # restrictive //order/lineitem/@price query path.
        index = make_index("//lineitem/@price", "DOUBLE")
        index.index_document(1, parse_document(
            "<order><lineitem price='150'/></order>"))
        index.index_document(2, parse_document(
            "<quote><lineitem price='150'/></quote>"))
        narrowed = parse_xmlpattern("//order/lineitem/@price")
        assert index.matching_documents(low=100) == {1, 2}
        assert index.matching_documents(
            low=100, path_filter=narrowed) == {1}

    def test_forget_document(self):
        index = self.make_populated()
        index.index_document(9, parse_document(
            "<order><lineitem price='150'/><lineitem price='1'/></order>"))
        assert (len(index), index.distinct_doc_count()) == (6, 5)
        tree = index.tree
        index.forget(9)
        # Only the live count drops: the entries stay for views whose
        # rows still hold document 9.
        assert (len(index), index.distinct_doc_count()) == (4, 4)
        assert index.tree is tree and len(tree) == 6
        assert 9 in index.matching_documents(low=100)
        index.forget(9)
        assert len(index) == 4

        compacted = index.compacted()
        assert compacted is not index and compacted.tree is not tree
        assert 9 not in compacted.matching_documents(low=100)
        assert list(compacted.tree.items()) == [
            (key, entry) for key, entry in tree.items()
            if entry.doc_id != 9]
        assert (len(compacted), compacted.distinct_doc_count()) == (4, 4)
        assert len(tree) == 6   # the old object is left as it was
        compacted.index_document(10, parse_document(
            "<order><lineitem price='300'/></order>"))
        assert compacted.matching_documents(low=260) == {10}
        assert index.matching_documents(low=260) == set()

    def test_key_for_value(self):
        from repro.xdm import atomic
        index = self.make_populated()
        assert index.key_for_value(atomic.untyped("99.50")) == 99.5
        from repro.errors import CastError
        with pytest.raises(CastError):
            index.key_for_value(atomic.untyped("x"))

    def test_stats_recorded(self):
        from repro.planner.stats import ExecutionStats
        index = self.make_populated()
        stats = ExecutionStats()
        index.matching_documents(low=100, stats=stats)
        assert stats.index_entries_scanned == 2
        assert stats.indexes_used == ["test_idx"]

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaValidationError):
            make_index("//a", "BLOB")
