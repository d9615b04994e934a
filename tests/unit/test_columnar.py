"""Unit tests for the columnar node store (``repro.storage.columnar``).

The store is the accelerator-table representation of one parsed
document: parallel (pre, post, level, kind, parent, text) columns in
document order, path partitions for pattern matching (the document's
only structural summary), and a lazy
``materialize()`` that rebuilds a serialize-identical XDM tree with
the original node identities.
"""

from collections import Counter

import pytest

from repro.core.patterns import PatternMatcher, parse_xmlpattern
from repro.errors import DurabilityError, XQueryTypeError
from repro.storage.columnar import (ColumnStore, KIND_ATTRIBUTE,
                                    KIND_DOCUMENT, get_store,
                                    ingest_document, store_for_node)
from repro.storage.segment import (Segment, SegmentTables, decode_document,
                                   encode_document)
from repro.xdm.nodes import DocumentNode
from repro.xmlio import parse_document
from repro.xmlio.serializer import serialize

from ..paths import spelled_counts, walk_path

COMPLEX_XML = (
    "<?xml version=\"1.0\"?>"
    "<order xmlns:m=\"urn:meta\" m:origin=\"paper\">"
    "<!-- running example -->"
    "<date>January 1, 2002</date>"
    "<lineitem price=\"99.50\" quantity=\"2\">"
    "<product><id>gadget</id></product>"
    "</lineitem>"
    "<lineitem><price>250</price><price>50</price>"
    "<m:note>bulk<em>discount</em></m:note></lineitem>"
    "<?audit checked?>"
    "</order>")


def build(xml: str = COMPLEX_XML):
    document = parse_document(xml)
    store = ColumnStore.from_document(document)
    return document, store


def walk_all(node):
    """Every node including attributes, in document (pre) order."""
    yield node
    for attribute in node.attributes:
        yield attribute
    for child in node.children:
        yield from walk_all(child)


class TestColumnLayout:
    def test_slot_equals_pre_number(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            assert store.nodes[slot] is node
            assert node._order[1] == slot

    def test_post_level_columns_match_structure(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            assert store.post[slot] == node._post
            assert store.level[slot] == node._level

    def test_parent_column(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            if node is document:
                assert store.parent[slot] == -1
            else:
                parent_slot = store.parent[slot]
                assert store.nodes[parent_slot] is node.parent

    def test_subtree_end_is_contiguous_descendant_range(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            expected = sum(1 for _ in walk_all(node))
            assert store.subtree_end[slot] - slot == expected

    def test_node_ids_column_records_identity(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            assert store.node_ids[slot] == node.node_id

    def test_text_of_matches_string_value(self):
        document, store = build()
        for slot, node in enumerate(walk_all(document)):
            if node.kind in ("attribute", "text", "comment",
                             "processing-instruction"):
                assert store.text_of(slot) == node.string_value()


class TestAxisScans:
    def test_descendants_or_self_equals_object_walk(self):
        document, store = build()
        for node in walk_all(document):
            if node.kind == "attribute":
                continue
            expected = [n.node_id for n in node.descendants_or_self()]
            got = [n.node_id for n in store.descendants_or_self(node)]
            assert got == expected

    def test_following_axis(self):
        document, store = build()
        everything = [n for n in walk_all(document)
                      if n.kind != "attribute"]
        for anchor in everything:
            if anchor is document:
                continue
            expected = [n.node_id for n in everything
                        if n._order[1] > anchor._order[1]
                        and not anchor.is_ancestor_of(n)]
            got = [n.node_id for n in store.following(anchor)]
            assert got == expected

    def test_preceding_axis(self):
        document, store = build()
        everything = [n for n in walk_all(document)
                      if n.kind != "attribute"]
        for anchor in everything:
            if anchor is document:
                continue
            expected = [n.node_id for n in everything
                        if n._order[1] < anchor._order[1]
                        and not n.is_ancestor_of(anchor)]
            got = [n.node_id for n in store.preceding(anchor)]
            assert got == expected

    def test_partitions_cover_every_slot_once(self):
        # Every slot except the document node (which has no path)
        # appears in exactly one path partition.
        _document, store = build()
        seen = sorted(slot for slots in store.partitions
                      for slot in slots)
        assert seen == list(range(1, len(store.post)))


class TestMaterialize:
    def test_round_trip_is_serialize_identical(self):
        document, store = build()
        rebuilt = store.materialize()
        assert isinstance(rebuilt, DocumentNode)
        assert serialize(rebuilt) == serialize(document)

    def test_round_trip_preserves_node_ids(self):
        document, store = build()
        rebuilt = store.materialize()
        original = [n.node_id for n in walk_all(document)]
        restored = [n.node_id for n in walk_all(rebuilt)]
        assert restored == original

    def test_materialized_tree_is_attached_to_store(self):
        _document, store = build()
        rebuilt = store.materialize()
        assert rebuilt.column_store is store
        assert get_store(rebuilt) is store


class TestPathTable:
    """The readers over ``paths`` / ``partitions`` — node lists, path
    counts, and the path-class signature the column summary folds —
    against a parent-chain walk of every node."""

    def test_path_counts_equal_parent_chain_walk(self):
        document, store = build()
        expected = Counter(walk_path(node) for node in walk_all(document)
                           if node is not document)
        assert spelled_counts(store.path_counts()) == dict(expected)

    @pytest.mark.parametrize("pattern", [
        "//lineitem/@price", "//price", "/order/lineitem", "//*",
        "//@*", "//text()", "//comment()", "//processing-instruction()",
        "declare namespace m='urn:meta'; //m:note",
        "declare namespace m='urn:meta'; /order/@m:origin", "//nothing"])
    def test_readers_agree_with_walk(self, pattern):
        document, store = build()
        parsed = parse_xmlpattern(pattern)
        matcher = PatternMatcher(parsed)
        expected = [node for node in walk_all(document)
                    if node is not document
                    and parsed.matches_path(list(walk_path(node)))]
        assert store.nodes_for(matcher) == expected
        assert matcher.nodes_in(store.path_class()) == len(expected)

    def test_counts_need_no_tree(self):
        _document, store = build()
        matcher = PatternMatcher(parse_xmlpattern("//lineitem"))
        store.detach()
        assert matcher.nodes_in(store.path_class()) == 2
        assert store.path_class() == frozenset(store.path_counts().items())
        assert sum(store.path_counts().values()) == len(store) - 1


def segment_round_trip(store, tables=None) -> ColumnStore:
    """``store`` through its segment bytes and adopted back."""
    tables = tables or SegmentTables()
    return decode_document(encode_document(store, tables), "test segment",
                           tables)


def tampered_segment(store, change) -> tuple[dict, SegmentTables]:
    """``store``'s record value after ``change(segment)``, re-packed
    with a fresh CRC, and the tables it indexes."""
    tables = SegmentTables()
    value = encode_document(store, tables)
    segment = Segment.from_bytes(value["$seg"], "test segment")
    change(segment)
    value["$seg"] = segment.to_bytes()
    return value, tables


class TestPayloadRoundTrip:
    """The column segment (``repro.storage.segment``): the one form WAL
    records, checkpoints and pool workers hold a document in."""

    def test_payload_round_trip_serialize_identical(self):
        document, store = build()
        restored = segment_round_trip(store)
        assert serialize(restored.materialize()) == serialize(document)

    def test_payload_round_trip_preserves_node_ids(self):
        # A segment carries no node ids: a buffer-pool reload adopts it
        # under the ids its resident document kept.
        document, store = build()
        tables = SegmentTables()
        data = encode_document(store, tables)["$seg"]
        rebuilt = Segment.from_bytes(data, "test segment").adopt(
            tables, "test segment", node_ids=store.node_ids).materialize()
        original = [n.node_id for n in walk_all(document)]
        assert [n.node_id for n in walk_all(rebuilt)] == original

    def test_restored_ids_never_collide_with_new_nodes(self):
        # A segment without node ids is adopted with fresh ones, drawn
        # in adoption order (replicas and recovery rely on this for
        # cross-tree document order).
        _document, store = build()
        restored = segment_round_trip(store)
        assert min(restored.node_ids) > max(store.node_ids)
        fresh = parse_document("<a><b/></a>")
        assert min(n.node_id for n in walk_all(fresh)) > \
            max(restored.node_ids)

    def test_payload_paths_are_parent_pointer_rows(self):
        # Paths, posts, levels and text offsets are not stored: the
        # adoption re-derives them, the same interned paths included.
        _document, store = build()
        restored = segment_round_trip(store)
        for column in ("post", "level", "parent", "kind", "path_id",
                       "text_lo", "text_hi", "subtree_end"):
            assert getattr(restored, column) == getattr(store, column)
        assert len(restored.paths) == len(store.paths)
        assert all(mine is theirs
                   for mine, theirs in zip(restored.paths, store.paths))
        assert restored.partitions == store.partitions
        assert restored.text == store.text
        for slot in range(len(store)):
            for ids, table in (("name_id", "names"), ("ns_id", "nsscopes")):
                mine = getattr(restored, ids)[slot]
                theirs = getattr(store, ids)[slot]
                assert (mine < 0) == (theirs < 0)
                if mine >= 0:
                    assert getattr(restored, table)[mine] == \
                        getattr(store, table)[theirs]

    @pytest.mark.parametrize("row", [
        ["parent", 2, 2, r"slot 2: parent 2 outside \[-1, 2\)"],
        ["name", 2, 99, r"slot 2: name 99 outside the \d+ names"],
        ["scope", 1, 99, r"slot 1: scope 99 outside the 1 scopes"],
        ["length", 0, 200, r"slot lengths add up to \d+ characters"],
        "x", None])
    def test_a_bad_payload_path_row_is_a_typed_error(self, row):
        # A segment row (slot) that cannot be adopted, with a fresh CRC;
        # "x": the heap changed behind the CRC; None: bytes cut short.
        _document, store = build()
        if isinstance(row, list):
            column, slot, bad, message = row

            def change(segment):
                getattr(segment, column)[slot] = bad
            value, tables = tampered_segment(store, change)
        else:
            tables = SegmentTables()
            value = encode_document(store, tables)
            if row == "x":  # the heap is the segment's last run
                data = bytearray(value["$seg"])
                data[-1] ^= 1
                value["$seg"] = bytes(data)
                message = "segment CRC mismatch"
            else:
                value["$seg"] = value["$seg"][:8]
                message = "segment of 8 bytes is shorter than its header"
        with pytest.raises(DurabilityError,
                           match=f"^test segment: {message}"):
            decode_document(value, "test segment", tables)


class TestStoreLifecycle:
    def test_get_store_requires_valid_stamp(self):
        document, store = build("<a><b>x</b></a>")
        assert get_store(document) is store
        # A stored tree is numbered, so the edit raises and the store
        # stays the document's.  Only a tree that is no longer the
        # store's live materialization loses it.
        element = document.root_element
        with pytest.raises(XQueryTypeError):
            element.remove_child(element.children[0])
        assert get_store(document) is store
        rebuilt = store.materialize()
        assert get_store(rebuilt) is store
        assert get_store(document) is None
        assert store_for_node(element) is None
        store.detach()
        assert get_store(rebuilt) is None

    def test_store_for_node_walks_to_root(self):
        document, store = build("<a><b><c/></b></a>")
        leaf = document.root_element.children[0].children[0]
        assert store_for_node(leaf) is store

    def test_ingest_document_reuses_current_store(self):
        document = parse_document("<a><b/></a>")
        first = ingest_document(document)
        assert ingest_document(document) is first

    def test_detach_clears_tree_references(self):
        _document, store = build("<a><b/></a>")
        store.detach()
        assert store.nodes is None
        # Columns survive detach: a later materialize still works.
        rebuilt = store.materialize()
        assert serialize(rebuilt) == "<a><b/></a>"

    def test_kind_column_codes(self):
        _document, store = build()
        assert store.kind[0] == KIND_DOCUMENT
        assert KIND_ATTRIBUTE in set(store.kind)


class TestEdgeShapes:
    @pytest.mark.parametrize("xml", [
        "<a/>",
        "<a>text only</a>",
        "<a><!-- c --><?pi d?></a>",
        "<a xmlns=\"urn:d\"><b attr=\"1\"/></a>",
        "<a>mixed<b/>tail</a>",
    ])
    def test_small_shapes_round_trip(self, xml):
        document, store = build(xml)
        assert serialize(store.materialize()) == serialize(document)
        restored = segment_round_trip(store)
        assert serialize(restored.materialize()) == serialize(document)


class TestColumnKernel:
    """``nodes_where`` / ``nodes_at`` climb ``up`` parent links and
    return each ancestor once, in document order."""

    # ``//a/b/@v`` matches at two depths.  The deep ``b`` sits between
    # two shallow ones, so the ancestors two links above the slots, in
    # partition order or in slot order, do not ascend.
    XML = ("<r><a><b v='1'/></a><a><x><a><b v='2'/></a></x><b v='6'/></a>"
           "<a><b v='3'/><b v='5'/></a></r>")

    def kernel(self, tests, up=2):
        _document, store = build(self.XML)
        matcher = PatternMatcher(parse_xmlpattern("//a/b/@v"))
        [found] = store.nodes_where(matcher, up, True, tests, False)
        return store, found

    def test_ancestors_over_two_depths_are_sorted(self):
        from operator import gt
        store, found = self.kernel([(gt, 0.0)])
        slots = [node._order[1] for node in found]
        assert slots == sorted(set(slots)) and len(slots) == 4

    def test_ancestors_of_one_partition_keep_each_once(self):
        from operator import ge
        store, found = self.kernel([(ge, 3.0)], up=1)
        assert [node.name.local for node in found] == ["b", "b", "b"]
        store, found = self.kernel([(ge, 3.0)])
        assert [node._order[1] for node in found] == [5, 12]

    def test_both_bounds_in_one_pass(self):
        from operator import gt, lt
        store, found = self.kernel([(gt, 1.0), (lt, 3.0)], up=0)
        assert [node.string_value() for node in found] == ["2"]

    def test_node_answers_over_two_depths_are_sorted(self):
        store, found = self.kernel([(lambda value, _fixed: True, None)],
                                   up=0)
        ids = [node.node_id for node in found]
        climbed = store.nodes_at(ids, 2)
        assert [node._order[1] for node in climbed] == [2, 5, 7, 12]
