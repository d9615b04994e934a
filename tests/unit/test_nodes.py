"""Unit tests for the XDM node hierarchy."""

import sys
import threading

import pytest

from repro.errors import XQueryTypeError
from repro.storage.columnar import ingest_document
from repro.xdm import atomic
from repro.xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                             ElementNode, ProcessingInstructionNode,
                             TextNode, copy_node)
from repro.xdm.qname import QName
from repro.xdm.sequence import (atomize, document_order,
                                effective_boolean_value)
from repro.xmlio import parse_document

from ..paths import spell


def build_order() -> DocumentNode:
    price = AttributeNode(QName("", "price"), "99.50")
    item = ElementNode(QName("", "lineitem"), attributes=[price],
                       children=[TextNode("x"),
                                 ElementNode(QName("", "sub")),
                                 TextNode("y")])
    root = ElementNode(QName("", "order"), children=[item])
    return DocumentNode([root])


class TestStructure:
    def test_string_value_concatenates_descendant_text(self):
        doc = build_order()
        assert doc.string_value() == "xy"
        assert doc.root_element.string_value() == "xy"

    def test_attribute_string_value(self):
        doc = build_order()
        item = doc.root_element.children[0]
        assert item.attributes[0].string_value() == "99.50"

    def test_typed_value_untyped(self):
        doc = build_order()
        item = doc.root_element.children[0]
        values = item.attributes[0].typed_value()
        assert values[0].type_name == atomic.T_UNTYPED

    def test_typed_value_after_annotation(self):
        doc = build_order()
        attribute = doc.root_element.children[0].attributes[0]
        attribute.set_typed_value("xs:double", [atomic.double(99.5)])
        assert attribute.typed_value()[0].value == 99.5

    def test_path_steps(self):
        # A node's root-to-node steps are its column store's interned
        # path for the node's slot.
        doc = build_order()
        store = ingest_document(doc)
        attribute = doc.root_element.children[0].attributes[0]
        path = store.paths[store.path_id[attribute._order[1]]]
        assert [step.kind for step in spell(path)] == \
            ["element", "element", "attribute"]
        assert path.local == "price"

    def test_attribute_cannot_be_child(self):
        element = ElementNode(QName("", "a"))
        with pytest.raises(Exception):
            element.append_child(AttributeNode(QName("", "x"), "1"))

    def test_attribute_lookup(self):
        doc = build_order()
        item = doc.root_element.children[0]
        assert item.attribute("price") is not None
        assert item.attribute("missing") is None

    def test_comment_and_pi_values(self):
        comment = CommentNode(" hello ")
        pi = ProcessingInstructionNode("target", "data")
        assert comment.string_value() == " hello "
        assert pi.string_value() == "data"
        assert pi.name.local == "target"

    @pytest.mark.parametrize("node, slot", [
        (TextNode("x"), "content"), (CommentNode("c"), "content"),
        (ProcessingInstructionNode("t", "d"), "target"),
        (ProcessingInstructionNode("t", "d"), "content")])
    def test_leaf_content_is_read_only(self, node, slot):
        """Leaf content is read-only even before numbering: string
        values, index keys and a store's canonical text would go
        stale."""
        before = getattr(node, slot)
        with pytest.raises(AttributeError):
            setattr(node, slot, "changed")
        assert getattr(node, slot) == before


class TestIdentityAndOrder:
    def test_unique_identity(self):
        first = ElementNode(QName("", "a"))
        second = ElementNode(QName("", "a"))
        assert first.node_id != second.node_id
        assert first.is_same_node(first)

    def test_document_order_within_tree(self):
        doc = build_order()
        nodes = list(doc.descendants_or_self())
        keys = [node.document_order_key() for node in nodes]
        assert keys == sorted(keys)

    def test_attributes_order_between_element_and_children(self):
        doc = build_order()
        item = doc.root_element.children[0]
        attribute = item.attributes[0]
        first_child = item.children[0]
        assert item.document_order_key() < attribute.document_order_key()
        assert attribute.document_order_key() < \
            first_child.document_order_key()

    def test_order_invalidated_by_mutation(self):
        # Numbering freezes the tree: the edit raises and no key moves.
        doc = build_order()
        root = doc.root_element
        keys = [node.document_order_key() for node in
                doc.descendants_or_self()]
        with pytest.raises(XQueryTypeError):
            root.append_child(ElementNode(QName("", "late")))
        assert len(root.children) == 1
        assert [node.document_order_key() for node in
                doc.descendants_or_self()] == keys

    def test_document_order_helper_dedups(self):
        doc = build_order()
        item = doc.root_element.children[0]
        result = document_order([item, doc.root_element, item])
        assert len(result) == 2
        assert result[0] is doc.root_element


EDITS = ("append_child", "insert_child", "remove_child", "add_attribute",
         "remove_attribute")


def edits(element: ElementNode) -> dict:
    """Every structural edit of the node API (``EDITS``), aimed at
    ``element``."""
    return {
        "append_child": lambda: element.append_child(TextNode("t")),
        "insert_child": lambda: element.insert_child(0, TextNode("t")),
        "remove_child": lambda: element.remove_child(element.children[0]),
        "add_attribute": lambda: element.add_attribute(
            AttributeNode(QName("", "n"), "v")),
        "remove_attribute": lambda: element.remove_attribute(
            element.attributes[0]),
    }


class TestFreezeOnNumbering:
    """A tree can change only until it is numbered."""

    @pytest.mark.parametrize("edit", EDITS)
    def test_numbered_tree_rejects_every_edit(self, edit):
        doc = build_order()
        item = doc.root_element.children[0]
        item.structure()
        before = (list(item.children), list(item.attributes))
        with pytest.raises(XQueryTypeError, match="numbered"):
            edits(item)[edit]()
        assert (item.children, item.attributes) == before

    @pytest.mark.parametrize("edit", EDITS)
    def test_unnumbered_tree_takes_every_edit(self, edit):
        doc = build_order()
        item = doc.root_element.children[0]
        edits(item)[edit]()
        nodes = list(doc.descendants_or_self())
        assert [node.document_order_key() for node in nodes] == \
            sorted(node.document_order_key() for node in nodes)

    @pytest.mark.parametrize("numbered", [
        lambda: build_order(),
        lambda: ingest_document(build_order()).nodes[0],
        lambda: parse_document("<a/>"),
        lambda: parse_document("<a/>").column_store.materialize()],
        ids=["constructed", "captured", "parsed", "materialized"])
    def test_numbered_node_cannot_be_attached(self, numbered):
        node = numbered()
        node.document_order_key()
        with pytest.raises(XQueryTypeError):
            ElementNode(QName("", "p")).append_child(node)

    def test_a_stored_tree_arrives_numbered(self):
        doc = parse_document("<a><b/></a>")
        with pytest.raises(XQueryTypeError):
            doc.root_element.append_child(ElementNode(QName("", "c")))
        captured = build_order()
        ingest_document(captured)
        with pytest.raises(XQueryTypeError):
            captured.root_element.remove_child(
                captured.root_element.children[0])


class TestAttachRules:
    @pytest.mark.parametrize("attach", [
        lambda parent, node: parent.append_child(node),
        lambda parent, node: parent.insert_child(0, node)],
        ids=["append_child", "insert_child"])
    def test_a_child_has_one_parent(self, attach):
        child = ElementNode(QName("", "c"))
        first = ElementNode(QName("", "a"), children=[child])
        second = ElementNode(QName("", "b"))
        with pytest.raises(XQueryTypeError, match="already belongs"):
            attach(second, child)
        assert child.parent is first
        assert second.children == []
        with pytest.raises(XQueryTypeError):
            attach(DocumentNode(), child)

    def test_an_attribute_has_one_parent(self):
        attribute = AttributeNode(QName("", "x"), "1")
        first = ElementNode(QName("", "a"), attributes=[attribute])
        second = ElementNode(QName("", "b"))
        with pytest.raises(XQueryTypeError, match="already belongs"):
            second.add_attribute(attribute)
        assert attribute.parent is first
        assert second.attributes == []

    def test_a_removed_child_can_move(self):
        child = ElementNode(QName("", "c"))
        first = ElementNode(QName("", "a"), children=[child])
        first.remove_child(child)
        second = ElementNode(QName("", "b"), children=[child])
        assert child.parent is second

    @pytest.mark.parametrize("attach", [
        lambda document, node: document.append_child(node),
        lambda document, node: document.insert_child(0, node)],
        ids=["append_child", "insert_child"])
    def test_document_rejects_an_attribute_child(self, attach):
        document = DocumentNode()
        with pytest.raises(XQueryTypeError, match="cannot be a child"):
            attach(document, AttributeNode(QName("", "x"), "1"))
        assert document.children == []
        with pytest.raises(XQueryTypeError):
            DocumentNode([AttributeNode(QName("", "x"), "1")])


class TestConcurrentNumbering:
    def test_a_reader_never_sees_a_half_numbered_node(self):
        # One thread numbers a wide fresh tree while another reads its
        # root element's encoding: a node counts as numbered only once
        # its pre, post and level are all written.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(5):
                root = ElementNode(QName("", "r"), children=[
                    ElementNode(QName("", "c")) for _ in range(20_000)])
                doc = DocumentNode([root])
                numberer = threading.Thread(target=doc.structure)
                reads = []
                numberer.start()
                while numberer.is_alive() or not reads:
                    reads.append(root.structure())
                numberer.join()
                expected = (doc.node_id, 1, 20_000, 1)
                assert set(reads) == {expected}
        finally:
            sys.setswitchinterval(previous)


class TestCopy:
    def test_copy_strips_annotations_by_default(self):
        element = ElementNode(QName("", "id"))
        element.set_typed_value("xs:double", [atomic.double(17.0)])
        copied = copy_node(element)
        assert copied.type_annotation == "xdt:untyped"

    def test_copy_preserve_mode(self):
        element = ElementNode(QName("", "id"))
        element.set_typed_value("xs:double", [atomic.double(17.0)])
        copied = copy_node(element, preserve_types=True)
        assert copied.typed_value()[0].value == 17.0

    def test_copy_is_deep_and_fresh(self):
        doc = build_order()
        copied = copy_node(doc.root_element)
        original_ids = {node.node_id for node in
                        doc.root_element.descendants_or_self()}
        copied_ids = {node.node_id for node in
                      copied.descendants_or_self()}
        assert original_ids.isdisjoint(copied_ids)
        assert copied.string_value() == "xy"

    def test_copy_detaches_parent(self):
        doc = build_order()
        copied = copy_node(doc.root_element.children[0])
        assert copied.parent is None


class TestSequenceOps:
    def test_atomize_nodes_and_atomics(self):
        doc = build_order()
        item = doc.root_element.children[0]
        values = atomize([item, atomic.integer(5)])
        assert values[0].value == "xy"
        assert values[1].value == 5

    def test_ebv_rules(self):
        doc = build_order()
        assert effective_boolean_value([doc]) is True
        assert effective_boolean_value([]) is False
        assert effective_boolean_value([atomic.boolean(False)]) is False
        assert effective_boolean_value([atomic.string("")]) is False
        assert effective_boolean_value([atomic.string("x")]) is True
        assert effective_boolean_value([atomic.double(0.0)]) is False

    def test_ebv_multi_atomic_raises(self):
        with pytest.raises(Exception):
            effective_boolean_value([atomic.integer(1), atomic.integer(2)])
