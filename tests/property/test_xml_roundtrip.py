"""Property-based tests: XML serialize/parse round-trips.

The durability checkpoints store documents as serialized text, so the
serializer output must be a *fixed point*: serialize → parse →
serialize is byte-identical for every document the engine can hold,
across comments, processing instructions, namespaces, mixed content,
and attribute edge characters.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError, XQueryTypeError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage.columnar import ColumnStore, get_store
from repro.storage.segment import (SegmentTables, decode_document,
                                   encode_document)
from repro.workload import WorkloadGenerator
from repro.workload.generator import OrderProfile
from repro.xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                             ElementNode, ProcessingInstructionNode,
                             TextNode)
from repro.xdm.qname import QName
from repro.xmlio import parse_document, serialize
from repro.xmlio.serializer import _serialize_node

from ..paths import spelled_counts, walk_path

names = st.sampled_from(["a", "b", "order", "lineitem", "price", "x1"])
# Text without '\r' (XML line-end normalization folds CR) — content is
# otherwise arbitrary and must round-trip through escaping.
texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=1, max_size=20)
pi_targets = st.sampled_from(["style", "target", "app"])


@st.composite
def processing_instructions(draw):
    content = draw(texts).replace("?>", "__").strip()
    return ProcessingInstructionNode(draw(pi_targets), content)


unqualified = names.map(lambda local: QName("", local))


@st.composite
def elements(draw, depth: int = 0, element_names=unqualified,
             attribute_names=unqualified):
    name = draw(element_names)
    attributes = [
        AttributeNode(attribute_name, draw(texts))
        for attribute_name in draw(st.lists(
            attribute_names, max_size=3,
            unique_by=lambda qname: (qname.uri, qname.local)))]
    children = []
    if depth < 3:
        for kind in draw(st.lists(
                st.sampled_from(["text", "element", "comment", "pi"]),
                max_size=4)):
            if kind == "text":
                children.append(TextNode(draw(texts)))
            elif kind == "comment":
                comment = draw(texts).replace("--", "xx").rstrip("-")
                children.append(CommentNode(comment))
            elif kind == "pi":
                children.append(draw(processing_instructions()))
            else:
                children.append(draw(elements(depth + 1, element_names,
                                              attribute_names)))
    merged = []
    for child in children:  # adjacent text merges on reparse: pre-merge
        if merged and child.kind == "text" and merged[-1].kind == "text":
            merged[-1] = TextNode(merged[-1].content + child.content)
        else:
            merged.append(child)
    return ElementNode(name, attributes=attributes, children=merged)


@given(elements())
def test_serialize_parse_roundtrip(root):
    document = DocumentNode([root])
    text = serialize(document)
    reparsed = parse_document(text)
    assert serialize(reparsed) == text
    assert _shape(reparsed.root_element) == _shape(root)


def _shape(node):
    if node.kind == "element":
        return ("element", node.name.local,
                sorted((attribute.name.local, attribute.string_value())
                       for attribute in node.attributes),
                [_shape(child) for child in node.children])
    return (node.kind, node.string_value())


@given(elements())
def test_string_value_preserved(root):
    document = DocumentNode([root])
    reparsed = parse_document(serialize(document))
    assert reparsed.string_value() == document.string_value()


# Serialized text the checkpoint layer must treat as a fixed point:
# serialize(parse(text)) == text, covering comments, PIs, namespace
# declarations (default and prefixed, including re-declaration), mixed
# content, and attribute values with every escapable character.
FIXED_POINT_DOCUMENTS = [
    "<a/>",
    "<a b=\"1\"/>",
    "<a><!--note--><b/><?pi data?></a>",
    "<a><?pi?>text<b/>tail</a>",
    "<order xmlns=\"http://example.com/o\">"
    "<custid>7</custid></order>",
    "<p:a xmlns:p=\"urn:one\"><p:b/>"
    "<q:c xmlns:q=\"urn:two\" q:attr=\"v\"/></p:a>",
    "<p:a xmlns:p=\"urn:one\">"
    "<p:inner xmlns:p=\"urn:redeclared\"/></p:a>",
    "<a attr=\"&lt;&amp;&quot;'&gt;\">&lt;body&amp;&gt;</a>",
    "<price currency=\"USD\">99.50<note>mixed</note>USD</price>",
    "<a>  leading and trailing  </a>",
    "<a><b/><c/><b/></a>",
]


@pytest.mark.parametrize("text", FIXED_POINT_DOCUMENTS)
def test_serializer_is_fixed_point(text):
    once = serialize(parse_document(text))
    assert once == text
    assert serialize(parse_document(once)) == once


def test_empty_text_child_collapses_to_self_closing():
    """`<a></a>` reparses as childless, so an element whose children
    serialize to nothing must emit `<a/>` — otherwise checkpointed
    documents drift on every save/recover cycle."""
    root = ElementNode(QName("", "a"), children=[TextNode("")])
    text = serialize(DocumentNode([root]))
    assert text == "<a/>"
    assert serialize(parse_document(text)) == text


@given(elements())
def test_double_roundtrip_byte_identical(root):
    """serialize∘parse is idempotent: the second pass changes nothing."""
    once = serialize(parse_document(serialize(DocumentNode([root]))))
    assert serialize(parse_document(once)) == once


# ---------------------------------------------------------------------------
# The parser and ColumnStore.from_document drive one column builder
# ---------------------------------------------------------------------------

#: Element and attribute names: no namespace, a default namespace, and
#: prefixes (two of them bound to one URI).
namespaced = st.sampled_from([
    QName("", "a"), QName("", "order"), QName("urn:d", "b"),
    QName("urn:p", "c", "p"), QName("urn:q", "d", "q"),
    QName("urn:p", "a", "p"), QName("urn:p", "c", "r")])
namespaced_attributes = st.sampled_from([
    QName("", "x"), QName("", "price"), QName("urn:p", "y", "p"),
    QName("urn:q", "y", "q")])


COLUMNS = ("post", "level", "parent", "kind", "name_id", "ns_id",
           "path_id", "text_lo", "text_hi", "subtree_end", "node_ids")


def assert_paths_partition_the_nodes(store: ColumnStore):
    """Each distinct root-to-node path has one path id, and its
    partition holds exactly the nodes along it."""
    assert len(set(store.paths)) == len(store.paths)
    expected = Counter(walk_path(node) for node in store.nodes
                       if node.kind != "document")
    assert spelled_counts(store.path_counts()) == dict(expected)


def assert_same_columns(parsed: ColumnStore, captured: ColumnStore):
    for column in COLUMNS:
        assert getattr(parsed, column) == getattr(captured, column), column
    assert parsed.paths == captured.paths
    assert all(mine is theirs
               for mine, theirs in zip(parsed.paths, captured.paths))
    assert parsed.partitions == captured.partitions
    assert parsed.text == captured.text
    assert parsed.names == captured.names
    assert [name.prefix for name in parsed.names] == \
        [name.prefix for name in captured.names]
    assert parsed.nsscopes == captured.nsscopes


@given(st.one_of(elements(), elements(0, namespaced,
                                      namespaced_attributes)))
def test_parser_and_tree_capture_build_the_same_columns(root):
    text = serialize(DocumentNode([root]))
    document = parse_document(text)
    parsed = document.column_store
    assert get_store(document) is parsed
    numbering = [node.structure() for node in parsed.nodes]
    assert_paths_partition_the_nodes(parsed)
    captured = ColumnStore.from_document(document)
    assert_same_columns(parsed, captured)
    # Capturing renumbers the tree with the values it already had.
    assert [node.structure() for node in captured.nodes] == numbering
    assert captured.nodes == parsed.nodes


@pytest.mark.parametrize("text", FIXED_POINT_DOCUMENTS + [
    "<?xml version='1.0'?><!DOCTYPE a><!--c--><a>&amp;<![CDATA[<&>]]>"
    "&#x1F600;</a><?pi tail?>",
    "<a><![CDATA[]]></a>",
    '<a xmlns:p="urn:p"><b xmlns:p="urn:p" p:x="1"/></a>',
    # Two prefixes, one URI: one path.
    '<a xmlns:p="urn:p" xmlns:q="urn:p"><p:b/><q:b p:x="1" q:y="2"/></a>',
])
def test_fixed_documents_build_the_same_columns(text):
    document = parse_document(text)
    parsed = document.column_store
    assert_paths_partition_the_nodes(parsed)
    assert_same_columns(parsed, ColumnStore.from_document(document))


# ---------------------------------------------------------------------------
# Stored nodes slice the store's canonical text; the walk is the oracle
# ---------------------------------------------------------------------------


def walk(node) -> str:
    """The uncached serialization: the tree walk, no column store."""
    return _serialize_node(node, inherited={})


def stored_nodes(document):
    return [node for node in document.descendants_or_self()
            if node.kind in ("document", "element")]


def assert_serializes_like_the_walk(document):
    for node in stored_nodes(document):
        assert serialize(node) == walk(node)


documents = st.one_of(elements(), elements(0, namespaced,
                                           namespaced_attributes))


@given(documents)
def test_stored_nodes_serialize_like_the_walk(root):
    document = parse_document(serialize(DocumentNode([root])))
    store = document.column_store
    assert_serializes_like_the_walk(document)  # fills the cache
    assert store.canonical == walk(document)
    # The document and its only element are the whole text; below
    # them, a span where the inherited scope is empty: every element
    # of a namespace-free document.
    plain = all(name.uri == "" for name in store.names)
    unspanned = 0
    for node in stored_nodes(document)[2:]:
        if store.spans[2 * node._order[1]] < 0:
            assert not plain
            unspanned += 1
    with enabled_metrics():
        assert_serializes_like_the_walk(document)  # repeated: slices
        assert METRICS.counter("serialize.walks") == unspanned
        assert METRICS.counter("serialize.slices") == \
            len(stored_nodes(document)) - unspanned


@pytest.mark.parametrize("text", FIXED_POINT_DOCUMENTS + [
    # Default-namespace undeclaration below a default namespace.
    '<b xmlns="urn:d"><a xmlns=""><c xmlns:p="urn:p" p:y="1"/></a>'
    '<d/></b>',
    # The root element beside other document children has a span.
    '<!--c--><a><b/></a><?pi x?>',
])
def test_fixed_documents_serialize_like_the_walk(text):
    document = parse_document(text)
    assert_serializes_like_the_walk(document)
    assert_serializes_like_the_walk(document)
    assert serialize(document) == text


@given(documents, st.data())
def test_mutation_shows_through_the_serializer(root, data):
    # A stored tree is numbered, so it cannot change: every structural
    # edit raises, and the order, the store and its canonical text stay
    # as they were.
    document = parse_document(serialize(DocumentNode([root])))
    assert_serializes_like_the_walk(document)
    store = document.column_store
    canonical = store.canonical
    numbering = [node.structure() for node in store.nodes]
    target = data.draw(st.sampled_from(stored_nodes(document)[1:]))
    edits = [lambda: target.append_child(ElementNode(QName("", "added"))),
             lambda: target.insert_child(0, TextNode("t")),
             lambda: target.add_attribute(AttributeNode(QName("", "n"), "v"))]
    if target.children:
        edits.append(lambda: target.remove_child(target.children[0]))
    if target.attributes:
        edits.append(lambda: target.remove_attribute(target.attributes[0]))
    for edit in edits:
        with pytest.raises(XQueryTypeError):
            edit()
    assert get_store(document) is store
    assert [node.structure() for node in store.nodes] == numbering
    assert store.canonical == canonical == walk(document)
    assert_serializes_like_the_walk(document)


@given(documents)
def test_cache_survives_eviction_and_rematerialization(root):
    document = parse_document(serialize(DocumentNode([root])))
    expected = [walk(node) for node in stored_nodes(document)]
    store = document.column_store
    assert [serialize(node) for node in stored_nodes(document)] == expected
    canonical, spans = store.canonical, store.spans
    store.detach()  # tier 1: the cache stays with the columns
    again = store.materialize()
    assert store.canonical is canonical and store.spans is spans
    assert [serialize(node) for node in stored_nodes(again)] == expected
    # Columns read back from the log (a durable database's eviction
    # dropped them) start without a cache.
    tables = SegmentTables()
    reloaded = decode_document(encode_document(store, tables), "log",
                               tables)
    assert reloaded.canonical is None and reloaded.spans is None
    fresh = reloaded.materialize()
    assert [serialize(node) for node in stored_nodes(fresh)] == expected


@given(documents)
def test_attributes_and_leaves_take_the_leaf_path(root):
    document = parse_document(serialize(DocumentNode([root])))
    serialize(document.root_element)  # the cache exists
    leaves = [node for node in document.descendants_or_self()
              if node.kind not in ("document", "element")]
    leaves += [attribute for node in stored_nodes(document)
               for attribute in node.attributes]
    with enabled_metrics():
        for leaf in leaves:
            assert serialize(leaf) == walk(leaf)
        assert METRICS.counter("serialize.slices") == 0


# ---------------------------------------------------------------------------
# Hostile text: only XMLParseError escapes; what parses round-trips
# ---------------------------------------------------------------------------

SPLICES = ["<", "&", '"', "'", "</", ">", "<!--", "]]>", "<![CDATA[",
           "&amp", "&#;", "<?", "<?xml?>", "=", "xmlns:p='urn:p'", "p:"]


@st.composite
def ledger_orders(draw):
    generator = WorkloadGenerator(draw(st.integers(0, 10_000)))
    profile = draw(st.sampled_from([
        OrderProfile(),
        OrderProfile(element_prices=True, mixed_text_fraction=0.5),
        OrderProfile(namespace="http://example.com/o",
                     string_price_fraction=0.5)]))
    return generator.order_document(draw(st.integers(1, 999)),
                                    draw(st.integers(1, 99)),
                                    ["P00001", "P00002"], profile)


@st.composite
def hostile_text(draw):
    text = draw(ledger_orders())
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(text)))
        splice = draw(st.one_of(
            st.sampled_from(SPLICES),
            st.integers(0, 0x11FFFF).map(lambda code: f"&#x{code:X};"),
            st.integers(0, 0x11FFFF).map(lambda code: f"&#{code};"),
            st.characters(max_codepoint=0x10FFFF).map(str)))
        text = text[:position] + splice + text[position:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    # Up to past the interpreter's recursion limit; the parser's own
    # limit (MAX_DEPTH) is pinned by the unit tests.
    depth = draw(st.sampled_from([0, 1, 50, 1_000]))
    return "<e>" * depth + text + "</e>" * depth


@settings(max_examples=150, deadline=None)
@given(hostile_text())
def test_hostile_text_yields_only_typed_errors(text):
    try:
        document = parse_document(text)
    except XMLParseError:
        return
    once = serialize(document)
    reparsed = parse_document(once)
    assert serialize(reparsed) == once
    assert_same_columns(reparsed.column_store,
                        ColumnStore.from_document(reparsed))
