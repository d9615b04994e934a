"""Unit tests for the XML parser and serializer."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import XMLParseError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.storage.columnar import ColumnStore
from repro.xdm.nodes import DocumentNode, ElementNode
from repro.xdm.qname import QName
from repro.xmlio import parse_document, parse_fragment, serialize
from repro.xmlio.parser import MAX_DEPTH
from repro.xmlio.serializer import _serialize_node


class TestParserBasics:
    def test_simple_document(self):
        doc = parse_document("<a><b>text</b></a>")
        root = doc.root_element
        assert root.name.local == "a"
        assert root.children[0].name.local == "b"
        assert root.children[0].string_value() == "text"

    def test_attributes(self):
        doc = parse_document('<a x="1" y=\'two\'/>')
        root = doc.root_element
        assert root.attribute("x").string_value() == "1"
        assert root.attribute("y").string_value() == "two"

    def test_text_entities(self):
        doc = parse_document("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>")
        assert doc.root_element.string_value() == "<&>\"'AB"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<raw&>]]></a>")
        assert doc.root_element.string_value() == "<raw&>"

    def test_comments_and_pis(self):
        doc = parse_document("<a><!--note--><?do it?></a>")
        kinds = [child.kind for child in doc.root_element.children]
        assert kinds == ["comment", "processing-instruction"]

    def test_prolog_and_doctype_skipped(self):
        doc = parse_document(
            "<?xml version='1.0'?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>")
        assert doc.root_element.name.local == "a"

    def test_top_level_comment_and_pi(self):
        doc = parse_document("<!--before--><a/><?after?>")
        assert [child.kind for child in doc.children] == \
            ["comment", "element", "processing-instruction"]

    def test_mixed_content_distinct_text_nodes(self):
        # §3.8: "99.50USD" string value, separate text/element children.
        doc = parse_document("<price>99.50<currency>USD</currency></price>")
        price = doc.root_element
        assert price.string_value() == "99.50USD"
        assert price.children[0].kind == "text"
        assert price.children[0].string_value() == "99.50"

    def test_whitespace_preserved_in_text(self):
        doc = parse_document("<a> x </a>")
        assert doc.root_element.string_value() == " x "


class TestNamespaces:
    def test_default_namespace(self):
        doc = parse_document('<a xmlns="http://n"><b/></a>')
        assert doc.root_element.name.uri == "http://n"
        assert doc.root_element.children[0].name.uri == "http://n"

    def test_prefixed_namespace(self):
        doc = parse_document('<p:a xmlns:p="http://p"><p:b/></p:a>')
        assert doc.root_element.name.uri == "http://p"
        assert doc.root_element.name.prefix == "p"

    def test_attributes_ignore_default_namespace(self):
        # §3.7: default namespaces never apply to attributes.
        doc = parse_document('<a xmlns="http://n" x="1"/>')
        assert doc.root_element.attributes[0].name.uri == ""

    def test_namespace_shadowing(self):
        doc = parse_document(
            '<a xmlns="http://one"><b xmlns="http://two"/></a>')
        assert doc.root_element.children[0].name.uri == "http://two"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<p:a/>")


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "<a>",                       # unterminated
        "<a></b>",                   # mismatched tags
        "<a x=1/>",                  # unquoted attribute
        "<a x='1' x='2'/>",          # duplicate attribute
        "<a/><b/>",                  # two roots
        "text only",                 # no element
        "<a><!--unterminated</a>",   # bad comment
        "<a>&unknown;</a>",          # unknown entity
        "",                          # empty input
    ])
    def test_rejects(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    def test_error_carries_location(self):
        try:
            parse_document("<a>\n<b x=</a>")
        except XMLParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected XMLParseError")

    @pytest.mark.parametrize("bad", [
        "<a>&#x110000;</a>",         # beyond Unicode
        "<a x='&#99999999;'/>",      # beyond Unicode, in an attribute
        "<a>&#xZZ;</a>",             # not a hexadecimal number
        "<a>&#;</a>",                # no number at all
        "<a>&#0;</a>",               # NUL is not an XML Char
        "<a>&#xD800;</a>",           # a surrogate
        "<a>&#xFFFE;</a>",           # a noncharacter outside Char
        "<a>&#x1F;</a>",             # C0 control other than tab/LF/CR
        "<a>&#-65;</a>",             # negative
    ])
    def test_character_references_must_name_a_char(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    @pytest.mark.parametrize("bad", [
        "<a>\x00</a>", "<a>\x01</a>", "<a x='\x0b'/>", "<a>\ud800</a>",
        "<a>\udfff</a>", "<a>\ufffe</a>", "<a>\uffff</a>",
        "<a/><!--\x0c-->", "\x00<a/>", "<a\x01/>",
    ])
    def test_raw_characters_must_be_chars(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    def test_illegal_character_error_carries_location(self):
        with pytest.raises(XMLParseError) as caught:
            parse_document("<a>\n  <b>\x07</b></a>")
        assert (caught.value.line, caught.value.column) == (2, 6)
        assert "U+0007" in str(caught.value)

    @pytest.mark.parametrize("code", [
        0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000, 0x10FFFF])
    def test_every_char_boundary_is_accepted(self, code):
        referenced = parse_document(f"<a x='&#x{code:X};'>&#{code};</a>")
        assert referenced.root_element.string_value() == chr(code)
        assert referenced.root_element.attribute("x").string_value() == \
            chr(code)
        raw = parse_document(f"<a>{chr(code)}</a>")
        assert raw.root_element.string_value() == chr(code)

    def test_depth_up_to_the_limit_needs_no_recursion(self):
        # Past the interpreter's recursion limit (1 000 frames), where
        # parsing (~600 levels) and serializing (300) used to fail.
        depth = MAX_DEPTH
        text = "<e>" * depth + "x" + "</e>" * depth
        document = parse_document(text)
        assert serialize(document) == text
        node = document.root_element
        for _ in range(depth - 1):
            node = node.children[0]
        assert node.children[0].string_value() == "x"
        assert node.level == depth

    @pytest.mark.parametrize("excess", [1, 1001, 50_000])
    def test_deeper_nesting_is_rejected_where_it_starts(self, excess):
        # However far past the limit the input goes, the error points at
        # the first tag that crosses it.
        depth = MAX_DEPTH + excess
        text = "<e>" * depth + "</e>" * depth
        with pytest.raises(XMLParseError) as caught:
            parse_document(text)
        assert (caught.value.line, caught.value.column) == \
            (1, 3 * MAX_DEPTH + 1)
        assert f"deeper than {MAX_DEPTH}" in str(caught.value)

    def test_deeper_trees_are_rejected_by_the_column_builder(self):
        document = DocumentNode()
        parent = document
        for _ in range(MAX_DEPTH + 1):
            child = ElementNode(QName("", "e"))
            parent.append_child(child)
            parent = child
        with pytest.raises(XMLParseError, match=f"deeper than {MAX_DEPTH}"):
            ColumnStore.from_document(document)
        parent.parent.remove_child(parent)
        assert len(ColumnStore.from_document(document)) == MAX_DEPTH + 1

    def test_names_do_not_backtrack_into_attributes(self):
        with pytest.raises(XMLParseError):
            parse_document('<ab="1"/>')
        with pytest.raises(XMLParseError):
            parse_document('<a><bc="1"/></a>')


class TestSerializer:
    @pytest.mark.parametrize("text", [
        "<a/>",
        "<a><b>t</b><c/></a>",
        '<a x="1"/>',
        "<a>x<b/>y</a>",
        "<a><!--c--><?pi d?></a>",
        '<a xmlns="http://n"><b/></a>',
        '<p:a xmlns:p="http://p" p:x="1"/>',
    ])
    def test_roundtrip(self, text):
        assert serialize(parse_document(text)) == text

    def test_escaping(self):
        doc = parse_document("<a x='&quot;&amp;'>&lt;&amp;</a>")
        rendered = serialize(doc)
        assert "&lt;" in rendered and "&amp;" in rendered
        assert serialize(parse_document(rendered)) == rendered

    def test_deep_tree_serializes_with_and_without_indent(self):
        # Deeper than the parser accepts: serialize keeps its own stack.
        depth = 5000
        document = DocumentNode()
        parent = document
        for _ in range(depth):
            child = ElementNode(QName("", "e"))
            parent.append_child(child)
            parent = child
        inner = "<e/>"
        assert serialize(document) == "<e>" * (depth - 1) + inner + \
            "</e>" * (depth - 1)
        pretty = serialize(document, indent=True).split("\n")
        assert len(pretty) == 2 * depth - 1
        assert pretty[depth - 1] == "  " * (depth - 1) + "<e/>"
        assert pretty[-1] == "</e>"

    @pytest.mark.parametrize("text, expected", [
        ("<a><b><c/></b><!--c--><?p x?></a>",
         "<a>\n  <b>\n    <c/>\n  </b>\n  <!--c-->\n  <?p x?>\n</a>"),
        # Children see only the parent's own name binding, so the
        # attribute prefix is declared again.
        ('<a xmlns:p="urn:p" p:x="1"><b p:y="2"/><c>t</c></a>',
         '<a xmlns:p="urn:p" p:x="1">\n  <b xmlns:p="urn:p" p:y="2"/>'
         "\n  <c>t</c>\n</a>"),
        ('<p:a xmlns:p="urn:p"><p:b><q:c xmlns:q="urn:q"/></p:b></p:a>',
         '<p:a xmlns:p="urn:p">\n  <p:b>\n    <q:c xmlns:q="urn:q"/>'
         "\n  </p:b>\n</p:a>"),
        ('<a xmlns="urn:d"><b/><c>mixed<d/></c></a>',
         '<a xmlns="urn:d">\n  <b/>\n  <c>mixed<d/></c>\n</a>'),
    ])
    def test_indent_output(self, text, expected):
        assert serialize(parse_document(text), indent=True) == expected

    def test_whole_document_serializes_once_without_spans(self):
        """A WAL record or checkpoint serializes whole documents: that
        walk records no spans, and the document and its only element
        slice its result from then on."""
        document = parse_document("<order><custid>7</custid></order>")
        store = document.column_store
        with enabled_metrics():
            text = serialize(document)
            assert serialize(document.root_element) == text
            assert serialize(document) == text
            assert METRICS.counter("serialize.walks") == 1
            assert METRICS.counter("serialize.slices") == 2
        assert store.canonical == text and store.spans is None
        custid = document.root_element.children[0]
        assert serialize(custid) == "<custid>7</custid>"
        assert store.spans is not None

    def test_racing_readers_fill_one_canonical_text(self):
        """Readers share a document's lazily filled canonical text: each
        fill publishes a complete text before its spans, so a racing
        reader slices the same bytes the walk writes."""
        text = ("<order>" + "".join(
            f'<lineitem price="{i}"><id>p{i}</id></lineitem>'
            for i in range(30)) + "</order>")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                document = parse_document(text)
                nodes = [document, *document.root_element.children]
                expected = [_serialize_node(node, {}) for node in nodes]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(
                        lambda shift: [serialize(nodes[(i + shift) % 31])
                                       for i in range(31)], range(8),
                        timeout=60))
                for shift, result in enumerate(results):
                    assert result == [expected[(i + shift) % 31]
                                      for i in range(31)]
        finally:
            sys.setswitchinterval(previous)

    def test_fragment_parsing(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert [node.kind for node in nodes] == \
            ["element", "text", "element"]
        assert all(node.parent is None for node in nodes)
