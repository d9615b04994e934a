"""Unit tests for XMLPATTERN parsing, matching, and containment."""

import pytest

from repro.core.patterns import (PathComponent, PatternMatcher,
                                 erase_namespaces, parse_xmlpattern,
                                 pattern_contains)
from repro.errors import PatternSyntaxError


def path(*specs: str) -> list[PathComponent]:
    """'e:uri:local' / 'a:uri:local' / 't' / 'c' / 'p:target' specs."""
    kinds = {"e": "element", "a": "attribute", "t": "text", "c": "comment",
             "p": "processing-instruction"}
    components = []
    for spec in specs:
        parts = spec.split(":")
        kind = kinds[parts[0]]
        if kind in ("element", "attribute"):
            uri = parts[1] if len(parts) > 2 else ""
            local = parts[-1]
            components.append(PathComponent(kind, uri, local))
        elif kind == "processing-instruction":
            components.append(PathComponent(kind, "", parts[1]))
        else:
            components.append(PathComponent(kind))
    return components


class TestParsing:
    def test_simple(self):
        pattern = parse_xmlpattern("/order/lineitem/@price")
        assert pattern.max_steps == 3

    def test_namespace_declarations(self):
        pattern = parse_xmlpattern(
            'declare default element namespace "http://d"; '
            'declare namespace c="http://c"; //c:nation/x')
        alternative = pattern.alternatives[0]
        assert alternative.steps[0].test.uri == "http://c"
        assert alternative.steps[1].test.uri == "http://d"

    def test_attribute_has_no_default_namespace(self):
        pattern = parse_xmlpattern(
            'declare default element namespace "http://d"; //@price')
        assert pattern.alternatives[0].steps[0].test.uri == ""

    def test_kind_tests(self):
        for text in ["//text()", "//comment()", "//node()",
                     "//processing-instruction()",
                     "//processing-instruction(style)"]:
            parse_xmlpattern(text)

    @pytest.mark.parametrize("bad", [
        "order/x",          # missing leading slash
        "//a[1]",           # predicates not allowed
        "//",               # empty step
        "//p:x",            # undeclared prefix
        "",                 # empty
        "//a/self::b extra",  # trailing junk
    ])
    def test_rejects(self, bad):
        with pytest.raises(PatternSyntaxError):
            parse_xmlpattern(bad)


class TestMatching:
    def test_exact(self):
        pattern = parse_xmlpattern("/order/lineitem/@price")
        assert pattern.matches_path(path("e:order", "e:lineitem",
                                         "a:price"))
        assert not pattern.matches_path(path("e:order", "a:price"))
        assert not pattern.matches_path(
            path("e:x", "e:order", "e:lineitem", "a:price"))

    def test_descendant_gap(self):
        pattern = parse_xmlpattern("//lineitem/@price")
        assert pattern.matches_path(path("e:lineitem", "a:price"))
        assert pattern.matches_path(path("e:a", "e:b", "e:lineitem",
                                         "a:price"))
        assert not pattern.matches_path(path("e:lineitem", "e:x",
                                             "a:price"))

    def test_wildcards(self):
        pattern = parse_xmlpattern("//@*")
        assert pattern.matches_path(path("e:any", "a:thing"))
        assert not pattern.matches_path(path("e:any", "e:thing"))

    def test_namespace_matching(self):
        pattern = parse_xmlpattern(
            'declare namespace c="http://c"; //c:nation')
        assert pattern.matches_path(
            [PathComponent("element", "http://c", "nation")])
        assert not pattern.matches_path(
            [PathComponent("element", "", "nation")])

    def test_namespace_wildcard(self):
        pattern = parse_xmlpattern("//*:nation")
        assert pattern.matches_path(
            [PathComponent("element", "http://any", "nation")])

    def test_text_step(self):
        pattern = parse_xmlpattern("//price/text()")
        assert pattern.matches_path(path("e:price", "t"))
        assert not pattern.matches_path(path("e:price"))

    def test_self_axis_merges(self):
        pattern = parse_xmlpattern("//lineitem/self::node()")
        assert pattern.matches_path(path("e:a", "e:lineitem"))

    def test_descendant_axis_explicit(self):
        pattern = parse_xmlpattern("/a/descendant::b")
        assert pattern.matches_path(path("e:a", "e:b"))
        assert pattern.matches_path(path("e:a", "e:x", "e:b"))
        assert not pattern.matches_path(path("e:a"))

    def test_matches_node(self):
        # A stored node's path is its store's interned path for its slot.
        from repro.xmlio import parse_document
        doc = parse_document("<order><lineitem price='1'/></order>")
        price = doc.root_element.children[0].attributes[0]
        store = doc.column_store
        path = store.paths[store.path_id[price._order[1]]]
        assert PatternMatcher(parse_xmlpattern("//lineitem/@price")) \
            .matches(path)
        assert not PatternMatcher(parse_xmlpattern("//order/@price")) \
            .matches(path)


# Containment ground truth from the paper's sections.
CONTAINMENT_CASES = [
    # (index pattern, query pattern, contained?)
    ("//lineitem/@price", "//order/lineitem/@price", True),   # §2.2 Q1
    ("//order/lineitem/@price", "//lineitem/@price", False),
    ("//lineitem/@price", "//order/lineitem/@*", False),      # §2.2 Q2
    ("//custid", "//order/custid", True),                     # §3.1 Q4
    ("/customer/id", "/customer/id", True),
    ("/customer/id", "//id", False),
    ("//id", "/customer/id", True),
    ("//nation",
     'declare default element namespace "http://o"; //nation',
     False),                                                   # §3.7 Q28
    ('declare default element namespace "http://o"; //nation',
     'declare default element namespace "http://o"; //nation', True),
    ("//*:nation",
     'declare default element namespace "http://o"; //nation', True),
    ("//@price",
     'declare default element namespace "http://o"; '
     "//lineitem/@price", True),                               # §3.7
    ("//price", "//lineitem/price/text()", False),             # §3.8 Q29
    ("//price/text()", "//lineitem/price/text()", True),
    ("//price", "//lineitem/price", True),
    ("//*", "//@price", False),                                # §3.9
    ("//node()", "//@price", False),
    ("//@*", "//@price", True),                                # Tip 12
    ("/descendant-or-self::node()/attribute::*", "//@price", True),
    ("//a//b", "//a/b", True),
    ("//a/b", "//a//b", False),
    ("//a/*/b", "//a/c/b", True),
    ("//a/c/b", "//a/*/b", False),
    ("//a", "//a/text()", False),
    ("//text()", "//a/text()", True),
    ("//node()", "//a/text()", True),
    ("//node()", "//a/comment()", True),
    ("//comment()", "//a", False),
]


class TestContainment:
    @pytest.mark.parametrize("index,query,expected", CONTAINMENT_CASES)
    def test_table(self, index, query, expected):
        assert pattern_contains(parse_xmlpattern(index),
                                parse_xmlpattern(query)) is expected

    def test_reflexive(self):
        for text, _query, _expected in CONTAINMENT_CASES[:8]:
            pattern = parse_xmlpattern(text)
            assert pattern_contains(pattern, pattern)

    def test_erase_namespaces_diagnosis(self):
        ns_query = parse_xmlpattern(
            'declare default element namespace "http://o"; //nation')
        plain = parse_xmlpattern("//nation")
        assert not pattern_contains(plain, ns_query)
        assert pattern_contains(erase_namespaces(plain),
                                erase_namespaces(ns_query))
