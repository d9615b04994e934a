"""Property tests: interval-encoded axes vs naive recursive oracles.

The ``(pre, post, level)`` encoding turns descendant/ancestor/following/
preceding into interval tests and document-order sorting into a key
sort.  These tests pit every accelerated axis against a dumb recursive
walk on randomized trees — including trees edited by ``insert_child`` /
``remove_child`` / ``remove_attribute`` before their first numbering,
after which every edit must raise instead of leaving stale intervals.

The column store's path table (the per-document structural summary)
is checked against a naive root-to-node path walk on the same trees,
which carry namespaced names, attributes, comments and PIs: a tree
that was never captured has no store and the evaluator runs the
generic pipeline; a captured store's ``path_counts()`` /
``nodes_for()`` equal the walk.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (PathComponent, PatternMatcher,
                                 parse_xmlpattern)
from repro.errors import XQueryTypeError
from repro.planner.stats import ExecutionStats
from repro.storage.columnar import get_store, ingest_document
from repro.xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                             ElementNode, ProcessingInstructionNode,
                             TextNode)
from repro.xdm.qname import QName
from repro.xdm.sequence import document_order
from repro.xquery.evaluator import _axis_nodes, evaluate

from ..paths import spelled_counts

NS = "urn:n"
#: (uri, local, prefix): plain names and the same locals in a namespace.
TAGS = (("", "a", ""), ("", "b", ""), ("", "c", ""), (NS, "a", "n"),
        (NS, "b", "n"))
ATTRIBUTES = (("", "x0", ""), ("", "x1", ""), (NS, "x0", "n"))
#: Leaf child kinds; anything else in a children tuple is a nested spec.
LEAVES = ("text", "comment", "pi")


@st.composite
def tree_specs(draw, depth=0):
    """(tag, attribute names, children) nested tuples; a child is a
    nested spec or one of ``LEAVES``."""
    tag = draw(st.sampled_from(TAGS))
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2,
                               unique=True))
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()):
                children.append(draw(tree_specs(depth=depth + 1)))
            else:
                children.append(draw(st.sampled_from(LEAVES)))
    return (tag, tuple(attributes), tuple(children))


def build_leaf(kind: str):
    if kind == "text":
        return TextNode("t")
    if kind == "comment":
        return CommentNode("c")
    return ProcessingInstructionNode("p", "d")


def build_element(spec) -> ElementNode:
    (uri, local, prefix), attributes, children = spec
    element = ElementNode(QName(uri, local, prefix),
                          in_scope_namespaces={"n": NS})
    for index, (attr_uri, attr_local, attr_prefix) in enumerate(attributes):
        element.add_attribute(AttributeNode(
            QName(attr_uri, attr_local, attr_prefix), str(index)))
    for child in children:
        element.append_child(build_leaf(child) if child in LEAVES
                             else build_element(child))
    return element


def build_document(spec) -> DocumentNode:
    document = DocumentNode()
    document.append_child(build_element(spec))
    return document


# ---------------------------------------------------------------------------
# Naive oracles: recursion and parent-chain walks only, no intervals.
# ---------------------------------------------------------------------------

def ordered_nodes(node):
    """Document order incl. attributes (element, its attributes, children)."""
    out = [node]
    out.extend(node.attributes)
    for child in node.children:
        out.extend(ordered_nodes(child))
    return out


def oracle_descendants(node):
    out = []
    for child in node.children:
        out.append(child)
        out.extend(oracle_descendants(child))
    return out


def oracle_ancestors(node):
    out = []
    current = node.parent
    while current is not None:
        out.append(current)
        current = current.parent
    return out


def oracle_siblings(node):
    if node.parent is None or node.kind == "attribute":
        return [], []
    siblings = node.parent.children
    index = next(i for i, sibling in enumerate(siblings)
                 if sibling is node)
    return list(reversed(siblings[:index])), siblings[index + 1:]


def oracle_following(node):
    """Nodes strictly after ``node`` in doc order, minus its subtree and
    attributes (XPath's following axis)."""
    tree = [n for n in ordered_nodes(node.root) if n.kind != "attribute"]
    index = tree.index(node)
    own = set(map(id, oracle_descendants(node)))
    return [n for n in tree[index + 1:] if id(n) not in own]


def oracle_preceding(node):
    tree = [n for n in ordered_nodes(node.root) if n.kind != "attribute"]
    index = tree.index(node)
    ancestors = set(map(id, oracle_ancestors(node)))
    return [n for n in reversed(tree[:index]) if id(n) not in ancestors]


def ids(nodes):
    return [id(n) for n in nodes]


def assert_axes_match_oracles(document: DocumentNode) -> None:
    everything = ordered_nodes(document)
    tree_nodes = [n for n in everything if n.kind != "attribute"]
    for node in everything:
        assert ids(_axis_nodes(node, "descendant")) == \
            ids(oracle_descendants(node))
        assert ids(_axis_nodes(node, "ancestor")) == \
            ids(oracle_ancestors(node))
        preceding_sib, following_sib = oracle_siblings(node)
        assert ids(_axis_nodes(node, "following-sibling")) == \
            ids(following_sib)
        assert ids(_axis_nodes(node, "preceding-sibling")) == \
            ids(preceding_sib)
        if node.kind == "attribute":
            # The spec anchors an attribute's following/preceding at its
            # parent element.
            assert ids(_axis_nodes(node, "following")) == \
                ids(oracle_following(node.parent))
            assert ids(_axis_nodes(node, "preceding")) == \
                ids(oracle_preceding(node.parent))
        else:
            assert ids(_axis_nodes(node, "following")) == \
                ids(oracle_following(node))
            assert ids(_axis_nodes(node, "preceding")) == \
                ids(oracle_preceding(node))
    # Interval containment tests agree with the parent-chain oracle.
    for outer in tree_nodes:
        ancestor_ids = set(ids(oracle_ancestors(outer)))
        for inner in tree_nodes:
            expected = id(inner) in ancestor_ids
            assert inner.is_ancestor_of(outer) is expected
            assert outer.is_descendant_of(inner) is expected


def assert_order_sort_matches(document: DocumentNode, shuffled) -> None:
    expected = [n for n in ordered_nodes(document)]
    assert ids(document_order(shuffled)) == ids(expected)


def component(node) -> PathComponent:
    name = node.name
    if name is None:
        return PathComponent(node.kind)
    return PathComponent(node.kind, name.uri, name.local)


def oracle_paths(document: DocumentNode) -> list:
    """(node, root-to-node path) for every node below the document, in
    document order: the naive walk a path table must reproduce."""
    out = []

    def visit(node, path):
        out.append((node, path))
        for attribute in node.attributes:
            out.append((attribute, path + (component(attribute),)))
        for child in node.children:
            visit(child, path + (component(child),))

    for child in document.children:
        visit(child, (component(child),))
    return out


PATTERNS = ("//a", "//*", "//@*", "//text()", "//comment()",
            "//processing-instruction()", "/a/b", "//b/@x0", "//c//a",
            "declare namespace n='urn:n'; //n:a",
            "declare namespace n='urn:n'; //@n:x0")


def assert_path_table_fresh(document: DocumentNode) -> None:
    """A (re-)captured column store's path table equals the naive walk:
    per-path counts, and the nodes each pattern selects in order."""
    store = ingest_document(document)
    assert get_store(document) is store
    oracle = oracle_paths(document)
    assert spelled_counts(store.path_counts()) == Counter(
        path for _node, path in oracle)
    for text in PATTERNS:
        pattern = parse_xmlpattern(text)
        expected = [node for node, path in oracle
                    if pattern.matches_path(list(path))]
        assert ids(store.nodes_for(PatternMatcher(pattern))) == ids(expected)


def assert_evaluator_path(document: DocumentNode) -> None:
    """``$d//a`` equals the walk; it is answered from the path table iff
    the document has a current store, by the generic pipeline else."""
    stats = ExecutionStats()
    got = evaluate("$d//a", variables={"d": [document]}, stats=stats)
    expected = [node for node, _path in oracle_paths(document)
                if node.kind == "element" and node.name == QName("", "a")]
    assert ids(got) == ids(expected)
    current = get_store(document) is not None
    assert stats.summary_lookups == (1 if current else 0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(spec=tree_specs(), data=st.data())
def test_axes_match_naive_oracle(spec, data):
    document = build_document(spec)
    assert_axes_match_oracles(document)
    everything = ordered_nodes(document)
    shuffled = data.draw(st.permutations(everything))
    # Duplicates must collapse: document_order dedups by identity.
    assert_order_sort_matches(document, list(shuffled) + shuffled[:3])
    assert_evaluator_path(document)
    # Captured: the column-store range scans and the path table must
    # answer exactly what the object walks did.
    assert_path_table_fresh(document)
    assert_axes_match_oracles(document)
    assert_evaluator_path(document)


@settings(max_examples=200, deadline=None)
@given(spec=tree_specs(),
       ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1000),
                              st.integers(0, 1000)),
                    min_size=1, max_size=4),
       data=st.data())
def test_axes_match_oracle_after_mutation(spec, ops, data):
    # A tree can change only until it is numbered: the edits go to the
    # fresh tree, then the numbering, the column store and the path
    # table must all describe the edited tree.
    document = build_document(spec)
    fresh_tag = iter(range(10_000))
    for op, pick, position in ops:
        elements = [n for n in ordered_nodes(document)
                    if n.kind == "element"]
        if op == 0:  # insert a new element under a random element
            parent = elements[pick % len(elements)]
            parent.insert_child(position % (len(parent.children) + 1),
                                ElementNode(QName("", f"n{next(fresh_tag)}")))
        elif op == 1:  # insert a text node
            parent = elements[pick % len(elements)]
            parent.insert_child(position % (len(parent.children) + 1),
                                TextNode("m"))
        elif op == 2:  # remove a child (keep the root element in place)
            candidates = [n for n in elements if n.children]
            if not candidates:
                continue
            parent = candidates[pick % len(candidates)]
            parent.remove_child(parent.children[position
                                                % len(parent.children)])
        else:  # remove an attribute
            candidates = [n for n in elements if n.attributes]
            if not candidates:
                continue
            parent = candidates[pick % len(candidates)]
            parent.remove_attribute(
                parent.attributes[position % len(parent.attributes)])

    assert_axes_match_oracles(document)
    everything = ordered_nodes(document)
    shuffled = data.draw(st.permutations(everything))
    assert_order_sort_matches(document, list(shuffled))
    assert_evaluator_path(document)
    # Numbered now: an edit raises and leaves the tree as it was.
    target = data.draw(st.sampled_from(
        [n for n in everything if n.kind == "element"]))
    with pytest.raises(XQueryTypeError):
        target.insert_child(0, ElementNode(QName("", "late")))
    if target.children:
        with pytest.raises(XQueryTypeError):
            target.remove_child(target.children[0])
    assert ids(ordered_nodes(document)) == ids(everything)
    # Captured: the column-store range scans and the path table must
    # answer exactly what the object walks did.
    assert_path_table_fresh(document)
    assert_axes_match_oracles(document)
    assert_evaluator_path(document)
