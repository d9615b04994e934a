"""Property: a document shape's verdict equals a per-path test.

A stored document's path table is an interned
:class:`~repro.core.patterns.PathShape`, one object for every document
with the same path list, and a :class:`PatternMatcher` computes a
shape's matching path ids once (``path_ids``).  ``nodes_for`` and
``slots_matching`` must therefore return exactly what testing each path
of the document's own table with ``matches`` returns (the reference
below, which lives only here): for generated documents with namespaced
names sharing a local name, attributes, comments and ``//`` gaps; for a
document whose path set equals another's but first appears in another
order; for columns an eviction dropped and the log gave back; and for
columns adopted from a checkpoint at reopen.  A shape dies with its last
document, and a matcher memoizes at most ``MAX_MEMO_SHAPES`` shapes.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import threading
import weakref
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.patterns import (MAX_MEMO_SHAPES, PatternMatcher,
                                 intern_shape, matcher_for,
                                 parse_xmlpattern)
from repro.durability import DurableDatabase
from repro.storage.catalog import Database
from repro.xmlio.parser import parse_columns

NAMESPACES = "xmlns:p='urn:p' xmlns:q='urn:q'"
#: Element names: ``a`` in three namespaces, plus two more.
TAGS = ("a", "b", "p:a", "q:a", "p:c")
ATTRIBUTES = ("a", "x", "p:a")
LEAVES = ("text", "comment")
PATTERNS = (
    "//a", "//*:a", "declare namespace p='urn:p'; //p:a",
    "declare namespace q='urn:q'; //q:a",
    "declare namespace p='urn:p'; //p:*", "//@a", "//@*",
    "declare namespace p='urn:p'; //@p:a", "/r//a", "/r/a/b", "//a//b",
    "//b/@x", "//*:a//*:a", "//text()", "//comment()", "//node()",
    "/r/*", "//nothing",
)


@st.composite
def element_specs(draw, depth=0):
    """(tag, attributes, children); a child is a spec or a leaf kind."""
    tag = draw(st.sampled_from(TAGS))
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2,
                               unique=True))
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()):
                children.append(draw(element_specs(depth=depth + 1)))
            else:
                children.append(draw(st.sampled_from(LEAVES)))
    return (tag, tuple(attributes), tuple(children))


DOCUMENTS = st.lists(element_specs(), min_size=1, max_size=3)


def xml(children) -> str:
    return f"<r {NAMESPACES}>{''.join(map(_xml, children))}</r>"


def _xml(spec) -> str:
    if spec == "text":
        return "t"
    if spec == "comment":
        return "<!--c-->"
    tag, attributes, children = spec
    attributes = "".join(f" {name}='{position}'"
                         for position, name in enumerate(attributes))
    return (f"<{tag}{attributes}>{''.join(map(_xml, children))}"
            f"</{tag}>")


def reversed_spec(spec):
    """The same paths, with attributes and children in reverse order:
    an equal path set whose first appearances may come in another
    order."""
    if spec in LEAVES:
        return spec
    tag, attributes, children = spec
    return (tag, attributes[::-1],
            tuple(reversed_spec(child) for child in reversed(children)))


def reference(store, matcher) -> list[tuple]:
    """(slot, path) pairs, every path of the store's own table tested
    with ``matches``: the per-path loop shape verdicts replace."""
    return [(slot, path)
            for path, partition in zip(store.paths, store.partitions)
            if matcher.matches(path) for slot in partition]


def assert_verdicts(store) -> None:
    """``slots_matching`` (and ``nodes_for`` on a materialized store)
    through the shared matcher equal the per-path reference of a fresh
    one."""
    assert intern_shape(store.paths) is store.shape
    for text in PATTERNS:
        pattern = parse_xmlpattern(text)
        expected = reference(store, PatternMatcher(pattern))
        shared = matcher_for(pattern)
        assert list(store.slots_matching(shared)) == expected
        if store.nodes is not None:
            slots = sorted(slot for slot, _path in expected)
            assert [id(node) for node in store.nodes_for(shared)] == \
                [id(store.nodes[slot]) for slot in slots]


def assert_lookups_match_generic(database) -> int:
    """The evaluator's multi-document lookups answer as its generic
    pipeline does (``//`` spelled out with a predicate keeps a path off
    the summary); returns how many were answered from path tables."""
    lookups = 0
    column = "db2-fn:xmlcolumn('T.DOC')"
    for step in ("a", "*:a", "@*", "b", "a//b"):
        summary = database.xquery(f"{column}//{step}")
        generic = database.xquery(
            f"{column}/descendant-or-self::node()[position() >= 1]/{step}")
        assert generic.stats.summary_lookups == 0
        assert summary.serialize() == generic.serialize()
        lookups += summary.stats.summary_lookups
    return lookups


def create(database) -> None:
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")


def insert_all(database, texts) -> None:
    for number, text in enumerate(texts):
        database.insert("t", {"id": number, "doc": text})


def texts_of(specs) -> list[str]:
    """Each generated document, its reversed twin, and the first one
    again (a second document of an already-seen shape)."""
    texts = []
    for spec in specs:
        texts += [xml([spec]), xml([reversed_spec(spec)])]
    return texts + texts[:1]


@settings(max_examples=60, deadline=None)
@given(specs=DOCUMENTS)
def test_shape_verdicts_equal_per_path_tests(specs):
    texts = texts_of(specs)
    stores = [parse_columns(text) for text in texts]
    for store in stores:
        store.materialize()
        assert_verdicts(store)
    assert stores[-1].shape is stores[0].shape
    original, twin = stores[0], stores[1]
    assert set(original.paths) == set(twin.paths)
    assert (original.shape is twin.shape) == (original.paths == twin.paths)


def test_equal_path_sets_in_another_order_are_two_shapes():
    first = parse_columns(xml([("a", ("x",), ("comment", ("b", (), ())))]))
    second = parse_columns(xml([("a", ("x",), (("b", (), ()), "comment"))]))
    assert set(first.paths) == set(second.paths)
    assert first.shape is not second.shape
    for store in (first, second):
        store.materialize()
        assert_verdicts(store)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=DOCUMENTS)
def test_verdicts_after_tier_two_eviction_and_reload(specs):
    texts = texts_of(specs)
    with tempfile.TemporaryDirectory() as scratch:
        # A durable database under a one-byte pool: every document but
        # the newest rests in the log only, columns included.
        with DurableDatabase(Path(scratch), buffer_pool_bytes=1) as database:
            create(database)
            insert_all(database, texts)
            documents = database.documents("t", "doc")
            assert sum(stored._store is None for stored in documents) \
                >= len(texts) - 1
            for stored in documents:
                assert_verdicts(stored.columns)
                assert_verdicts(stored.document.column_store)
            assert_lookups_match_generic(database)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=DOCUMENTS)
def test_verdicts_after_a_checkpoint_reopen(specs):
    texts = texts_of(specs)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory) as database:
            create(database)
            insert_all(database, texts)
            database.checkpoint()
        with DurableDatabase(directory) as reopened:
            stores = [stored.columns
                      for stored in reopened.documents("t", "doc")]
            assert len(stores) == len(texts)
            for store in stores:
                assert store.nodes is None  # adopted, not parsed
                assert_verdicts(store)
            for stored in reopened.documents("t", "doc"):
                assert_verdicts(stored.document.column_store)
            assert assert_lookups_match_generic(reopened) == 5
            by_paths = {}
            for store in stores:
                assert by_paths.setdefault(store.paths, store.shape) \
                    is store.shape


def test_a_shape_dies_with_its_last_document():
    database = Database()
    create(database)
    text = "<r><shape-probe-only/></r>"
    insert_all(database, [text, text])
    stores = [stored.columns for stored in database.documents("t", "doc")]
    assert stores[0].shape is stores[1].shape
    shape = weakref.ref(stores[0].shape)
    matcher = matcher_for(parse_xmlpattern("//shape-probe-only"))
    assert [len(list(store.slots_matching(matcher)))
            for store in stores] == [1, 1]
    assert len(database.xquery(
        "db2-fn:xmlcolumn('T.DOC')//shape-probe-only")) == 2
    remembered = len(matcher._shapes)
    assert shape().ref in matcher._shapes
    del stores
    database.delete_rows("t", lambda values: values["id"] == 0)
    gc.collect()
    assert shape() is not None
    database.delete_rows("t")
    gc.collect()
    assert shape() is None
    assert len(matcher._shapes) == remembered - 1


def test_a_matcher_memo_stays_at_its_cap():
    database = Database()
    create(database)
    insert_all(database, [f"<r><e{number}/><a x='1'/></r>"
                          for number in range(MAX_MEMO_SHAPES + 20)])
    stores = [stored.columns for stored in database.documents("t", "doc")]
    assert len({id(store.shape) for store in stores}) > MAX_MEMO_SHAPES
    pattern = parse_xmlpattern("//a/@x")
    matcher = PatternMatcher(pattern)
    for _ in range(2):
        for store in stores:
            assert list(store.slots_matching(matcher)) == \
                reference(store, PatternMatcher(pattern))
    assert len(matcher._shapes) == MAX_MEMO_SHAPES


def test_racing_threads_intern_one_shape_and_agree_on_verdicts():
    # More threads than cores, switching often: parsing interns shapes
    # and asking fills the shared matchers' memos concurrently.  A lost
    # update in interning would leave two shapes for one path list.
    texts = [xml([("a", ("x",), (("b", (), ()), "text")),
                  ("p:a", (), ("comment",))]),
             xml([("q:a", ("p:a",), (("a", (), (("b", (), ()),)),))])]
    stores: list = []
    failures: list = []
    start = threading.Barrier(8, timeout=10)

    def work(offset: int) -> None:
        try:
            start.wait()
            for round_ in range(20):
                store = parse_columns(texts[(offset + round_) % 2])
                store.materialize()
                assert_verdicts(store)
                stores.append(store)
        except Exception as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(stores) == 160
    assert len({id(store.shape) for store in stores}) == 2

