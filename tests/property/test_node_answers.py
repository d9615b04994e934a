"""Property: an exact index verdict answering nodes changes no answer.

A probe whose verdict is exact (one general ``= < <= > >=`` comparison
with a literal, a DOUBLE index with a number or a VARCHAR index with a
string) keeps its entries' node ids, and the column kernel answers the
comparison's predicate from them for the probed column's surviving
documents.  A where clause right after ``for $x in P`` is folded into
``P[rel op c]`` and answered the same way.  Three routes must agree
byte for byte, or fail with the same error class and code:

* node answers (the default indexed route);
* document prefilter only (every verdict treated as not exact);
* ``use_indexes=False``, the reference plan: no probe, no fold.

Each runs four forms — the where form, its folded spelling,
``//lineitem[rel op c]`` and ``//order[lineitem/rel op c]`` — over
corpora with uncastable prices, NaN, ``1e2``, blank-padded ids, two
matching ``rel`` nodes under one context, ``rel`` nodes off the probed
path (``/order/x/lineitem``) and a schema-validated document among
untyped ones; in memory, through a snapshot pinned before random
deletes, and on a one-byte durable pool after a reopen.  The forms are
general comparisons with literals over castable-or-skipped values,
which raise nowhere, so no error depends on evaluation order.

§3.10 between pairs over ``@price`` (one range scan answering nodes),
and over ``@*`` and ``@*:price`` (a lineitem may carry two values, so
the pair stays two scans), run on the same three routes and on a
fourth, the reference plan with the column kernel declining too, so
that every predicate runs node by node.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import DurableDatabase
from repro.errors import ReproError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.planner import plan
from repro.schema.schema import Schema
from repro.storage.catalog import Database
from repro.storage.columnar import ColumnStore

COLUMN = "db2-fn:xmlcolumn('T.DOC')"
PRICES = ("100", " 12 ", "149.87", "150", "1e2", "NaN", "INF", "-0",
          "abc", "", "20 USD")
IDS = ("P1", " P1 ", "P2", "p1", "")
#: (rel, literals): the DOUBLE index's path with numbers, the VARCHAR
#: index's with strings (and one of each the other way round).
RELS = (("@price", ("100", "149.87", "1e2", "12", "0", "'100'")),
        ("product/id", ("'P1'", "' P1 '", "'P2'", "''", "1")))
#: General comparisons only: a value comparison over a multi-valued or
#: uncastable ``rel`` raises on the reference plan, and a document
#: prefilter may drop the document that raises (no route answers its
#: nodes from an index, so that is the prefilter's contract, not this
#: one's).
OPS = ("=", "<", "<=", ">", ">=", "!=")
#: The validated document types its prices as doubles.
SCHEMA = Schema("typed").declare("order/lineitem/@price", "xs:double")


def forms(rel: str, op: str, literal: str) -> list[str]:
    test = f"{rel} {op} {literal}"
    return [f"for $i in {COLUMN}/order/lineitem where $i/{test} "
            f"return $i",
            f"for $i in {COLUMN}/order/lineitem[{test}] return $i",
            f"{COLUMN}//lineitem[{test}]",
            f"{COLUMN}//order[lineitem/{test}]"]


#: A second attribute of an untyped lineitem, so ``@*`` and
#: ``@*:price`` may select two values of one element.
OTHERS = (None, "qty", "n:price")


@st.composite
def lineitems(draw, typed: bool = False):
    prices = ("100", "12", "150", "1e2") if typed else PRICES
    price = draw(st.one_of(st.none(), st.sampled_from(prices)))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=2))
    attribute = "" if price is None else f" price='{price}'"
    other = None if typed else draw(st.sampled_from(OTHERS))
    if other is not None:
        attribute += (f" xmlns:n='urn:n' {other}="
                      f"'{draw(st.sampled_from(PRICES))}'")
    product = "".join(f"<id>{value}</id>" for value in ids)
    return f"<lineitem{attribute}><product>{product}</product></lineitem>"


@st.composite
def orders(draw, typed: bool = False):
    items = draw(st.lists(lineitems(typed), max_size=3))
    off_path = draw(st.lists(lineitems(typed), max_size=1))
    nested = "".join(f"<x>{item}</x>" for item in off_path)
    return f"<order>{''.join(items)}{nested}</order>"


CORPORA = st.tuples(st.lists(orders(), min_size=1, max_size=6),
                    st.one_of(st.none(), orders(typed=True)))
PREDICATES = st.lists(
    st.sampled_from(RELS).flatmap(lambda rel: st.tuples(
        st.just(rel[0]), st.sampled_from(OPS), st.sampled_from(rel[1]))),
    min_size=1, max_size=6)
#: Exact comparisons on both indexes, so each example answers nodes.
FIXED = [("@price", ">", "100"), ("@price", "=", "1e2"),
         ("product/id", "=", "'P1'"), ("product/id", "<=", "' P1 '")]


def fill(database, corpus, wildcard: bool = False) -> None:
    """``wildcard`` adds a DOUBLE index on ``//lineitem/@*``, which
    the ``@*`` and ``@*:price`` between pairs probe."""
    untyped, typed = corpus
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.register_schema(SCHEMA)
    database.create_xml_index("t_price", "t", "doc", "//lineitem/@price",
                              "DOUBLE")
    if wildcard:
        database.create_xml_index("t_any", "t", "doc", "//lineitem/@*",
                                  "DOUBLE")
    database.create_xml_index("t_id", "t", "doc", "//lineitem/product/id",
                              "VARCHAR")
    # An anchor keeps every path in the column, so no lookup is pruned.
    texts = ["<order><lineitem price='150'><product><id>P1</id>"
             "</product></lineitem></order>", *untyped]
    for number, text in enumerate(texts):
        database.insert("t", {"id": number, "doc": text})
    if typed is not None:
        database.insert("t", {"id": len(texts), "doc": typed},
                        schema="typed")


def outcome(view, query: str, use_indexes: bool = True):
    try:
        return view.xquery(query, use_indexes=use_indexes).serialize()
    except ReproError as error:
        return type(error).__name__, getattr(error, "code", None)


def assert_routes_agree(view, predicates) -> int:
    """Every form answers alike on the three routes; returns how many
    documents node answers decided.  Under a byte budget (the
    memory-capped CI job sets one for every database) a column-wide
    lookup mostly finds evicted trees and walks them, so callers expect
    answers only from an uncapped pool (:func:`answered`)."""
    with enabled_metrics():
        for predicate in FIXED + predicates:
            for query in forms(*predicate):
                reference = outcome(view, query, use_indexes=False)
                with mock.patch.object(plan, "_only_documents",
                                       return_value="forced"):
                    filtered = outcome(view, query)
                assert filtered == reference, query
                assert outcome(view, query) == reference, query
        return METRICS.counter("index.node_answers")


def answered(database, count: int) -> bool:
    return count > 0 or database.buffer_pool.enabled


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, predicates=PREDICATES)
def test_node_answers_equal_the_other_routes(corpus, predicates):
    database = Database()
    fill(database, corpus)
    assert answered(database, assert_routes_agree(database, predicates))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, predicates=PREDICATES, data=st.data())
def test_a_snapshot_pinned_before_deletes(corpus, predicates, data):
    """The index keeps deleted documents' entries; the snapshot's rows
    decide which of them still answer."""
    database = Database()
    fill(database, corpus)
    snapshot = database.snapshot()
    ids = [row.values["id"] for row in database.table("t").rows]
    doomed = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    database.delete_rows("t", lambda values: values["id"] in doomed)
    assert_routes_agree(snapshot, predicates)
    assert_routes_agree(database, predicates)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, predicates=PREDICATES, checkpoint=st.booleans())
def test_a_one_byte_durable_pool_after_a_reopen(corpus, predicates,
                                                checkpoint):
    """Cold documents reload from the log with the node ids the rebuilt
    index holds.  Under one byte only the newest tree stays live, so a
    column-wide lookup mostly finds evicted trees and walks them; a
    reopen without a budget answers nodes from the recovered index."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory, buffer_pool_bytes=1) as database:
            fill(database, corpus)
            if checkpoint:
                database.checkpoint()
        with DurableDatabase(directory, buffer_pool_bytes=1) as reopened:
            assert_routes_agree(reopened, predicates)
        with DurableDatabase(directory) as reopened:
            assert answered(reopened,
                            assert_routes_agree(reopened, predicates))


#: §3.10 between pairs: ``(rel, low op, low, high op, high)``; a bound
#: may equal a stored value ("100", "150").  ``@price`` is a singleton
#: (one range scan, node answers, both bounds on one value); ``@*`` and
#: ``@*:price`` are not, since one lineitem may carry two values and
#: each may pass one bound.
BETWEENS = st.tuples(st.sampled_from(("@price", "@*", "@*:price")),
                     st.sampled_from((">", ">=", "gt", "ge")),
                     st.sampled_from(("12", "100", "149.87")),
                     st.sampled_from(("<", "<=", "lt", "le")),
                     st.sampled_from(("150", "1e3", "100")))
#: Each example draws a wildcard pair over two attributes of one
#: lineitem (``@*`` ``[100, 150]`` and ``@*:price`` ``(12, 150)``).
WILDCARD_PAIRS = [("@*", ">=", "100", "<=", "150"),
                  ("@*:price", ">", "12", "<", "150")]
#: A lineitem whose two attributes each pass one bound of both pairs.
TWO_VALUES = ("<order><lineitem price='500' xmlns:n='urn:n' n:price='1'"
              " qty='7'/></order>")


def with_two_values(corpus):
    untyped, typed = corpus
    return [TWO_VALUES, *untyped], typed


def between_forms(rel, low_op, low, high_op, high) -> list[str]:
    """A value comparison pair over an uncastable price raises
    FORG0001 on the reference plan, so its forms are child forms whose
    reference meets the candidates in document order, as the kernel
    does; general pairs also take the ``//`` and element-pair forms."""
    test = f"{rel} {low_op} {low} and {rel} {high_op} {high}"
    forms = [f"for $i in {COLUMN}/order/lineitem[{test}] return $i",
             f"for $i in {COLUMN}/order[lineitem[{test}]] return $i"]
    if low_op in (">", ">="):
        forms += [f"{COLUMN}//lineitem[{test}]",
                  f"{COLUMN}//order[lineitem[{test}]]",
                  f"{COLUMN}//order[lineitem[{rel} {low_op} {low}] and "
                  f"lineitem[{rel} {high_op} {high}]]",
                  f"{COLUMN}//lineitem[product[id >= 'P1' and "
                  f"id <= 'P2']]"]
    return forms


def node_by_node(view, query: str):
    """The reference plan with the column kernel declining too, so
    every predicate runs node by node (``use_indexes=False`` alone
    still decides a lookup from the document on the columns)."""
    with mock.patch.object(ColumnStore, "nodes_where", return_value=None):
        return outcome(view, query, use_indexes=False)


def assert_between_routes_agree(view, pairs) -> int:
    with enabled_metrics():
        for pair in WILDCARD_PAIRS + pairs:
            for query in between_forms(*pair):
                reference = node_by_node(view, query)
                assert outcome(view, query, use_indexes=False) == \
                    reference, query
                with mock.patch.object(plan, "_only_documents",
                                       return_value="forced"):
                    filtered = outcome(view, query)
                assert filtered == reference, query
                assert outcome(view, query) == reference, query
        return METRICS.counter("index.node_answers")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, pairs=st.lists(BETWEENS, min_size=1, max_size=4))
def test_between_pairs_equal_the_other_routes(corpus, pairs):
    database = Database()
    fill(database, with_two_values(corpus), wildcard=True)
    assert_between_routes_agree(database, pairs)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, pairs=st.lists(BETWEENS, min_size=1, max_size=3),
       data=st.data())
def test_between_pairs_through_a_snapshot_pinned_before_deletes(
        corpus, pairs, data):
    database = Database()
    fill(database, with_two_values(corpus), wildcard=True)
    snapshot = database.snapshot()
    ids = [row.values["id"] for row in database.table("t").rows]
    doomed = set(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    database.delete_rows("t", lambda values: values["id"] in doomed)
    assert_between_routes_agree(snapshot, pairs)
    assert_between_routes_agree(database, pairs)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, pairs=st.lists(BETWEENS, min_size=1, max_size=3))
def test_between_pairs_on_a_one_byte_durable_pool_after_a_reopen(corpus,
                                                                  pairs):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory, buffer_pool_bytes=1) as database:
            fill(database, with_two_values(corpus), wildcard=True)
        with DurableDatabase(directory, buffer_pool_bytes=1) as reopened:
            assert_between_routes_agree(reopened, pairs)


def test_the_probe_between_shape_compares_no_node_one_by_one():
    """``//order[lineitem[@price > l and @price < h]]`` on clean
    documents: the merged range scan answers nodes, the kernel reads no
    partition and no predicate runs node by node."""
    database = Database()
    fill(database, ([], None))
    database.insert("t", {"id": 9, "doc": "<order><lineitem price='120'/>"
                                          "<lineitem price='90'/></order>"})
    query = (f"for $i in {COLUMN}//order[lineitem[@price>100 and "
             f"@price<140]] return $i")
    with enabled_metrics():
        with mock.patch("repro.xquery.evaluator.compare_atoms",
                        side_effect=AssertionError("node by node")), \
                mock.patch("repro.storage.columnar.ColumnStore.nodes_where",
                           side_effect=AssertionError("partition read")):
            answer = database.xquery(query)
        assert METRICS.counter("index.node_answers") == 1
        assert METRICS.counter("pathsummary.column_predicates") == 1
    assert answer.serialize() == database.xquery(
        query, use_indexes=False).serialize()
    assert len(answer) == 1
    assert any("answers nodes for between" in note
               for note in answer.stats.plan_notes)
