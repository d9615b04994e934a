"""Property: paths from stored element contexts, and SQL/XML bodies
batched per document, answer as the node-by-node, per-row reference.

In the ``use_indexes=True`` lowering a relative path whose last summary
step carries one ``[rel op operand]`` predicate is looked up from each
stored element context on the path partitions — the slot range of the
context's subtree — and decided there
(``ColumnStore.nodes_where(..., slot)``); an XMLTABLE column path runs
once over all row items of a document, and a select-list
``XMLQuery('$d/P' passing <XML column> as "d")`` once per distinct
document (``evaluate_each``).  ``use_indexes=False`` keeps the
node-by-node, per-row reference.  Answers, and errors by class and
code, must be equal:

* for element contexts one at a time (``for $a in …//a``) and many at
  once, nested ones included (``(…//a)/b``, ``(…//a)//a``);
* for a schema-typed document among untyped ones;
* for uncastable values, and value comparisons that raise — on child
  forms only, whose reference visits the candidates of each context in
  document order too (a ``//`` form visits nested candidates in
  another order and may raise another of two errors, so it draws
  general comparisons);
* for an XMLTABLE whose row 1 column 2 and row 2 column 1 both raise,
  and SQL casts that fail;
* for select-list bodies over rows that share a document;
* for §3.10 between pairs over one ``rel``: the singletons ``@x`` and
  ``.`` (both bounds tested on one value), and ``@*``, ``@*:x`` and
  ``b``, where one value may pass each bound;

in memory, through a snapshot pinned before random deletes, and on a
one-byte durable pool after a reopen.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import DurableDatabase
from repro.errors import ReproError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.schema.schema import Schema
from repro.storage.catalog import Database

COLUMN = "db2-fn:xmlcolumn('T.DOC')"
VALUES = (" 12 ", "12", "-0", "NaN", "1e3", "", "20 USD", "5.5", "abc")
GENERAL = ("=", "!=", "<", ">=")
VALUE = ("eq", "ne", "lt")
LITERALS = ("12", "0", "1e3", "'12'", "'abc'")
#: The validated document types ``a/@x`` as a string.
SCHEMA = Schema("typed").declare("a/@x", "xs:string")


@st.composite
def a_specs(draw, depth=0):
    """(x value or None, other attributes, b values, nested a specs) of
    one ``a``; ``y`` and ``p:x`` give ``@*`` and ``@*:x`` a second
    value."""
    x = draw(st.one_of(st.none(), st.sampled_from(VALUES)))
    others = draw(st.dictionaries(st.sampled_from(("y", "p:x")),
                                  st.sampled_from(VALUES), max_size=2))
    b_values = draw(st.lists(st.sampled_from(VALUES), max_size=2))
    nested = (draw(st.lists(a_specs(depth=depth + 1), max_size=2))
              if depth < 2 else [])
    return x, others, b_values, nested


def _a(spec) -> str:
    x, others, b_values, nested = spec
    attributes = {} if x is None else {"x": x}
    attributes.update(others)
    attributes = "".join(f" {name}='{value}'"
                         for name, value in attributes.items())
    bs = "".join(f"<b>{value}</b>" for value in b_values)
    return f"<a{attributes}>{bs}{''.join(map(_a, nested))}</a>"


def xml(a_list) -> str:
    return f"<r xmlns:p='urn:p'>{''.join(map(_a, a_list))}</r>"


#: Every table starts with it, so no path is statically empty.
ANCHOR = [("12", {}, ["12"], [("5", {}, ["1"], [])])]
DOCUMENTS = st.lists(st.lists(a_specs(), max_size=3), min_size=1,
                     max_size=4)
#: (rel, op, literal): child forms take every op, ``//`` forms only
#: general comparisons.
PREDICATES = st.tuples(st.sampled_from(("@x", "b", ".")),
                       st.sampled_from(GENERAL + VALUE),
                       st.sampled_from(LITERALS))


def xqueries(rel: str, op: str, literal: str) -> list[str]:
    test = f"{rel} {op} {literal}"
    step = "b" if rel == "." else "a"
    forms = [f"for $a in {COLUMN}//a return <r>{{$a/{step}[{test}]}}</r>",
             f"let $v := {literal} for $a in {COLUMN}/r/a return "
             f"<r>{{$a/{step}[{rel} {op} $v]}}</r>",
             f"({COLUMN}//a)/{step}[{test}]"]
    if op in GENERAL:
        forms += [f"for $a in {COLUMN}/r/a return count($a//a[{test}])",
                  f"({COLUMN}//a)//{step}[{test}]"]
    return forms


def statements(rel: str, op: str, literal: str) -> list[str]:
    """An XMLTABLE with an ordinality, two predicate paths and a
    ``DOUBLE`` cast of ``b`` (uncastable or two values: SQL errors);
    one whose rows skip some ``a`` of their path (their subtrees lie
    between the rows'); and two select-list bodies over rows that
    share a document."""
    test = f"{rel} {op} {literal}".replace("'", "''")
    own = f". {op} {literal}".replace("'", "''")
    step = "b" if rel == "." else "a"
    return [
        f"SELECT t.id, x.n, x.c1, x.c2, x.c3 FROM t, XMLTable('$d//a' "
        f"passing t.doc as \"d\" COLUMNS \"n\" FOR ORDINALITY, \"c1\" XML "
        f"BY REF PATH '{step}[{test}]', \"c2\" VARCHAR(8) PATH "
        f"'@x[{own}]', \"c3\" DOUBLE PATH 'b') as x(n, c1, c2, c3)",
        f"SELECT t.id, x.c1 FROM t, XMLTable('$d/r/a[@x]' passing t.doc "
        f"as \"d\" COLUMNS \"c1\" XML BY REF PATH '{step}[{test}]') "
        f"as x(c1)",
        f"SELECT t.id, v.k, XMLQuery('$d//{step}[{test}]' passing t.doc "
        f"as \"d\"), XMLQuery('$d/r/a/{step}[{test}]' passing t.doc as "
        f"\"d\") FROM t, v",
    ]


def outcome(run):
    """The answer of ``run()``, or its error's class and code."""
    try:
        return run()
    except ReproError as error:
        return type(error).__name__, getattr(error, "code", None)


def assert_routes_agree(view, predicates) -> None:
    for predicate in predicates:
        for query in xqueries(*predicate):
            expected = outcome(lambda: view.xquery(
                query, use_indexes=False).serialize())
            assert outcome(lambda: view.xquery(query).serialize()) \
                == expected, query
        for statement in statements(*predicate):
            expected = outcome(lambda: view.sql(
                statement, use_indexes=False).serialize_rows())
            assert outcome(lambda: view.sql(statement).serialize_rows()) \
                == expected, statement


def fill(database, documents, typed=None) -> None:
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.execute("CREATE TABLE v (k INTEGER)")
    database.register_schema(SCHEMA)
    for k in (1, 2):
        database.insert("v", {"k": k})
    for number, a_list in enumerate([ANCHOR] + documents):
        database.insert("t", {"id": number, "doc": xml(a_list)})
    if typed is not None:
        database.insert("t", {"id": len(documents) + 1, "doc": xml(typed)},
                        schema="typed")


def cold(database) -> bool:
    """Under a byte budget (the memory-capped CI job sets one for every
    database) trees are evicted as others load: lookups then walk
    objects and batches decline, so only the answers are checked."""
    return database.buffer_pool.enabled


#: Every op once, so each example drives the element kernel and the
#: batches whatever was drawn.
FIXED = [("@x", op, "12") for op in GENERAL + VALUE] + [("b", "eq", "12")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=6))
def test_element_contexts_and_batches_equal_the_reference(documents,
                                                          predicates):
    database = Database()
    fill(database, documents)
    with enabled_metrics():
        assert_routes_agree(database, FIXED + predicates)
        assert cold(database) or \
            METRICS.counter("pathsummary.element_lookups") > 0
        assert cold(database) or METRICS.counter("sql.batched_bodies") > 0


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS, typed=st.lists(a_specs(), min_size=1,
                                           max_size=2),
       predicates=st.lists(PREDICATES, min_size=1, max_size=4))
def test_a_typed_document_among_untyped_ones(documents, typed,
                                             predicates):
    """Typed ``@x`` strings raise against numbers on every route; the
    typed store's contexts never reach the kernel or a batch."""
    database = Database()
    fill(database, documents, typed)
    assert not database.table("t").rows[-1].values["doc"].columns.untyped
    assert_routes_agree(database, FIXED + predicates)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=4),
       data=st.data())
def test_a_snapshot_pinned_before_deletes(documents, predicates, data):
    database = Database()
    fill(database, documents)
    snapshot = database.snapshot()
    ids = [row.values["id"] for row in database.table("t").rows]
    doomed = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
    database.delete_rows("t", lambda values: values["id"] in doomed)
    assert_routes_agree(snapshot, FIXED + predicates)
    assert_routes_agree(database, predicates)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=4),
       checkpoint=st.booleans())
def test_a_one_byte_durable_pool_after_a_reopen(documents, predicates,
                                                checkpoint):
    """Under one byte only the newest tree stays live: a batch finds
    evicted trees and declines, and the rows run one by one."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory, buffer_pool_bytes=1) as database:
            fill(database, documents)
            if checkpoint:
                database.checkpoint()
        with DurableDatabase(directory, buffer_pool_bytes=1) as reopened:
            assert_routes_agree(reopened, FIXED + predicates)


#: Row 1 (the first ``g``) raises FORG0001 in column 2 (``x='abc'``),
#: row 2 raises XPTY0004 in column 1 (two ``b``): a cell-by-cell run
#: meets row 1 column 2 first.
TWO_ERRORS = ("<r><g><a x='12'><b>12</b></a><a x='abc'/></g>"
              "<g><a><b>1</b><b>2</b></a></g></r>")
XMLTABLE = ("SELECT x.c1, x.c2 FROM t, XMLTable('$d/r/g' passing t.doc as "
            "\"d\" COLUMNS \"c1\" XML BY REF PATH 'a[b eq 12]', \"c2\" "
            "XML BY REF PATH 'a[@x eq 12]') as x(c1, c2)")


def test_the_first_error_of_an_xmltable_is_the_cell_by_cell_one():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.insert("t", {"id": 1, "doc": TWO_ERRORS})
    with enabled_metrics():
        for use_indexes in (False, True):
            assert outcome(lambda: database.sql(
                XMLTABLE, use_indexes=use_indexes).rows) \
                == ("CastError", "FORG0001")
        # Both column batches raised: every cell ran one by one.
        assert METRICS.counter("sql.batched_bodies") == 0
    # Without the failing cells the same columns run in one batch each.
    database.insert("t", {"id": 2, "doc": "<r><g><a x='12'><b>12</b></a>"
                                          "</g><g/></r>"})
    database.delete_rows("t", lambda values: values["id"] == 1)
    with enabled_metrics():
        rows = database.sql(XMLTABLE).serialize_rows()
        assert cold(database) or METRICS.counter("sql.batched_bodies") == 2
    assert rows == database.sql(XMLTABLE,
                                use_indexes=False).serialize_rows()
    assert rows == [("<a x=\"12\"><b>12</b></a>", "<a x=\"12\"><b>12</b></a>"),
                    (None, None)]


def test_rows_sharing_a_document_share_one_body_run():
    database = Database()
    fill(database, [[("20", {}, ["12"], [])]])
    statement = ("SELECT t.id, v.k, XMLQuery('$d//a[@x > 10]' passing "
                 "t.doc as \"d\") FROM t, v")
    with enabled_metrics():
        result = database.sql(statement)
        if not cold(database):
            assert METRICS.counter("sql.batched_bodies") == 1
            assert METRICS.counter("pathsummary.hits") == 1
            assert "XMLQuery evaluated once per document (2 documents " \
                "for 4 rows)" in result.stats.plan_notes
    assert result.serialize_rows() == database.sql(
        statement, use_indexes=False).serialize_rows()
    explained = database.explain(statement)
    assert "XMLQuery in select item 3 evaluated once per document" \
        in explained


#: §3.10 between pairs from element contexts: over the one attribute
#: ``@x`` and ``.`` (singletons: the two-bound kernel), over ``@*`` and
#: ``@*:x`` (several attributes of one ``a``: one may pass each bound),
#: value pairs over ``b`` (two ``b`` or ``20 USD`` raise), and a
#: general ``b`` pair, which is existential and stays node by node.
BETWEENS = st.tuples(st.sampled_from(("@x", ".", "b", "@*", "@*:x")),
                     st.sampled_from(((">", "<"), (">=", "<="),
                                      ("gt", "lt"))),
                     st.sampled_from(("0", "5.5", "12")),
                     st.sampled_from(("12", "1e3", "'abc'")))
#: Each example draws a wildcard pair over :data:`TWO_ATTRIBUTES`,
#: whose ``a`` elements each carry one value above 5.5–12 and one below.
WILDCARD_PAIRS = [("@*", (">", "<"), "5.5", "12"),
                  ("@*:x", (">=", "<="), "5.5", "12")]
TWO_ATTRIBUTES = [("3", {"y": "20"}, [], [("3", {"p:x": "20"}, [], [])])]


def between_xqueries(rel, ops, low, high) -> list[str]:
    test = f"{rel} {ops[0]} {low} and {rel} {ops[1]} {high}"
    step = "b" if rel == "." else "a"
    return [f"for $a in {COLUMN}//a return <r>{{$a/{step}[{test}]}}</r>",
            f"({COLUMN}//a)/{step}[{test}]",
            f"for $a in {COLUMN}/r/a return <r>{{$a[a[{test}]]}}</r>"]


def assert_between_routes_agree(view, pairs) -> None:
    for pair in WILDCARD_PAIRS + pairs:
        for query in between_xqueries(*pair):
            expected = outcome(lambda: view.xquery(
                query, use_indexes=False).serialize())
            assert outcome(lambda: view.xquery(query).serialize()) \
                == expected, query


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS, typed=st.one_of(st.none(), st.lists(
    a_specs(), min_size=1, max_size=2)),
       pairs=st.lists(BETWEENS, min_size=1, max_size=4))
def test_between_pairs_from_element_contexts(documents, typed, pairs):
    database = Database()
    fill(database, documents + [TWO_ATTRIBUTES], typed)
    assert_between_routes_agree(database, pairs)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS, pairs=st.lists(BETWEENS, min_size=1,
                                           max_size=3),
       data=st.data())
def test_between_pairs_through_a_snapshot_pinned_before_deletes(
        documents, pairs, data):
    database = Database()
    fill(database, documents + [TWO_ATTRIBUTES])
    snapshot = database.snapshot()
    ids = [row.values["id"] for row in database.table("t").rows]
    doomed = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
    database.delete_rows("t", lambda values: values["id"] in doomed)
    assert_between_routes_agree(snapshot, pairs)
    assert_between_routes_agree(database, pairs)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS, pairs=st.lists(BETWEENS, min_size=1,
                                           max_size=3),
       checkpoint=st.booleans())
def test_between_pairs_on_a_one_byte_durable_pool_after_a_reopen(
        documents, pairs, checkpoint):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory, buffer_pool_bytes=1) as database:
            fill(database, documents + [TWO_ATTRIBUTES])
            if checkpoint:
                database.checkpoint()
        with DurableDatabase(directory, buffer_pool_bytes=1) as reopened:
            assert_between_routes_agree(reopened, pairs)
        with DurableDatabase(directory) as reopened:
            assert_between_routes_agree(reopened, pairs)
