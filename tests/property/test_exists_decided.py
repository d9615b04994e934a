"""Property: an exact index verdict deciding SQL XMLEXISTS changes no answer.

When the WHERE clause is one XMLEXISTS of ``$doc/P[rel op operand]``
and the probe planned for that comparison is exact — a literal row
prefilter (p6, p7, and a value-comparison variant) or an index
nested-loop join (j2, j4) — a row whose document the probe admitted and
whose index facts are clean takes the WHERE clause as TRUE without
running the body.  Three routes must agree row for row, or fail with
the same SQLSTATE or XQuery error code:

* decided (the default indexed route);
* row filter only (every verdict treated as not exact);
* ``use_indexes=False``, the reference plan.

The corpora hold an uncastable ``custid`` and price, a product with two
``id`` children, a schema-validated (typed) order, a product whose
``id`` is NULL and a customer whose id the outer operand cannot cast;
they run in memory, through a snapshot pinned before random deletes,
and on a one-byte durable pool after a reopen.  Bodies run only on
documents whose facts are not clean (typed, a skipped value, a shared
parent) or that the probe could not decide, and never twice for one
binding.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.querycache import clear_cache, compile_query
from repro.durability import DurableDatabase
from repro.errors import ReproError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.planner import plan
from repro.schema.schema import Schema
from repro.sql import executor
from repro.storage.catalog import Database
from repro.xdm.nodes import Node

_LINEITEMS = "XMLQuery('$order//lineitem' passing o.orddoc as \"order\")"
_P_BODY = "$order//lineitem[@price > 120]"
_PV_BODY = "$order//lineitem[@price eq 150]"
_J2_BODY = "$order//lineitem/product[id eq $pid]"
_J4_BODY = ("$order/order[custid/xs:double(.) = "
            "$cust/customer/id/xs:double(.)]")
#: name -> (statement, XMLEXISTS body, the index its probe uses)
SHAPES = {
    "p6": (f"SELECT ordid, orddoc FROM orders WHERE XMLExists("
           f"'{_P_BODY}' passing orddoc as \"order\")", _P_BODY,
           "li_price"),
    # The select list's body is spelled with a trailing blank, so it
    # compiles apart from the XMLEXISTS body the counts follow.
    "p7": (f"SELECT ordid, XMLQuery('{_P_BODY} ' passing orddoc as "
           f"\"order\") FROM orders WHERE XMLExists('{_P_BODY}' passing "
           f"orddoc as \"order\")", _P_BODY, "li_price"),
    "pv": (f"SELECT ordid FROM orders WHERE XMLExists('{_PV_BODY}' "
           f"passing orddoc as \"order\")", _PV_BODY, "li_price"),
    "j2": (f"SELECT p.name, {_LINEITEMS} FROM products p, orders o "
           f"WHERE XMLExists('{_J2_BODY}' passing o.orddoc as \"order\", "
           f"p.id as \"pid\")", _J2_BODY, "li_prod_id"),
    "j4": (f"SELECT c.cid, {_LINEITEMS} FROM customer c, orders o "
           f"WHERE XMLExists('{_J4_BODY}' passing o.orddoc as \"order\", "
           f"c.cdoc as \"cust\")", _J4_BODY, "o_custid"),
}
#: The validated order types its prices as doubles.
SCHEMA = Schema("typed").declare("order/lineitem/@price", "xs:double")
CUSTIDS = ("1", "2", " 3 ", "abc")
PRICES = ("100", "150", "1.5e2", "200", "abc")
IDS = ("P1", "P2", "P3")


def order_text(custid: str, lineitems) -> str:
    items = "".join(
        f"<lineitem price='{price}'><product>"
        f"{''.join(f'<id>{value}</id>' for value in ids)}"
        f"</product></lineitem>" for price, ids in lineitems)
    return f"<order><custid>{custid}</custid>{items}</order>"


def fill(database, orders, customers, products, typed) -> None:
    database.execute("CREATE TABLE customer (cid INTEGER, cdoc XML)")
    database.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
    database.execute("CREATE TABLE products (id VARCHAR(13), "
                     "name VARCHAR(32))")
    database.register_schema(SCHEMA)
    for index in (("li_price", "orders", "orddoc", "//lineitem/@price",
                   "DOUBLE"),
                  ("o_custid", "orders", "orddoc", "//custid", "DOUBLE"),
                  ("c_custid", "customer", "cdoc", "/customer/id",
                   "DOUBLE"),
                  ("li_prod_id", "orders", "orddoc",
                   "//lineitem/product/id", "VARCHAR")):
        database.create_xml_index(*index)
    for cid, value in enumerate(customers, 1):
        database.insert("customer", {
            "cid": cid, "cdoc": f"<customer><id>{value}</id></customer>"})
    for number, product in enumerate(products):
        database.insert("products", {"id": product, "name": f"n{number}"})
    for ordid, (custid, lineitems) in enumerate(orders, 1):
        database.insert("orders", {"ordid": ordid,
                                   "orddoc": order_text(custid, lineitems)})
    if typed is not None:
        database.insert("orders", {"ordid": len(orders) + 1,
                                   "orddoc": order_text(*typed)},
                        schema="typed")


def outcome(view, text: str, use_indexes: bool = True):
    """The rows as text, or the error's SQLSTATE or XQuery code."""
    try:
        result = view.sql(text, use_indexes=use_indexes)
    except ReproError as error:
        return ("error", getattr(error, "sqlstate", None)
                or getattr(error, "code", None) or type(error).__name__)
    return ("rows", result.columns, result.serialize_rows())


@contextmanager
def filter_only():
    """Statements lowered inside treat every verdict as not exact."""
    clear_cache()
    with mock.patch.object(plan, "_only_documents",
                           return_value="forced"):
        yield
    clear_cache()


@contextmanager
def counted_bodies():
    """Records one (document node id, outer binding) per run of an
    XMLEXISTS body of :data:`SHAPES`."""
    bodies = {id(compile_query(body).module)
              for _text, body, _index in SHAPES.values()}
    runs: list[tuple] = []
    evaluate = executor.evaluate_module

    def counting(module, **options):
        if id(module) in bodies:
            variables = options["variables"]
            runs.append(tuple(
                item.node_id if isinstance(item, Node)
                else item.string_value()
                for name in sorted(variables) for item in variables[name]))
        return evaluate(module, **options)

    with mock.patch.object(executor, "evaluate_module", counting):
        yield runs


def unclean(view, index_name: str) -> set[int]:
    """Document node ids of the orders the index does not hold clean:
    typed, a skipped value or a shared parent, or no longer live."""
    index = view.xml_indexes[index_name]
    found = set()
    for row in view.table("orders").rows:
        stored = row.values["orddoc"]
        if index.facts(stored.doc_id) != 0:
            found.add(stored.columns.node_ids[0])
    return found


def assert_routes_agree(view) -> None:
    """Every shape answers alike on the three routes; a statement that
    answers ran bodies only on unclean documents, never twice for one
    binding (a probe that cannot run means a body that raises)."""
    for name, (text, _body, index_name) in SHAPES.items():
        reference = outcome(view, text, use_indexes=False)
        with filter_only():
            assert outcome(view, text) == reference, name
        with counted_bodies() as runs:
            decided = outcome(view, text)
        assert decided == reference, name
        if decided[0] == "rows":
            assert len(runs) == len(set(runs)), name
            # (run[0] is j2's order, run[-1] j4's and p*'s.)
            assert {run[0] if name == "j2" else run[-1]
                    for run in runs} <= unclean(view, index_name), name


@st.composite
def lineitems(draw):
    price = draw(st.sampled_from(PRICES))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=2))
    return price, ids


ORDERS = st.lists(st.tuples(st.sampled_from(CUSTIDS),
                            st.lists(lineitems(), max_size=3)),
                  min_size=1, max_size=6)
CORPORA = st.tuples(
    ORDERS,
    st.lists(st.sampled_from(("1", "2", "3", "x")), min_size=1,
             max_size=3),
    # Distinct products, so a body run names its binding by $pid.
    st.lists(st.one_of(st.none(), st.sampled_from(IDS)), min_size=1,
             max_size=3, unique=True),
    st.one_of(st.none(), st.tuples(
        st.sampled_from(("1", "2")),
        st.lists(st.tuples(st.sampled_from(("100", "150", "200")),
                           st.lists(st.sampled_from(IDS), min_size=1,
                                    max_size=1)), max_size=2))))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA)
def test_decided_rows_equal_the_other_routes(corpus):
    database = Database()
    fill(database, *corpus)
    assert_routes_agree(database)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, data=st.data())
def test_a_snapshot_pinned_before_deletes(corpus, data):
    """A deleted order's entries and facts stay in the index; the
    snapshot still holds its row, which then runs its body."""
    database = Database()
    fill(database, *corpus)
    snapshot = database.snapshot()
    ids = [row.values["ordid"] for row in database.table("orders").rows]
    doomed = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
    database.delete_rows("orders", lambda values: values["ordid"] in doomed)
    assert_routes_agree(snapshot)
    assert_routes_agree(database)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=CORPORA, checkpoint=st.booleans())
def test_a_one_byte_durable_pool_after_a_reopen(corpus, checkpoint):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory, buffer_pool_bytes=1) as database:
            fill(database, *corpus)
            if checkpoint:
                database.checkpoint()
        with DurableDatabase(directory, buffer_pool_bytes=1) as reopened:
            assert_routes_agree(reopened)


# ---------------------------------------------------------------------------
# Fixed corpora: body counts, errors, plan notes
# ---------------------------------------------------------------------------

CLEAN = [("1", [("150", ["P1"]), ("100", ["P2"])]),
         ("2", [("200", ["P2"])]),
         (" 3 ", [("100", ["P3"])])]


def database_with(orders, typed=None, customers=("1", "2", "3"),
                  products=("P1", "P2", None)) -> Database:
    database = Database()
    fill(database, orders, list(customers), list(products), typed)
    return database


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_clean_documents_run_no_body(name):
    database = database_with(CLEAN)
    text = SHAPES[name][0]
    with counted_bodies() as runs:
        with enabled_metrics():
            decided = outcome(database, text)
            count = METRICS.counter("index.decided_rows")
    assert decided == outcome(database, text, use_indexes=False)
    assert runs == []
    assert count == len(decided[2]) > 0


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_typed_document_runs_its_body_once_per_binding(name):
    database = database_with(CLEAN, typed=("2", [("150", ["P1"])]))
    text, _body, index = SHAPES[name]
    typed = unclean(database, index)
    assert len(typed) == 1
    with counted_bodies() as runs:
        decided = outcome(database, text)
    assert decided == outcome(database, text, use_indexes=False)
    # The typed order qualifies for one binding of each shape.
    assert len(runs) == 1
    assert set(runs[0]) & typed


@pytest.mark.parametrize("name, orders, customers, code", [
    # A product with two ids: `id eq $pid` atomizes two items.
    ("j2", CLEAN + [("1", [("100", ["P2", "P3"])])], ("1",), "XPTY0004"),
    # An uncastable custid: xs:double(.) raises on the document side.
    ("j4", CLEAN + [("abc", [("100", ["P1"])])], ("1",), "FORG0001"),
    # A customer id the outer operand cannot cast.
    ("j4", CLEAN, ("1", "x"), "FORG0001"),
    # An uncastable price under a value comparison.
    ("pv", CLEAN + [("1", [("abc", ["P1"])])], ("1",), "FORG0001"),
])
def test_an_unsafe_document_raises_as_the_reference(name, orders,
                                                    customers, code):
    database = database_with(orders, customers=customers)
    text = SHAPES[name][0]
    reference = outcome(database, text, use_indexes=False)
    assert reference == ("error", code)
    with counted_bodies() as runs:
        assert outcome(database, text) == reference
    assert len(runs) >= 1


def test_a_general_comparison_decides_over_a_skipped_value():
    """``@price > 120`` skips 'abc' on both routes: the order is clean
    for a general comparison and decided where another price matches."""
    database = database_with(CLEAN + [("1", [("abc", ["P1"]),
                                             ("150", ["P1"])])])
    text = SHAPES["p6"][0]
    reference = outcome(database, text, use_indexes=False)
    with counted_bodies() as runs:
        assert outcome(database, text) == reference
    assert runs == []


def test_explain_names_the_decision_and_the_refusal():
    database = database_with(CLEAN)
    assert ("index li_prod_id decides XMLEXISTS for "
            "//lineitem/product/id eq <SQL VARCHAR>"
            in database.explain(SHAPES["j2"][0]))
    assert ("index li_price decides XMLEXISTS for //lineitem/@price > "
            "'120'" in database.explain(SHAPES["p6"][0]))
    anded = ("SELECT ordid FROM orders WHERE XMLExists('$order//lineitem"
             "[@price > 120]' passing orddoc as \"order\") AND ordid > 1")
    assert ("index li_price filters rows only for //lineitem/@price > "
            "'120': the WHERE clause is not this XMLEXISTS alone"
            in database.explain(anded))
    two_steps = ("SELECT ordid FROM orders WHERE XMLExists('$order//"
                 "lineitem[product/id eq \"P1\"]' passing orddoc as "
                 "\"order\")")
    assert ("index li_prod_id not probed for //lineitem/product/id eq "
            "'P1': 'eq' compares a path that is not one child or "
            "attribute step" in database.explain(two_steps))
    assert outcome(database, anded) == outcome(database, anded,
                                               use_indexes=False)


@pytest.mark.parametrize("predicate", [
    "//lineitem[@price eq 100]",             # a skipped value, eq
    "//lineitem/product[id eq 'P1']",        # two ids under one parent
    "/order[custid/xs:double(.) = 1]",       # a skipped value, cast
])
def test_an_xquery_probe_admits_the_documents_that_raise(predicate):
    """The probe of a value comparison or of a document-side cast admits
    the documents whose facts say evaluating it may raise, so both
    routes raise (the index holds no entry for their values)."""
    database = database_with(CLEAN + [("abc", [("abc", ["P2", "P3"])])])
    query = f"db2-fn:xmlcolumn('ORDERS.ORDDOC'){predicate}"

    def run(use_indexes):
        try:
            return database.xquery(query, use_indexes=use_indexes).serialize()
        except ReproError as error:
            return type(error).__name__, error.code

    reference = run(False)
    assert isinstance(reference, tuple)   # the reference raises
    assert run(True) == reference
