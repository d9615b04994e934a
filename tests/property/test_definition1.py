"""Property-based test of Definition 1 — the paper's core invariant.

    An index I is eligible to answer predicate P of query Q iff for any
    collection D:  Q(D) = Q(I(P, D)).

We generate random order collections (numeric, string, missing and
multi-valued prices; attribute and element forms; namespaces) and a
family of queries the analyzer deems index-eligible, then check that
executing with index prefiltering returns exactly the same sequence as
a full collection scan.  Queries the analyzer rejects are *also*
executed both ways — a correct analyzer never makes them disagree
because rejected queries simply run unfiltered, but this guards the
plumbing.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database

prices = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0, max_value=300, allow_nan=False,
              allow_infinity=False).map(lambda value: round(value, 2)),
    st.sampled_from(["20 USD", "n/a", ""]),
)

lineitems = st.lists(prices, min_size=0, max_size=3)


def order_doc(item_prices, use_elements: bool) -> str:
    pieces = []
    for price in item_prices:
        if use_elements:
            pieces.append(f"<lineitem><price>{price}</price></lineitem>")
        else:
            pieces.append(f'<lineitem price="{price}"/>')
    return f"<order>{''.join(pieces)}</order>"


collections = st.lists(
    st.tuples(lineitems, st.booleans()), min_size=0, max_size=12)

QUERIES = [
    "for $i in db2-fn:xmlcolumn('T.D')//order[lineitem/@price>100] "
    "return $i",
    "db2-fn:xmlcolumn('T.D')//lineitem[@price > 100]",
    "db2-fn:xmlcolumn('T.D')//lineitem[@price = 150]",
    "db2-fn:xmlcolumn('T.D')//lineitem[@price >= 100 and @price <= 200]",
    "db2-fn:xmlcolumn('T.D')//lineitem[price > 100 and price < 200]",
    "db2-fn:xmlcolumn('T.D')//lineitem[price/data()[. > 50 and . < 250]]",
    "for $o in db2-fn:xmlcolumn('T.D')/order "
    "where $o/lineitem/@price > 100 return $o",
    "for $o in db2-fn:xmlcolumn('T.D')/order "
    "let $p := $o/lineitem/@price where $p > 42.5 return $o",
    "for $o in db2-fn:xmlcolumn('T.D')/order "
    "return $o/lineitem[@price < 50]",
    "for $o in db2-fn:xmlcolumn('T.D')/order "
    "where $o/lineitem/@price > 50 or $o/lineitem/price > 250 return $o",
    'db2-fn:xmlcolumn(\'T.D\')//order[lineitem/@price > "100"]',
]


def build_db(collection) -> Database:
    database = Database(index_order=4)
    database.create_table("t", [("d", "XML")])
    for item_prices, use_elements in collection:
        database.insert("t", {"d": order_doc(item_prices, use_elements)})
    database.create_xml_index("idx_attr", "t", "d",
                              "//lineitem/@price", "DOUBLE")
    database.create_xml_index("idx_elem", "t", "d",
                              "//lineitem/price", "DOUBLE")
    database.create_xml_index("idx_str", "t", "d",
                              "//lineitem/@price", "VARCHAR")
    return database


@settings(max_examples=60, deadline=None)
@given(collections, st.integers(min_value=0, max_value=len(QUERIES) - 1))
def test_definition1_invariant(collection, query_index):
    database = build_db(collection)
    query = QUERIES[query_index]
    with_index = database.xquery(query, use_indexes=True)
    without = database.xquery(query, use_indexes=False)
    assert with_index.serialize() == without.serialize(), \
        f"Definition 1 violated for {query!r}"


@settings(max_examples=25, deadline=None)
@given(collections)
def test_prefilter_never_scans_more(collection):
    database = build_db(collection)
    query = ("for $i in db2-fn:xmlcolumn('T.D')"
             "//order[lineitem/@price>100] return $i")
    with_index = database.xquery(query, use_indexes=True)
    without = database.xquery(query, use_indexes=False)
    assert with_index.stats.docs_scanned <= without.stats.docs_scanned


@settings(max_examples=25, deadline=None)
@given(collections, st.randoms(use_true_random=False))
def test_index_maintenance_under_deletes(collection, rng):
    database = build_db(collection)
    doomed = {stored.doc_id for stored in database.documents("t", "d")
              if rng.random() < 0.5}
    database.delete_rows(
        "t", lambda values: values["d"] is not None and
        values["d"].doc_id in doomed)
    query = "db2-fn:xmlcolumn('T.D')//lineitem[@price > 100]"
    with_index = database.xquery(query, use_indexes=True)
    without = database.xquery(query, use_indexes=False)
    assert with_index.serialize() == without.serialize()


# ---------------------------------------------------------------------------
# Boundary matrix: stored values that are no exact doubles, literals in
# three lexical forms, six operators, three index setups
# ---------------------------------------------------------------------------

BOUNDARY_STORED = ["149.87", "10.1", "0.1"]
BOUNDARY_LITERALS = ["149.87", "149.87e0", '"149.87"', "10.1", "0.1e0",
                     '"0.1"']
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
_PYTHON_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _price_db(stored: list[str], index_type) -> Database:
    database = Database(index_order=4)
    database.create_table("t", [("d", "XML")])
    for text in stored:
        database.insert("t", {"d": f'<order><li price="{text}"/></order>'})
    if index_type is not None:
        database.create_xml_index("idx", "t", "d", "//li/@price",
                                  index_type)
    return database


def _expected(stored: list[str], symbol: str, literal: str) -> list[str]:
    """The spec's answer: a numeric literal meets the untyped price as
    a double, a string literal as a string."""
    compare = _PYTHON_OPS[symbol]
    if literal.startswith('"'):
        return [text for text in stored if compare(text, literal[1:-1])]
    return [text for text in stored if compare(float(text), float(literal))]


@pytest.fixture(scope="module")
def boundary_dbs():
    return {index_type: _price_db(BOUNDARY_STORED, index_type)
            for index_type in (None, "DOUBLE", "VARCHAR")}


@pytest.mark.parametrize("symbol", OPERATORS)
@pytest.mark.parametrize("literal", BOUNDARY_LITERALS)
def test_every_route_answers_the_boundary_matrix_alike(boundary_dbs,
                                                       literal, symbol):
    query = (f"for $l in db2-fn:xmlcolumn('T.D')//li[@price {symbol} "
             f"{literal}] return string($l/@price)")
    expected = _expected(BOUNDARY_STORED, symbol, literal)
    eligible = "VARCHAR" if literal.startswith('"') else "DOUBLE"
    for index_type, database in boundary_dbs.items():
        for use_indexes in (True, False):
            answer = database.xquery(query, use_indexes=use_indexes)
            assert answer.serialize() == expected, (index_type,
                                                    use_indexes)
            probed = (use_indexes and index_type == eligible
                      and symbol != "!=")
            assert answer.stats.indexes_used == (["idx"] if probed
                                                 else [])


@pytest.mark.parametrize("symbol", OPERATORS)
def test_integers_beyond_2_53_answer_alike_on_every_route(symbol):
    """§3.6 hazard 2: the literal 2**53 + 1 and the stored 2**53 are one
    double, for the scan and for the DOUBLE index."""
    stored = [str(2 ** 53)]
    query = (f"for $l in db2-fn:xmlcolumn('T.D')//li[@price {symbol} "
             f"{2 ** 53 + 1}] return string($l/@price)")
    expected = _expected(stored, symbol, str(2 ** 53 + 1))
    for index_type in (None, "DOUBLE", "VARCHAR"):
        database = _price_db(stored, index_type)
        for use_indexes in (True, False):
            answer = database.xquery(query, use_indexes=use_indexes)
            assert answer.serialize() == expected, (index_type,
                                                    use_indexes)
