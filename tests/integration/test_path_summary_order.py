"""Path-summary lookups return document order without duplicates.

A path's leading ``//`` chain is answered from each context document's
path partitions, and the per-document results are concatenated without
a sort: the context is a step result (already in document order, free
of duplicates) and documents never nest.  These tests feed the lookup
document sequences out of order and with repeats — a parenthesized
sequence and a ``let``-bound one — and require exactly the nodes of
``$d1//lineitem`` then ``$d2//lineitem``, on the index route and with
``use_indexes=False``.
"""

import pytest

from repro.storage.catalog import Database
from repro.workload.paperqueries import load_paper_fixture
from repro.xdm.sequence import document_order

BIND = ("let $c := db2-fn:xmlcolumn('ORDERS.ORDDOC') "
        "let $d1 := $c[.//@price][1], $d2 := $c[.//@price][2] ")
#: id -> (query, its path below the documents, whether $d2 is in it)
QUERIES = {
    "reversed": (BIND + "return ($d2, $d1)//lineitem", "lineitem", True),
    "repeated": (BIND + "return ($d1, $d1)//lineitem", "lineitem", False),
    "attributes": (BIND + "return ($d2, $d1, $d2, $d1)//lineitem/@price",
                   "lineitem/@price", True),
    "let-bound": (BIND + "let $docs := ($d2, $d1, $d2) "
                         "return $docs//lineitem", "lineitem", True),
}


@pytest.fixture(scope="module")
def database():
    database = Database()
    load_paper_fixture(database)  # with its //lineitem/@price index
    return database


def node_ids(items) -> list[int]:
    return [item.node_id for item in items]


def expected(database, tail: str, both: bool, use_indexes: bool
             ) -> list[int]:
    """``$d1``'s matches (then ``$d2``'s), each asked alone, in the
    documents' order."""
    first, second = (
        database.xquery(f"{BIND}return $d{number}//{tail}",
                        use_indexes=use_indexes).items
        for number in (1, 2))
    assert first and second
    if not both:
        return node_ids(first)
    if first[0].document_order_key() > second[0].document_order_key():
        first, second = second, first
    return node_ids(first + second)


@pytest.mark.parametrize("use_indexes", [True, False])
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_lookups_return_document_order_without_duplicates(
        database, case, use_indexes):
    query, tail, both = QUERIES[case]
    result = database.xquery(query, use_indexes=use_indexes)
    items = result.items
    assert result.stats.summary_lookups >= 1
    assert node_ids(document_order(items)) == node_ids(items)
    assert node_ids(items) == expected(database, tail, both, use_indexes)


@pytest.mark.parametrize("case", sorted(QUERIES))
def test_both_routes_serialize_alike(database, case):
    query = QUERIES[case][0]
    assert database.xquery(query).serialize() == \
        database.xquery(query, use_indexes=False).serialize()
