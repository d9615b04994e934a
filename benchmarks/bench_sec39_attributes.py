"""§3.9 — attributes and elements (Tip 12).

Paper claim: ``//*`` and ``//node()`` index no attribute nodes; the
broad ``//@*`` index covers a numeric predicate on any attribute.
"""

import pytest

from conftest import build_db


@pytest.fixture(scope="module")
def attr_db():
    database = build_db()
    database.drop_index("li_price")   # force reliance on broad indexes
    database.drop_index("o_custid")
    database.execute("CREATE INDEX star ON orders(orddoc) "
                     "USING XMLPATTERN '//*' AS VARCHAR")
    database.execute("CREATE INDEX all_attrs ON orders(orddoc) "
                     "USING XMLPATTERN '//@*' AS DOUBLE")
    return database


QUERY = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
         "//order[lineitem/@price > 190] return $o")


def test_broad_attribute_index_serves_any_attribute(benchmark, attr_db):
    result = benchmark(lambda: attr_db.xquery(QUERY))
    assert result.stats.indexes_used == ["all_attrs"]
    baseline = attr_db.xquery(QUERY, use_indexes=False)
    assert result.serialize() == baseline.serialize()


def test_star_index_contains_no_attributes(attr_db):
    star = attr_db.xml_indexes["star"]
    kinds = {entry.path.kind for _key, entry in star.tree.items()}
    assert "attribute" not in kinds


def test_quantity_predicate_also_covered(benchmark, attr_db):
    query = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
             "//order[lineitem/@quantity > 8] return $o")
    result = benchmark(lambda: attr_db.xquery(query))
    assert result.stats.indexes_used == ["all_attrs"]
