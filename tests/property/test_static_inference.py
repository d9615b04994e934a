"""The static-inference oracle: all 30 paper queries.

For every numbered query of the paper the abstract interpreter must
produce a *sound* verdict against the engineered fixture collection:

* **XQuery** — the inferred cardinality bounds of the query body must
  contain the actual result count, and when the inferred item types
  name concrete elements, every result node must carry one of those
  names.  Queries the paper defines to raise *runtime* errors must
  still infer cleanly (static analysis never crashes on them).
* **SQL** — linting must produce no error-severity findings: the
  paper's SQL/XML queries are all statically well-formed (their
  surprises are warnings, not errors).

This is the acceptance oracle for the PR's static-analysis layer: a
wrong lattice operation, a bad summary bound, or an over-eager SE005
shows up here as a bounds violation on a real query.
"""

from __future__ import annotations

import pytest

from repro.static import lint_statement
from repro.static.infer import infer_module
from repro.xquery.parser import parse_xquery

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

VIEW = ("let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
        "/order/lineitem return <item>{ $i/@quantity, "
        "<pid>{ $i/product/id/data(.) }</pid> }</item> ")

#: (query number, language, text, expected result count, runs?).
#: ``expected`` is None when the query raises a runtime error (25) —
#: inference must still complete; execution is skipped.
PAPER_QUERIES = [
    (1, "xquery",
     f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i", 1),
    (2, "xquery",
     f"for $i in {XMLCOL}//order[lineitem/@*>100] return $i", 1),
    (3, "xquery",
     f'for $i in {XMLCOL}//order[lineitem/@price > "100" ] return $i',
     3),
    (4, "xquery",
     'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
     'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
     "where $i/custid/xs:double(.) = $j/id/xs:double(.) return $i", 5),
    (5, "sql",
     "SELECT XMLQuery('$order//lineitem[@price > 100]' "
     'passing orddoc as "order") FROM orders', 7),
    (6, "sql",
     "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
     "//lineitem[@price > 100] '))", 1),
    (7, "xquery", f"{XMLCOL}//lineitem[@price > 100]", 1),
    (8, "sql",
     "SELECT ordid, orddoc FROM orders WHERE "
     "XMLExists('$order//lineitem[@price > 100]' "
     'passing orddoc as "order")', 1),
    (9, "sql",
     "SELECT ordid, orddoc FROM orders WHERE "
     "XMLExists('$order//lineitem/@price > 100' "
     'passing orddoc as "order")', 7),
    (10, "sql",
     "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' "
     'passing orddoc as "order") FROM orders WHERE '
     "XMLExists('$order//lineitem[@price > 100]' "
     'passing orddoc as "order")', 1),
    (11, "sql",
     "SELECT o.ordid, t.lineitem FROM orders o, "
     "XMLTable('$order//lineitem[@price > 100]' "
     'passing o.orddoc as "order" '
     "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)", 1),
    (12, "sql",
     "SELECT o.ordid, t.lineitem, t.price FROM orders o, "
     "XMLTable('$order//lineitem' passing o.orddoc as \"order\" "
     "COLUMNS \"lineitem\" XML BY REF PATH '.', "
     "\"price\" DECIMAL(6,3) PATH '@price[. > 100]') "
     "as t(lineitem, price)", 8),
    (13, "sql",
     "SELECT p.name, XMLQuery('$order//lineitem' "
     'passing orddoc as "order") FROM products p, orders o '
     "WHERE XMLExists('$order//lineitem/product[id eq $pid]' "
     'passing o.orddoc as "order", p.id as "pid")', 6),
    (14, "sql",
     "SELECT p.name FROM products p, orders o "
     "WHERE ordid = 4 AND p.id = XMLCast(XMLQuery("
     "'$order//lineitem/product/id' passing o.orddoc as \"order\") "
     "as VARCHAR(13))", 1),
    (15, "sql",
     "SELECT c.cid, XMLQuery('$order//lineitem' "
     'passing o.orddoc as "order") FROM orders o, customer c, '
     "WHERE XMLCast(XMLQuery('$order/order/custid' "
     'passing o.orddoc as "order") as DOUBLE) = '
     "XMLCast(XMLQuery('$cust/customer/id' "
     'passing c.cdoc as "cust") as DOUBLE)', 5),
    (16, "sql",
     "SELECT c.cid, XMLQuery('$order//lineitem' "
     'passing o.orddoc as "order") FROM customer c, orders o '
     "WHERE XMLExists('$order/order[custid/xs:double(.) = "
     "$cust/customer/id/xs:double(.)]' "
     'passing o.orddoc as "order", c.cdoc as "cust")', 5),
    (17, "xquery",
     f"for $doc in {XMLCOL} "
     "for $item in $doc//lineitem[@price > 100] "
     "return <result>{$item}</result>", 1),
    (18, "xquery",
     f"for $doc in {XMLCOL} "
     "let $item:= $doc//lineitem[@price > 100] "
     "return <result>{$item}</result>", 7),
    (19, "xquery",
     f"for $ord in {XMLCOL}/order "
     "return <result>{$ord/lineitem[@price > 100]}</result>", 7),
    (20, "xquery",
     f"for $ord in {XMLCOL}/order "
     "where $ord/lineitem/@price > 100 "
     "return <result>{$ord/lineitem}</result>", 1),
    (21, "xquery",
     f"for $ord in {XMLCOL}/order "
     "let $price := $ord/lineitem/@price where $price > 100 "
     "return <result>{$ord/lineitem}</result>", 1),
    (22, "xquery",
     f"for $ord in {XMLCOL}/order "
     "return $ord/lineitem[@price > 100]", 1),
    (23, "xquery", f"{XMLCOL}/order/lineitem", 8),
    (24, "xquery",
     f"for $ord in (for $o in {XMLCOL}/order "
     "return <my_order>{$o/*}</my_order>) "
     "return $ord/my_order", 0),
    (25, "xquery",
     "let $order := <neworder>{"
     f"{XMLCOL}/order[custid > 1001]"
     "}</neworder> return $order[//customer/name]", None),
    (26, "xquery",
     VIEW + "for $j in $view where $j/pid = '17' return $j", 2),
    (27, "xquery",
     "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem "
     "where $i/product/id = '17' return $i/@price", 1),
    (28, "xquery",
     'declare default element namespace '
     '"http://ournamespaces.com/order"; '
     'declare namespace c="http://ournamespaces.com/customer"; '
     'for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
     "/order[lineitem/@price > 1000] "
     'for $cust in db2-fn:xmlcolumn("CUSTOMER.CDOC")'
     "/c:customer[c:nation = 1] "
     "where $ord/custid = $cust/id return $ord", 0),
    (29, "xquery",
     'for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
     '/order[lineitem/price/text() = "99.50"] return $ord', 1),
    (30, "xquery",
     f"for $i in {XMLCOL}"
     "//order[lineitem[@price>100 and @price<200]] return $i", 1),
]

XQUERY_CASES = [entry for entry in PAPER_QUERIES if entry[1] == "xquery"]
SQL_CASES = [entry for entry in PAPER_QUERIES if entry[1] == "sql"]


def _check_item_kinds(body_type, result) -> None:
    """When inference names concrete elements, results must match."""
    kinds = {entry.kind for entry in body_type.items}
    locals_ = {entry.local for entry in body_type.items}
    if kinds != {"element"} or None in locals_:
        return
    for node in result.items:
        assert getattr(node, "kind", None) == "element", (
            f"inferred {body_type} but got non-element {node!r}")
        assert node.name.local in locals_, (
            f"inferred element names {sorted(locals_)} but got "
            f"<{node.name.local}>")


@pytest.mark.parametrize(
    "number,language,query,expected", XQUERY_CASES,
    ids=[f"query{entry[0]}" for entry in XQUERY_CASES])
def test_xquery_bounds_contain_actual_count(indexed_db, number,
                                            language, query, expected):
    inference = infer_module(parse_xquery(query), database=indexed_db)
    body = inference.body_type
    assert body.low >= 0
    if body.high is not None:
        assert body.high >= body.low
    if expected is None:
        return  # a runtime-error query: inference completing is the test
    result = indexed_db.xquery(query)
    assert len(result) == expected  # the fixture invariant itself
    assert body.low <= len(result), (
        f"query {number}: inferred {body.bounds_text()} but counted "
        f"{len(result)}")
    if body.high is not None:
        assert len(result) <= body.high, (
            f"query {number}: inferred {body.bounds_text()} but "
            f"counted {len(result)}")
    _check_item_kinds(body, result)


@pytest.mark.parametrize(
    "number,language,query,expected", XQUERY_CASES,
    ids=[f"query{entry[0]}" for entry in XQUERY_CASES])
def test_xquery_no_false_static_errors(indexed_db, number, language,
                                       query, expected):
    """No paper XQuery contains a *static* error (SE005 statically-
    empty paths are legitimate data-dependent verdicts and excluded)."""
    inference = infer_module(parse_xquery(query), database=indexed_db)
    hard_errors = [finding for finding in inference.diagnostics
                   if finding.severity == "error"
                   and finding.code.code != "SE005"]
    assert hard_errors == [], [str(finding) for finding in hard_errors]


@pytest.mark.parametrize(
    "number,language,query,expected", SQL_CASES,
    ids=[f"query{entry[0]}" for entry in SQL_CASES])
def test_sql_queries_lint_without_errors(indexed_db, number, language,
                                         query, expected):
    findings = lint_statement(query, database=indexed_db, language="sql")
    errors = [finding for finding in findings
              if finding.severity == "error"
              and finding.code.code != "SE005"]
    assert errors == [], [str(finding) for finding in errors]
    result = indexed_db.sql(query)
    assert len(result) == expected


def test_every_paper_query_is_covered():
    numbers = sorted(entry[0] for entry in PAPER_QUERIES)
    assert numbers == list(range(1, 31))


def test_bounds_are_exact_for_column_paths(indexed_db):
    """db2-fn:xmlcolumn paths get *exact* upper bounds from the
    summaries (lows stay 0: filtering can drop any document)."""
    inference = infer_module(
        parse_xquery(f"{XMLCOL}/order/lineitem"), database=indexed_db)
    assert inference.body_type.high == 8   # total lineitems, exactly

    inference = infer_module(
        parse_xquery(f"{XMLCOL}//order"), database=indexed_db)
    assert inference.body_type.high == 7   # one root order per document


def test_xmlcolumn_count_is_the_summary_count_after_deletes(indexed_db):
    """``xmlcolumn('T.C')`` is typed with exactly the column's document
    count, read from the path summary — which must equal the stored
    documents, also after deletes and on a snapshot pinned before them."""
    def inferred(database):
        body = infer_module(parse_xquery(XMLCOL),
                            database=database).body_type
        assert body.low == body.high
        return body.high

    def stored(database):
        return len(database.documents("orders", "orddoc"))

    pinned = indexed_db.snapshot()
    before = stored(indexed_db)
    assert inferred(indexed_db) == before
    indexed_db.delete_rows("orders",
                           lambda values: values["ordid"] % 2 == 0)
    indexed_db.insert("orders", {"ordid": 90, "orddoc": None})
    assert stored(indexed_db) < before
    assert inferred(indexed_db) == stored(indexed_db)
    assert inferred(pinned) == stored(pinned) == before
    indexed_db.delete_rows("orders")
    assert inferred(indexed_db) == stored(indexed_db) == 0


def test_statically_empty_path_is_se005(indexed_db):
    inference = infer_module(
        parse_xquery(f"{XMLCOL}//order/warehouse"), database=indexed_db)
    assert inference.body_type.is_empty
    assert any(finding.code.code == "SE005"
               for finding in inference.diagnostics)
