"""Every SQL/XML statement answers alike on every route.

A statement is lowered once and its closures are cached per catalog
epoch (``repro.core.querycache.compile_statement``), so the routes a
text can take multiplied: first (lowering) vs cached execution, with
and without indexes, against the live database or a pinned snapshot,
before and after DDL, and from many threads sharing one cached plan.
For the paper's SQL statements and the benchmark's SQL templates
(re-stated here over the paper fixture), each route must return
byte-identical rows — or the same SQLSTATE.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database
from repro.core.querycache import cache_info
from repro.errors import ReproError
from repro.workload.paperqueries import PAPER_QUERIES, load_paper_fixture

_PASSING = 'passing orddoc as "order"'
_LINEITEMS = "XMLQuery('$order//lineitem' passing o.orddoc as \"order\")"

#: The benchmark's SQL templates (probe p6-p8, scan s7-s8, join j2-j4
#: and the write workload's reads), with the fixture's constants.
TEMPLATES = [
    f"SELECT ordid, orddoc FROM orders WHERE XMLExists("
    f"'$order//lineitem[@price > 95]' {_PASSING})",
    f"SELECT ordid, XMLQuery('$order//lineitem[@price > 95]' {_PASSING}) "
    f"FROM orders WHERE XMLExists('$order//lineitem[@price > 95]' "
    f"{_PASSING})",
    "SELECT o.ordid, t.lineitem FROM orders o, XMLTable("
    "'$order//lineitem[@price > 95]' passing o.orddoc as \"order\" "
    "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
    f"SELECT XMLQuery('$order//lineitem[@price > 95]' {_PASSING}) "
    f"FROM orders",
    "SELECT o.ordid, t.lineitem, t.price FROM orders o, XMLTable("
    "'$order//lineitem' passing o.orddoc as \"order\" COLUMNS "
    "\"lineitem\" XML BY REF PATH '.', \"price\" DECIMAL(6,3) "
    "PATH '@price[. > 95]') as t(lineitem, price)",
    f"SELECT p.name, {_LINEITEMS} FROM products p, orders o WHERE "
    f"XMLExists('$order//lineitem/product[id eq $pid]' passing "
    f"o.orddoc as \"order\", p.id as \"pid\")",
    f"SELECT c.cid, {_LINEITEMS} FROM orders o, customer c WHERE "
    f"XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as "
    f"\"order\") as DOUBLE) = XMLCast(XMLQuery('$cust/customer/id' "
    f"passing c.cdoc as \"cust\") as DOUBLE)",
    f"SELECT c.cid, {_LINEITEMS} FROM customer c, orders o WHERE "
    f"XMLExists('$order/order[custid/xs:double(.) = "
    f"$cust/customer/id/xs:double(.)]' passing o.orddoc as \"order\", "
    f"c.cdoc as \"cust\")",
]

#: One prefilter per FROM alias: a disjunction unions its branches'
#: probes (or filters nothing), a join probe skips a disjunct, a merged
#: between pair admits what either bound admits, a value comparison over
#: two steps is not probed, fn:between is no comparison to decide, and
#: a body reading one column through two aliases filters neither.
PLANNER_TEMPLATES = [
    f"SELECT ordid FROM orders WHERE XMLExists("
    f"'$order/order[custid = 1001 or custid = 1002]' {_PASSING})",
    "SELECT o.ordid, t.c FROM orders o, XMLTable("
    "'$order/order[custid = 1001 or custid = 1002]' passing o.orddoc as "
    "\"order\" COLUMNS \"c\" XML BY REF PATH 'custid') as t(c)",
    f"SELECT ordid FROM orders WHERE XMLExists("
    f"'$order/order[custid = 1003 or lineitem/@price = 150]' {_PASSING})",
    "SELECT c.cid, o.ordid FROM customer c, orders o WHERE XMLExists("
    "'$order/order[custid = $cust/customer/id or lineitem/@price = 150]' "
    "passing o.orddoc as \"order\", c.cdoc as \"cust\")",
    f"SELECT ordid FROM orders WHERE XMLExists('$order/order[(custid = "
    f"1001 or custid = 1002) and lineitem/@price = 150]' {_PASSING})",
    f"SELECT ordid FROM orders WHERE XMLExists("
    f"'$order//lineitem[@price gt 100.0 and @price lt 200.0]' {_PASSING})",
    f"SELECT ordid FROM orders WHERE XMLExists("
    f"'$order/order[lineitem/@price eq 99.5]' {_PASSING})",
    f"SELECT ordid FROM orders WHERE XMLExists("
    f"'$order//lineitem[between(@price, 100, 200)]' {_PASSING})",
    "SELECT a.ordid, b.ordid FROM orders a, orders b WHERE XMLExists("
    "'$x/order[custid = 1001 and $y/order/custid = 1002]' passing "
    "a.orddoc as \"x\", b.orddoc as \"y\")",
]

STATEMENTS = {f"q{number}": text
              for number, (kind, text) in sorted(PAPER_QUERIES.items())
              if kind == "sql"}
STATEMENTS.update({f"t{position}": text
                   for position, text in enumerate(TEMPLATES, 1)})
STATEMENTS.update({f"u{position}": text
                   for position, text in enumerate(PLANNER_TEMPLATES, 1)})


def outcome(view, text: str, use_indexes: bool = True):
    """The rows as text, or the error's SQLSTATE (or XQuery code)."""
    try:
        result = view.sql(text, use_indexes=use_indexes)
    except ReproError as error:
        return ("error", getattr(error, "sqlstate", None)
                or getattr(error, "code", None) or type(error).__name__)
    return ("rows", result.columns, result.serialize_rows())


@pytest.fixture()
def database() -> Database:
    database = Database()
    load_paper_fixture(database, with_indexes=True)
    return database


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_first_cached_and_reference_runs_agree(database, name):
    text = STATEMENTS[name]
    first = outcome(database, text)
    before = cache_info()
    cached = outcome(database, text)
    after = cache_info()
    assert first == cached
    # The second run found the lowered statement: no parse, no lowering.
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert outcome(database, text, use_indexes=False) == first


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_a_pinned_snapshot_keeps_its_answer(database, name):
    text = STATEMENTS[name]
    expected = outcome(database, text)
    snapshot = database.snapshot()
    # DML (same catalog epoch: the live database and the snapshot share
    # one cached plan) and DDL (a new epoch for the live database only).
    database.insert("orders", {
        "ordid": 99, "orddoc": "<order><custid>1001</custid><lineitem "
        "price=\"500\"><product><id>17</id></product></lineitem></order>"})
    database.execute("DROP INDEX li_price")
    for use_indexes in (True, False):
        assert outcome(snapshot, text, use_indexes) == expected


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_index_ddl_between_two_runs(database, name):
    text = STATEMENTS[name]
    before = outcome(database, text)
    for ddl in ("DROP INDEX li_price",
                "CREATE INDEX li_price2 ON orders(orddoc) USING "
                "XMLPATTERN '//lineitem/@price' AS DOUBLE",
                "CREATE INDEX prod_id ON products(id)",
                "DROP INDEX prod_id"):
        database.execute(ddl)
        assert outcome(database, text) == before, ddl
        assert outcome(database, text, use_indexes=False) == before, ddl


def test_a_recreated_table_is_lowered_again(database):
    by_name = "SELECT name FROM products WHERE id = '17'"
    by_title = "SELECT title FROM products WHERE id = '17'"
    assert outcome(database, by_name)[0] == "rows"
    assert outcome(database, by_title) == ("error", "42703")
    database.execute("DROP TABLE products")
    database.execute("CREATE TABLE products (id VARCHAR(13), "
                     "title VARCHAR(32), name INTEGER)")
    database.insert("products", {"id": "17", "title": "Widget",
                                 "name": 5})
    for use_indexes in (True, False):
        assert outcome(database, by_title, use_indexes) == (
            "rows", ["title"], [("Widget",)])
        assert outcome(database, by_name, use_indexes) == (
            "rows", ["name"], [(5,)])
    database.execute("DROP TABLE products")
    database.execute("CREATE TABLE products (id VARCHAR(13))")
    for use_indexes in (True, False):
        assert outcome(database, by_title, use_indexes) == ("error",
                                                            "42703")


@pytest.mark.parametrize("name", ["q13", "q15", "t5"])
def test_threads_share_one_cached_statement(database, name):
    """A hash join (q15), an index nested loop (q13) and XMLTABLE (t5)
    run from 8 threads at once: per-execution state lives in the run,
    never on the cached plan."""
    text = STATEMENTS[name]
    expected = outcome(database, text)
    answers: list = []
    errors: list = []

    def worker() -> None:
        try:
            for _ in range(5):
                answers.append(outcome(database, text))
        except BaseException as exc:  # noqa: BLE001 - collect all
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert answers == [expected] * 40
