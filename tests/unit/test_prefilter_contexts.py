"""Definition 1 at the FLWOR's edges: where a path's emptiness does not
drop its binding, no index may prefilter documents.

A path returned as it is (or a nested FLWOR's return) is empty exactly
when its binding contributes nothing.  Inside a function call, a
sequence, arithmetic, a comparison operand or an order key it is a
value the binding keeps either way; after ``for … at $p`` dropping a
document renumbers the positions; a where clause upgrades a let only
for a variable whose empty sequence makes it false (not under ``not``,
``empty`` or ``or``).  Each query here answered differently
with indexes before these rules, on the same fixture.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.eligibility import analyze_candidates
from repro.core.predicates import PredicateContext
from repro.core.querycache import compile_query
from repro.errors import ReproError
from repro.workload import populate_paper_schema

_O = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


@pytest.fixture(scope="module")
def database() -> Database:
    database = Database()
    populate_paper_schema(database, orders=60, customers=8, products=10,
                          seed=7)
    return database


def _outcome(database, query: str, use_indexes: bool = True):
    try:
        return database.xquery(query, use_indexes=use_indexes).serialize()
    except ReproError as error:
        return type(error).__name__, getattr(error, "code", None)


def _contexts(query: str) -> set[PredicateContext]:
    return {candidate.context
            for candidate in compile_query(query).candidates}


@pytest.mark.parametrize("query, items", [
    (f"for $o in {_O}/order return count($o/lineitem[@price > 100])", 60),
    (f"for $d in {_O} return count($d/order[custid = 3])", 60),
    (f"for $d in {_O} return string($d/order[custid = 3]/custid)", 60),
    (f"for $d in {_O} return (1, $d/order[custid = 3])", 71),
    (f"for $d in {_O} return count(for $o in $d/order[custid = 3] "
     f"return $o)", 60),
    (f"for $d in {_O} return <r>{{for $o in $d/order[custid = 3] "
     f"return $o}}</r>", 60),
    (f"for $d in {_O} order by $d/order[custid = 3]/custid "
     f"return $d/order/@id", 60),
    (f"for $d in {_O} let $x := ($d/order[custid = 3], 1) where $x "
     f"return $d/order/@id", 60),
    (f"for $d in {_O} let $x := (let $y := $d/order[custid = 3] "
     f"return 1) where $x return $d/order/@id", 60),
    (f"for $d in {_O} let $x := $d/order[custid = 3] where not($x) "
     f"return $d/order/@id", 49),
    (f"for $d in {_O} let $x := $d/order[custid = 3] where empty($x) "
     f"return $d/order/@id", 49),
    (f"for $d in {_O} let $x := $d/order[custid = 3] where $x or "
     f"$d/order/custid = 1 return $d/order/@id", 16),
    (f"for $d in {_O} where empty($d/order[custid = 3]) "
     f"return $d/order/@id", 49),
    (f"{_O}/order[count(lineitem[@price > 100]) = 0]/@id", 14),
])
def test_a_kept_value_does_not_prefilter(database, query, items):
    indexed = _outcome(database, query)
    assert indexed == _outcome(database, query, use_indexes=False)
    assert len(indexed) == items


def test_no_clause_after_a_positional_variable_prefilters(database):
    query = (f"for $i at $p in {_O}/order/lineitem where $i/@price > 100 "
             f"return $p")
    indexed = _outcome(database, query)
    assert indexed == _outcome(database, query, use_indexes=False)
    assert _contexts(query) == {PredicateContext.AFTER_POSITION}
    report = analyze_candidates(database, list(
        compile_query(query).candidates), query, "xquery")
    assert "POSITION" in report.explain()


@pytest.mark.parametrize("query", [
    f"for $d in {_O} return $d/order[custid = 3]",
    f"for $d in {_O} return for $o in $d/order[custid = 3] return $o",
    f"for $d in {_O} let $x := $d/order[custid = 3] where $x return $d",
    f"for $d in {_O} let $x := $d/order[custid = 3] where exists($x) "
    f"return $d",
    f"for $d in {_O} let $x := $d/order where $x/custid = 3 return $d",
    f"for $d in {_O} let $x := (for $o in $d/order where $o/custid = 3 "
    f"return $o) where $x return $d",
    f"for $i at $p in {_O}/order/lineitem[@price > 100] return $p",
])
def test_a_path_as_it_is_still_filters(database, query):
    """Bind-out, nested FLWOR returns and Query 21's let-with-where keep
    their filtering contexts, and the answers stay the reference's."""
    assert not _contexts(query) & {PredicateContext.KEPT_VALUE,
                                   PredicateContext.AFTER_POSITION}
    assert database.xquery(query).stats.index_scans >= 1
    assert _outcome(database, query) == _outcome(database, query,
                                                 use_indexes=False)


@pytest.mark.parametrize("query", [
    f"for $d in {_O} let $p := $d//lineitem/@price where $p eq 99.5 "
    f"return $d/order/custid",
    f"for $d in {_O} let $l := $d//lineitem where $l/@price eq 99.5 "
    f"return $d/order/custid",
])
def test_a_value_comparison_over_a_let_variable_is_not_probed(database,
                                                              query):
    """A let variable holds a sequence: ``eq`` over it raises on a
    document with two prices, so no probe may drop that document."""
    result = _outcome(database, query)
    assert result == _outcome(database, query, use_indexes=False)
    assert result[0] == "XQueryTypeError"
    assert database.xquery(query.replace(" eq ", " = ")).stats \
        .index_scans >= 1
    assert "from a let variable" in database.explain(query)
