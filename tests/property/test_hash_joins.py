"""Hash joins answer exactly what the nested loops answer.

Two layers are checked:

* the key functions — ``xdm.compare.equality_keys`` against
  ``general_compare`` / ``value_compare`` and
  ``sql.values.sql_equality_key`` against ``sql_compare`` — over atoms
  chosen to sit on every typing boundary (untyped numerals with blanks,
  NaN, INF, ``-0``, typed strings next to numbers, booleans, dates);
* whole statements — FLWOR value joins and SQL equality joins over
  random collections, with hash joins and with the nested loops of the
  reference plan (``use_indexes=False``): the same items in the same
  order, or the same error.
"""

from __future__ import annotations

import datetime as dt
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.querycache import compile_query
from repro.errors import ReproError, SQLError
from repro.sql.values import sql_compare, sql_equality_key
from repro.xdm import atomic
from repro.xdm.compare import (equality_keys, general_compare,
                               keys_may_raise, value_compare)
from repro.xmlio.serializer import serialize
from repro.xquery.evaluator import evaluate_module

LEXICAL = ["17", " 17 ", "17.0", "1.7e1", "0", "-0", "NaN", "INF", "abc",
           "", "17 ", "2", "0.1", "149.87"]

atoms = st.one_of(
    st.sampled_from(LEXICAL).map(atomic.untyped),
    st.sampled_from(LEXICAL).map(atomic.string),
    st.integers(min_value=-3, max_value=20).map(atomic.integer),
    # 0.1 and 149.87 are no exact doubles: a decimal meets a double as
    # a double, and another decimal exactly.
    st.sampled_from(["17", "17.00", "0.5", "-0", "0.1", "149.87",
                     "0.1000000000000000000001"]).map(atomic.decimal),
    st.sampled_from([17.0, 0.5, -0.0, 0.1, 149.87, float("nan"),
                     float("inf")]).map(atomic.double),
    st.booleans().map(atomic.boolean),
    st.just(atomic.date(dt.date(2006, 9, 12))),
)
operands = st.lists(atoms, max_size=3)


def _truth(compare, left, right):
    """(result, error code) of one comparison."""
    try:
        return compare(left, right), None
    except ReproError as error:
        return None, getattr(error, "code", type(error).__name__)


def _general(left, right):
    return general_compare("=", left, right)


def _eq(left, right):
    result = value_compare("eq", left, right)
    return bool(result) and bool(result[0].value)


UNIVERSE = ([atomic.untyped(text) for text in LEXICAL]
            + [atomic.string(text) for text in LEXICAL]
            + [atomic.integer(value) for value in (0, 2, 17)]
            + [atomic.decimal(text) for text in (
                "17", "17.00", "-0", "0.1", "149.87",
                "0.1000000000000000000001")]
            + [atomic.double(value) for value in (17.0, -0.0, 2.0, 0.1,
                                                   149.87, float("nan"),
                                                   float("inf"))]
            + [atomic.integer(2 ** 53), atomic.integer(2 ** 53 + 1),
               atomic.double(2.0 ** 53)]
            + [atomic.boolean(True),
               atomic.date(dt.date(2006, 9, 12))])


def test_keys_decide_every_atom_pair():
    """Every pair of boundary atoms, both operators, both build sides:
    keys meet iff the comparison is true whenever the classes say it
    cannot raise."""
    for general, compare in ((True, _general), (False, _eq)):
        for left in UNIVERSE:
            for right in UNIVERSE:
                probe_keys, probe_flags = equality_keys([left], general,
                                                        build=False)
                build_keys, build_flags = equality_keys([right], general,
                                                        build=True)
                if keys_may_raise(probe_flags, build_flags, general):
                    continue
                result, error = _truth(compare, [left], [right])
                assert error is None, (left, right, general)
                assert result == bool(probe_keys & build_keys), \
                    (left, right, general)


@settings(max_examples=600, deadline=None)
@given(operands, operands, st.booleans())
def test_keys_decide_every_comparison_they_claim(left, right, general):
    """Keys meet iff the comparison is true, whenever the classes say
    it cannot raise — with either operand on the build side."""
    compare = _general if general else _eq
    for probe, build in ((left, right), (right, left)):
        probe_keys, probe_flags = equality_keys(probe, general, build=False)
        build_keys, build_flags = equality_keys(build, general, build=True)
        if keys_may_raise(probe_flags, build_flags, general):
            continue
        result, error = _truth(compare, left, right)
        assert error is None
        assert result == bool(probe_keys & build_keys)


@settings(max_examples=300, deadline=None)
@given(operands, operands, st.booleans())
def test_a_key_match_is_never_a_false_positive(left, right, general):
    """Even where the classes clash, meeting keys mean an equal pair
    exists: the comparison is true or raises, never false."""
    compare = _general if general else _eq
    probe_keys, _flags = equality_keys(left, general, build=False)
    build_keys, _flags = equality_keys(right, general, build=True)
    if probe_keys & build_keys:
        result, error = _truth(compare, left, right)
        assert result is not False or error is not None


sql_values = st.one_of(
    st.none(),
    st.sampled_from(["a", "a  ", " a", "", "17"]),
    st.integers(min_value=-2, max_value=20),
    st.sampled_from([17.0, 0.5, float("nan"), float("inf")]),
    st.sampled_from([Decimal("17"), Decimal("17.00"), Decimal("0.5")]),
    st.booleans(),
    st.just(dt.date(2006, 9, 12)),
    st.just(dt.datetime(2006, 9, 12)),
)


@settings(max_examples=400, deadline=None)
@given(sql_values, sql_values)
def test_sql_keys_match_sql_compare(left, right):
    left_class, left_key = sql_equality_key(left)
    right_class, right_key = sql_equality_key(right)
    if "null" in (left_class, right_class):
        assert sql_compare("=", left, right) is None
    elif left_class != right_class or "x" in (left_class, right_class):
        try:
            sql_compare("=", left, right)
        except SQLError:
            pass   # the clash the executor hands to the WHERE clause
    else:
        table = {} if left_key is None else {(left_class, left_key): True}
        assert sql_compare("=", left, right) == \
            table.get((right_class, right_key), False)


# ---------------------------------------------------------------------------
# Whole statements: hash join vs nested loop
# ---------------------------------------------------------------------------

keys = st.lists(st.sampled_from(["1", "2", " 2", "2.0", "x", "NaN", "0.1",
                                 "149.87"]),
                max_size=2)
documents = st.lists(keys, min_size=0, max_size=5)


def _xml(root: str, position: int, values: list[str]) -> str:
    children = "".join(f"<k>{value}</k>" for value in values)
    first = f' a="{values[0]}"' if values else ""
    return f'<{root} id="{position}"{first}>{children}</{root}>'


def _flwor_db(left_docs, right_docs) -> Database:
    database = Database(index_order=4)
    database.create_table("l", [("d", "XML")])
    database.create_table("r", [("d", "XML")])
    for position, values in enumerate(left_docs):
        database.insert("l", {"d": _xml("x", position, values)})
    for position, values in enumerate(right_docs):
        database.insert("r", {"d": _xml("y", position, values)})
    return database


_L = "db2-fn:xmlcolumn('L.D')/x"
_R = "db2-fn:xmlcolumn('R.D')/y"
_RETURN = "return concat($a/@id, ':', $b/@id)"
FLWOR_JOINS = [
    f"for $a in {_L} for $b in {_R} where $a/k = $b/k {_RETURN}",
    f"for $a in {_L} for $b in {_R} where $b/k = $a/k {_RETURN}",
    f"for $a in {_L} for $b in {_R} where $a/@a eq $b/@a {_RETURN}",
    f"for $a in {_L} for $b in {_R} where $a/k eq $b/k {_RETURN}",
    f"for $a in {_L} for $b in {_R} "
    f"where $a/k/xs:double(.) = $b/k/xs:double(.) {_RETURN}",
    f"for $a in {_L} for $b in {_R} "
    f"where $a/k/xs:decimal(.) = $b/k/xs:double(.) {_RETURN}",
    f"for $a in {_L} for $b in {_R} where $a/k = $b/k/string(.) "
    f"and $b/@id != '1' {_RETURN}",
    f"for $a in {_L} for $b in {_R} where $a/k = 2 and $a/k = $b/k "
    f"{_RETURN}",
    f"for $a in {_L} for $b at $p in {_R} where $a/@a = $b/@a "
    f"order by $p descending return concat($a/@id, ':', $p)",
    f"for $a in {_L} let $k := $a/k for $b in {_R} where $k = $b/k "
    f"{_RETURN}",
    f"for $a in {_L} for $b in {_R} where $a/k = $b/k "
    f"return ($a/@id, $b/k)",
    f"for $a in {_L} for $b in {_R} where $a/@a/string(.) = "
    f"$b/k/number(.) {_RETURN}",
    # Loops whose inner sequence is evaluated once:
    f"for $a in {_L} for $b in {_R} where $a/k < $b/k {_RETURN}",
    f"for $a in {_L} for $b in {_R} {_RETURN}",
]


def _outcome(run):
    try:
        return run()
    except ReproError as error:
        return ("error", getattr(error, "code", None),
                getattr(error, "sqlstate", None))


def _evaluate(database, query, plan_joins):
    """The evaluator alone, so only the join strategy differs (a full
    ``use_indexes`` route may also prune a statically empty column,
    which turns a would-be error into an empty answer)."""
    module = compile_query(query).module
    return _outcome(lambda: [serialize(item) for item in evaluate_module(
        module, database=database, plan_joins=plan_joins)])


@settings(max_examples=60, deadline=None)
@given(documents, documents)
def test_flwor_hash_joins_equal_nested_loops(left, right):
    database = _flwor_db(left, right)
    for query in FLWOR_JOINS:
        assert _evaluate(database, query, True) == \
            _evaluate(database, query, False), query


@settings(max_examples=30, deadline=None)
@given(documents, documents)
def test_indexed_route_agrees_with_the_reference_plan(left, right):
    """``use_indexes=True`` (semi-join prefilters + hash joins) against
    ``use_indexes=False`` (scans + nested loops), on answers."""
    database = _flwor_db(left, right)
    database.create_xml_index("lk", "l", "d", "//k", "DOUBLE")
    database.create_xml_index("rk", "r", "d", "//k", "DOUBLE")
    for query in FLWOR_JOINS:
        fast = _outcome(lambda: database.xquery(query).serialize())
        slow = _outcome(lambda: database.xquery(
            query, use_indexes=False).serialize())
        if isinstance(fast, list) and isinstance(slow, list):
            assert fast == slow, query


sql_rows = st.lists(
    st.tuples(st.sampled_from([None, "a", "a ", "b", "17"]),
              st.sampled_from([None, 1, 2, 2.0, Decimal("2.00")]),
              keys),
    max_size=5)

SQL_JOINS = [
    "SELECT l.id, r.id FROM l, r WHERE l.s = r.s",
    "SELECT l.id, r.id FROM l, r WHERE r.n = l.n",
    "SELECT l.id, r.id FROM l, r WHERE l.n = r.n AND l.id <> 1",
    "SELECT l.id, r.id FROM l, r WHERE l.n = r.n AND l.s = r.n",
    "SELECT l.id, r.id FROM l, r WHERE l.s = r.n",
    "SELECT l.id, r.id, m.id FROM l, r, l m "
    "WHERE l.n = r.n AND m.s = r.s",
    "SELECT l.id, r.id FROM l, r WHERE "
    "XMLCast(XMLQuery('$d/x/k' passing l.d as \"d\") as DOUBLE) = "
    "XMLCast(XMLQuery('$d/x/k' passing r.d as \"d\") as DOUBLE)",
    "SELECT l.id, r.id FROM l, r WHERE "
    "XMLCast(XMLQuery('$d/x/@a' passing l.d as \"d\") as VARCHAR(4)) "
    "= r.s",
    "SELECT r.id, COUNT(*) FROM l, r WHERE l.s = r.s GROUP BY r.id",
]


def _sql_db(left, right) -> Database:
    database = Database(index_order=4)
    for name, rows in (("l", left), ("r", right)):
        database.create_table(name, [("id", "INTEGER"), ("s", "VARCHAR(4)"),
                                     ("n", "DOUBLE"), ("d", "XML")])
        for position, (text, number, values) in enumerate(rows):
            database.insert(name, {"id": position, "s": text, "n": number,
                                   "d": _xml("x", position, values)})
    return database


def _sql(database, statement, use_indexes):
    return _outcome(lambda: database.sql(
        statement, use_indexes=use_indexes).serialize_rows())


@settings(max_examples=60, deadline=None)
@given(sql_rows, sql_rows)
def test_sql_hash_joins_equal_nested_loops(left, right):
    database = _sql_db(left, right)
    for statement in SQL_JOINS:
        assert _sql(database, statement, True) == \
            _sql(database, statement, False), statement
