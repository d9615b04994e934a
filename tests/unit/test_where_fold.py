"""Folding ``for $x in P where $x/rel op c`` into ``for $x in P[rel op c]``:
which where clauses fold, the rule EXPLAIN names for each one that
stays, and that p5's shape then evaluates no where clause at all when an
exact index probe answers its nodes."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.querycache import clear_cache, compile_query
from repro.errors import ReproError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.workload import populate_paper_schema
from repro.xquery import evaluator
from repro.xquery.joins import (flwor_fold_report, flwor_join_report,
                                plan_flwor)

_O = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"
_C = "db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer"
_J1 = (f"for $i in {_O} for $j in {_C} where $i/custid/xs:double(.) = "
       f"$j/id/xs:double(.) return $i")
_P5 = (f"for $i in {_O}/lineitem where $i/product/id = 'P00003' "
       f"return $i/@price")


@pytest.fixture(scope="module")
def database() -> Database:
    database = Database()
    populate_paper_schema(database, orders=60, customers=8, products=10,
                          seed=7)
    database.create_xml_index("li_prod_id", "orders", "orddoc",
                              "//lineitem/product/id", "VARCHAR")
    return database


def _folds(query: str) -> list[str]:
    return flwor_fold_report(compile_query(query).module)


def _outcome(database, query: str, use_indexes: bool = True):
    """The answer, or the error's class and code."""
    try:
        return database.xquery(query, use_indexes=use_indexes).serialize()
    except ReproError as error:
        return type(error).__name__, getattr(error, "code", None)


class TestFoldRefusals:
    @pytest.mark.parametrize("query, reason", [
        (f"for $i at $p in {_O}/lineitem where $i/@price > 100 "
         f"return $i", "for $i has a positional variable"),
        (f"for $i in {_O} for $j in $i/lineitem where $j/@price = "
         f"$i/custid return $j",
         "the other side is not a literal or a variable"),
        (f"for $i in {_O}/lineitem where $i/@price > position() "
         f"return $i", "the where clause reads the focus"),
        (f"for $i in {_O} where $i/custid = . return $i",
         "the where clause reads the focus"),
        (f"for $i in {_O} where exists($i/custid) return $i",
         "the where clause is not one comparison"),
        (f"for $i in {_O} where $i/custid = 1 and $i/custid = 2 "
         f"return $i", "the where clause is not one comparison"),
        (f"for $i in {_O} where $i//@price > 100 return $i",
         "not exactly one side is $i or $i/…"),
        (f"for $i in {_O} where $i/lineitem[1]/@price > 100 return $i",
         "not exactly one side is $i or $i/…"),
        (f"for $i in {_O} where $i/custid = $i/custid return $i",
         "not exactly one side is $i or $i/…"),
        ("for $i in (1, 2) where $i = 1 return $i",
         "the for sequence is not a path ending in an axis step"),
    ])
    def test_the_where_clause_stays_and_explain_names_the_rule(
            self, database, query, reason):
        (line,) = _folds(query)
        assert line.startswith("where clause kept after for $")
        assert reason in line
        module = compile_query(query).module
        assert not plan_flwor(module.body, module.prolog).folds
        assert _outcome(database, query) == _outcome(database, query,
                                                     use_indexes=False)

    def test_j1_stays_a_hash_join(self):
        assert _folds(_J1) == [
            "where clause kept after for $j: not exactly one side is $j "
            "or $j/… over child and attribute name steps without "
            "predicates"]
        (line,) = flwor_join_report(compile_query(_J1).module)
        assert line.startswith("hash join for $j:")

    def test_a_hash_join_applies_a_constant_where_clause(self):
        query = f"for $i in {_O} for $j in {_C} where $j/id = 1 return $i"
        assert _folds(query) == [
            "where clause kept after for $j: the hash join for $j "
            "applies it"]


class TestFolds:
    @pytest.mark.parametrize("where", [
        "$i/product/id = 'P00003'", "'P00003' = $i/product/id",
        "$i/@price > 100", "$i/@price eq 100", "$i = 'x'",
        "$i/@price > $v"])
    def test_a_comparison_of_rel_with_an_operand_folds(self, database,
                                                       where):
        query = (f"let $v := 10 for $i in {_O}/lineitem where {where} "
                 f"return $i")
        assert _folds(query) == [
            "where clause folded into for $i: its comparison filters the "
            "sequence's last step"]
        assert _outcome(database, query) == _outcome(database, query,
                                                     use_indexes=False)

    @pytest.mark.parametrize("operand", [
        "()", "(1, 100)", "'P00003'", "xs:untypedAtomic(' 100 ')",
        "xs:date('2006-01-01')"])
    def test_a_variable_operand_answers_as_the_where_clause(
            self, database, operand):
        for op in ("=", "<", "eq"):
            query = (f"let $v := {operand} for $i in {_O}/lineitem "
                     f"where $i/@price {op} $v return $i/product/id")
            assert _outcome(database, query) == _outcome(
                database, query, use_indexes=False), query

    def test_explain_names_the_fold_and_the_node_answers(self, database):
        text = database.explain(_P5)
        assert "index li_prod_id answers nodes for " \
               "/order/lineitem/product/id = 'P00003'" in text
        assert "  where clause folded into for $i:" in text

    def test_a_two_step_value_comparison_is_not_probed(self, database):
        text = database.explain(
            f"for $i in {_O}/lineitem where $i/product/id eq 'P00003' "
            f"return $i")
        assert ("note: index li_prod_id not probed for "
                "/order/lineitem/product/id eq 'P00003': 'eq' compares a "
                "path that is not one child or attribute step") in text


def test_p5_evaluates_its_where_clause_zero_times(database, monkeypatch):
    """Counts the closures the where clause's comparison lowers to: the
    reference plan runs one per lineitem, the node-answer route none."""
    calls = []
    lower = evaluator._Lowering._general_comparison

    def counting(self, expr):
        test = lower(self, expr)

        def counted(ctx):
            calls.append(expr)
            return test(ctx)
        return counted

    monkeypatch.setattr(evaluator._Lowering, "_general_comparison",
                        counting)
    clear_cache()
    try:
        reference = database.xquery(_P5, use_indexes=False).serialize()
        lineitems = len(database.xquery(f"{_O}/lineitem").items)
        assert len(calls) == lineitems
        calls.clear()
        with enabled_metrics():
            answered = database.xquery(_P5)
            assert answered.serialize() == reference and reference
            assert calls == []
            survivors = METRICS.counter("docs.scanned")
            assert METRICS.counter("index.node_answers") == survivors > 0
            assert METRICS.counter("pathsummary.column_predicates") == 1
    finally:
        clear_cache()
