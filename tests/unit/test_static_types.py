"""Unit tests for the XDM sequence-type lattice (repro.static.types).

The lattice is the foundation under every static verdict: occurrence
arithmetic feeds the planner's cardinality seeds, the §3.1 category
algebra decides incomparability (SE004) and index types (Tip 1).
"""

import pytest

from repro.static.types import (ANY, EMPTY, ItemType, SeqType, atomized,
                                category_of, comparison_categories,
                                concat_type, index_type_for, item,
                                iterate, one, opt, star,
                                statically_incomparable, union_type)

ELEM = item("element", None, "order")
ATTR = item("attribute", None, "price")
DOUBLE = item("xs:double")
STRING = item("xs:string")
DATE = item("xs:date")
UNTYPED = item("xdt:untypedAtomic")


class TestOccurrence:
    def test_exact_bounds_map_to_indicators(self):
        assert SeqType(frozenset({ELEM}), 0, 0).occurrence == "0"
        assert SeqType(frozenset({ELEM}), 1, 1).occurrence == "1"
        assert SeqType(frozenset({ELEM}), 0, 1).occurrence == "?"
        assert SeqType(frozenset({ELEM}), 0, None).occurrence == "*"
        assert SeqType(frozenset({ELEM}), 2, 9).occurrence == "+"

    def test_invalid_bounds_are_clamped(self):
        clamped = SeqType(frozenset({ELEM}), 3, 1)
        assert (clamped.low, clamped.high) == (3, 3)

    def test_display(self):
        assert str(EMPTY) == "empty-sequence()"
        assert str(one(ELEM)) == "element(order)"
        assert str(star([ELEM])) == "element(order)*"
        assert str(opt(DOUBLE)) == "xs:double?"
        assert "|" in str(star([ELEM, ATTR]))

    def test_bounds_text(self):
        assert one(ELEM).bounds_text() == "[1, 1]"
        assert star([ELEM]).bounds_text() == "[0, ∞]"

    def test_helpers(self):
        assert one(ELEM).with_bounds(0, 5).high == 5
        assert one(ELEM).at_least_empty().possibly_empty
        assert EMPTY.is_empty and not one(ELEM).is_empty


class TestLatticeOperations:
    def test_union_takes_widest_bounds(self):
        merged = union_type(one(ELEM), star([ATTR]))
        assert merged.items == frozenset({ELEM, ATTR})
        assert (merged.low, merged.high) == (0, None)

    def test_concat_adds_bounds(self):
        joined = concat_type(one(ELEM), opt(ATTR))
        assert (joined.low, joined.high) == (1, 2)
        assert joined.items == frozenset({ELEM, ATTR})

    def test_concat_with_unbounded_stays_unbounded(self):
        assert concat_type(one(ELEM), star([ELEM])).high is None

    def test_iterate_is_exactly_one_prime(self):
        bound = iterate(SeqType(frozenset({ELEM}), 0, 7))
        assert (bound.low, bound.high) == (1, 1)
        assert iterate(EMPTY).is_empty

    def test_atomized_nodes_become_untyped(self):
        data = atomized(star([ELEM, DOUBLE]))
        assert UNTYPED in data.items and DOUBLE in data.items
        assert not any(entry.is_node for entry in data.items)
        assert atomized(EMPTY).is_empty


class TestComparability:
    def test_categories(self):
        assert category_of(DOUBLE) == "numeric"
        assert category_of(item("xs:integer")) == "numeric"
        assert category_of(STRING) == "string"
        assert category_of(DATE) == "date"
        assert category_of(UNTYPED) == "any"
        assert category_of(ELEM) == "any"

    def test_disjoint_concrete_categories_incomparable(self):
        assert statically_incomparable(one(DOUBLE), one(STRING))
        assert statically_incomparable(one(DOUBLE), one(DATE))
        assert not statically_incomparable(one(DOUBLE),
                                           one(item("xs:integer")))

    def test_comparable_types_follow_the_run_time_rule(self):
        # A date meets a dateTime as a dateTime at run time.
        assert not statically_incomparable(one(DATE),
                                           one(item("xs:dateTime")))
        assert not statically_incomparable(one(item("xs:decimal")),
                                           one(DOUBLE))

    def test_untyped_is_comparable_with_everything(self):
        assert not statically_incomparable(one(UNTYPED), one(DOUBLE))
        assert not statically_incomparable(one(ELEM), one(STRING))

    def test_empty_operand_is_not_an_error(self):
        # An empty sequence makes the comparison empty/false — legal.
        assert not statically_incomparable(EMPTY, one(DOUBLE))

    def test_comparison_categories_atomize_first(self):
        assert comparison_categories(star([ELEM])) == frozenset({"any"})
        assert comparison_categories(one(DOUBLE)) == \
            frozenset({"numeric"})


class TestIndexTypeFor:
    @pytest.mark.parametrize("item_type,expected", [
        (DOUBLE, "DOUBLE"),
        (STRING, "VARCHAR"),
        (DATE, "DATE"),
        (item("xs:dateTime"), "TIMESTAMP"),
    ])
    def test_concrete_single_category(self, item_type, expected):
        assert index_type_for(one(item_type)) == expected

    def test_untyped_yields_none(self):
        """Tip 1: only a provably-typed operand gets an index type."""
        assert index_type_for(one(UNTYPED)) is None
        assert index_type_for(star([ELEM])) is None
        assert index_type_for(ANY) is None

    def test_mixed_categories_yield_none(self):
        assert index_type_for(star([DOUBLE, STRING])) is None


class TestItemType:
    def test_node_and_atomic_split(self):
        assert ELEM.is_node and not ELEM.is_atomic
        assert DOUBLE.is_atomic and not DOUBLE.is_node
        top = item("item")
        assert not top.is_node and not top.is_atomic

    def test_display(self):
        assert str(ELEM) == "element(order)"
        assert str(item("element")) == "element()"
        assert str(item("element", "http://n", "x")) == \
            "element({http://n}x)"
        assert str(item("text")) == "text()"
        assert str(DOUBLE) == "xs:double"
