"""Unit tests for XQuery comparison semantics (§3.1, §3.3, §3.10)."""

import pytest

from repro.errors import XQueryTypeError
from repro.xdm import atomic
from repro.xdm.compare import general_compare, node_compare, value_compare
from repro.xdm.nodes import AttributeNode, ElementNode, TextNode
from repro.xdm.qname import QName


def _attr(value: str) -> AttributeNode:
    return AttributeNode(QName("", "price"), value)


class TestGeneralComparison:
    def test_untyped_vs_number_is_numeric(self):
        # '@price > 100' with untyped "99.50": numeric comparison.
        assert not general_compare(">", [_attr("99.50")],
                                   [atomic.integer(100)])
        assert general_compare(">", [_attr("150")], [atomic.integer(100)])

    def test_untyped_vs_string_is_string(self):
        # Query 3: '@price > "100"' compares as strings: "90" > "100".
        assert general_compare(">", [_attr("90")], [atomic.string("100")])
        assert general_compare(">", [_attr("20 USD")],
                               [atomic.string("100")])

    def test_untyped_vs_untyped_is_string(self):
        assert general_compare(">", [_attr("9")], [_attr("10")])

    def test_failed_untyped_cast_is_nonmatch(self):
        # '20 USD' > 100 does not raise (DB2/optimization semantics).
        assert not general_compare(">", [_attr("20 USD")],
                                   [atomic.integer(100)])

    def test_typed_incompatible_raises(self):
        with pytest.raises(XQueryTypeError):
            general_compare("=", [atomic.string("1")], [atomic.integer(1)])

    def test_existential_over_sequences(self):
        # §3.10: one price of 250 and one of 50 satisfy >100 and <200.
        prices = [_attr("250"), _attr("50")]
        assert general_compare(">", prices, [atomic.integer(100)])
        assert general_compare("<", prices, [atomic.integer(200)])

    def test_empty_sequence_is_false(self):
        assert not general_compare("=", [], [atomic.integer(1)])
        assert not general_compare("!=", [], [atomic.integer(1)])

    def test_scientific_notation_numeric_equality(self):
        # §3.1's "10E3 = 1000" rule: scientific notation equals the
        # plain spelling numerically but not as strings.
        assert general_compare("=", [_attr("1E3")],
                               [atomic.integer(1000)])
        assert not general_compare("=", [_attr("1E3")],
                                   [atomic.string("1000")])

    def test_trailing_blanks_significant(self):
        # §3.3: unlike SQL, trailing blanks matter in XQuery.
        assert not general_compare("=", [atomic.string("a ")],
                                   [atomic.string("a")])

    def test_nan_comparisons(self):
        nan = atomic.double(float("nan"))
        assert not general_compare("=", [nan], [nan])
        assert general_compare("!=", [nan], [nan])

    def test_date_comparison(self):
        import datetime as dt
        earlier = atomic.date(dt.date(2006, 1, 1))
        later = atomic.date(dt.date(2006, 9, 12))
        assert general_compare("<", [earlier], [later])

    def test_untyped_vs_date(self):
        import datetime as dt
        assert general_compare("=", [_attr("2006-09-12")],
                               [atomic.date(dt.date(2006, 9, 12))])


class TestValueComparison:
    def test_requires_singletons(self):
        with pytest.raises(XQueryTypeError):
            value_compare("gt", [_attr("1"), _attr("2")],
                          [atomic.integer(0)])

    def test_empty_propagates(self):
        assert value_compare("eq", [], [atomic.integer(1)]) == []

    def test_untyped_vs_number_is_numeric(self):
        result = value_compare("gt", [_attr("150")], [atomic.integer(100)])
        assert result[0].value is True

    def test_untyped_vs_string(self):
        result = value_compare("eq", [_attr("17")], [atomic.string("17")])
        assert result[0].value is True

    def test_untyped_pair_compares_as_string(self):
        result = value_compare("lt", [_attr("9")], [_attr("10")])
        assert result[0].value is False  # "9" < "10" is false as strings

    def test_failed_cast_raises(self):
        from repro.errors import CastError
        with pytest.raises(CastError):
            value_compare("gt", [_attr("20 USD")], [atomic.integer(100)])

    def test_all_operators(self):
        one, two = atomic.integer(1), atomic.integer(2)
        assert value_compare("lt", [one], [two])[0].value
        assert value_compare("le", [one], [one])[0].value
        assert value_compare("gt", [two], [one])[0].value
        assert value_compare("ge", [two], [two])[0].value
        assert value_compare("ne", [one], [two])[0].value
        assert not value_compare("eq", [one], [two])[0].value


class TestDoubleMixedPrecision:
    """An integer or decimal meeting a double compares as a double
    (XQuery 1.0 B.2).  A DOUBLE index keys on doubles, so only this rule
    lets the index and the scan agree (Definition 1); the price is the
    §3.6 hazard 2: integers above 2**53 collide with their nearest
    double, in comparisons as in arithmetic."""

    BIG = 2 ** 53

    def test_integer_above_2_53_equals_its_nearest_double(self):
        big_int = atomic.integer(self.BIG + 1)
        near_double = atomic.double(float(self.BIG))
        assert value_compare("eq", [big_int], [near_double])[0].value
        assert not value_compare("ne", [big_int], [near_double])[0].value
        assert general_compare("=", [big_int], [near_double])

    def test_ordering_above_2_53_is_the_doubles_ordering(self):
        big_int = atomic.integer(self.BIG + 1)
        near_double = atomic.double(float(self.BIG))
        assert not value_compare("gt", [big_int], [near_double])[0].value
        assert not general_compare(">", [big_int], [near_double])
        assert not general_compare("<", [near_double], [big_int])
        assert general_compare(">=", [near_double], [big_int])

    def test_exactly_representable_still_equal(self):
        big_int = atomic.integer(self.BIG)
        same_double = atomic.double(float(self.BIG))
        assert value_compare("eq", [big_int], [same_double])[0].value
        assert general_compare("=", [big_int], [same_double])

    def test_decimal_vs_double_compares_as_double(self):
        from decimal import Decimal
        fine = atomic.decimal(Decimal(self.BIG) + Decimal("0.5"))
        coarse = atomic.double(float(self.BIG))
        assert not value_compare("gt", [fine], [coarse])[0].value
        assert value_compare("eq", [fine], [coarse])[0].value
        tenth = atomic.decimal("0.1")
        assert value_compare("eq", [tenth], [atomic.double(0.1)])[0].value
        assert general_compare("=", [atomic.double(0.1)], [tenth])

    def test_untyped_vs_decimal_compares_as_double(self):
        price = atomic.untyped("149.87")
        assert general_compare("=", [price], [atomic.decimal("149.87")])
        assert not general_compare(">", [price],
                                   [atomic.decimal("149.87")])
        assert value_compare("eq", [price],
                             [atomic.decimal("149.87")])[0].value

    def test_integers_and_decimals_stay_exact(self):
        big_int = atomic.integer(self.BIG + 1)
        assert not value_compare("eq", [big_int],
                                 [atomic.integer(self.BIG)])[0].value
        assert not general_compare(
            "=", [atomic.decimal("0.1000000000000000000001")],
            [atomic.decimal("0.1")])
        assert value_compare("lt", [atomic.integer(self.BIG)],
                             [atomic.decimal(self.BIG + 1)])[0].value

    def test_integer_beyond_the_double_range_meets_infinity(self):
        huge = atomic.integer(10 ** 400)
        assert general_compare(">", [huge], [atomic.double(1e308)])
        assert general_compare("=", [huge], [atomic.double(float("inf"))])

    def test_nan_vs_exact_integer(self):
        nan = atomic.double(float("nan"))
        big_int = atomic.integer(self.BIG + 1)
        assert value_compare("ne", [big_int], [nan])[0].value
        assert not value_compare("eq", [big_int], [nan])[0].value
        assert not value_compare("lt", [big_int], [nan])[0].value
        assert general_compare("!=", [nan], [big_int])
        assert not general_compare("=", [nan], [big_int])

    def test_infinity_vs_integer(self):
        infinity = atomic.double(float("inf"))
        big_int = atomic.integer(self.BIG + 1)
        assert value_compare("lt", [big_int], [infinity])[0].value
        assert general_compare(">", [infinity], [big_int])


class TestNodeComparison:
    def test_is_identity(self):
        element = ElementNode(QName("", "a"))
        other = ElementNode(QName("", "a"))
        assert node_compare("is", [element], [element])[0].value is True
        assert node_compare("is", [element], [other])[0].value is False

    def test_document_order(self):
        parent = ElementNode(QName("", "p"))
        first = ElementNode(QName("", "a"))
        second = ElementNode(QName("", "b"))
        parent.append_child(first)
        parent.append_child(second)
        assert node_compare("<<", [first], [second])[0].value is True
        assert node_compare(">>", [first], [second])[0].value is False

    def test_empty_operand_yields_empty(self):
        element = ElementNode(QName("", "a"))
        assert node_compare("is", [], [element]) == []

    def test_atomic_operand_rejected(self):
        with pytest.raises(XQueryTypeError):
            node_compare("is", [atomic.integer(1)], [atomic.integer(1)])

    def test_constructed_copies_have_new_identity(self):
        # §3.6: construction is "nondeterministic" w.r.t. identity.
        from repro.xdm.nodes import copy_node
        element = ElementNode(QName("", "a"), children=[TextNode("5")])
        clone = copy_node(element)
        assert node_compare("is", [element], [clone])[0].value is False
