"""Property-based tests on comparison semantics."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CastError, XQueryTypeError
from repro.storage.xmlindex import XmlIndex
from repro.xdm import atomic
from repro.xdm.compare import (GENERAL_TO_VALUE, equality_keys,
                               general_compare, value_compare)

numbers = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(atomic.integer),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False,
              allow_infinity=False).map(atomic.double),
)

untyped_numbers = st.integers(min_value=-100, max_value=100).map(
    lambda value: atomic.untyped(str(value)))

mixed = st.one_of(numbers, untyped_numbers)


@given(st.lists(mixed, max_size=4), st.lists(mixed, max_size=4))
def test_general_comparison_is_existential(left, right):
    """a = b over sequences iff SOME pair compares equal."""
    expected = False
    for left_atom in left:
        for right_atom in right:
            try:
                result = value_compare(
                    "eq",
                    [atomic.cast(left_atom, atomic.T_DOUBLE)],
                    [atomic.cast(right_atom, atomic.T_DOUBLE)])
            except XQueryTypeError:
                continue
            if result and result[0].value:
                expected = True
    assert general_compare("=", left, right) is expected


@given(mixed, mixed)
def test_general_comparison_trichotomy(left, right):
    equal = general_compare("=", [left], [right])
    less = general_compare("<", [left], [right])
    greater = general_compare(">", [left], [right])
    assert [equal, less, greater].count(True) == 1


@given(mixed, mixed)
def test_general_negation_duality_on_singletons(left, right):
    assert general_compare("=", [left], [right]) != \
        general_compare("!=", [left], [right])
    assert general_compare("<", [left], [right]) != \
        general_compare(">=", [left], [right])


@given(numbers, numbers)
def test_value_comparison_antisymmetry(left, right):
    lt = value_compare("lt", [left], [right])[0].value
    gt = value_compare("gt", [right], [left])[0].value
    assert lt == gt


@settings(max_examples=200)
@given(st.text(max_size=6), st.text(max_size=6))
def test_string_comparison_matches_python(left, right):
    result = value_compare("eq", [atomic.string(left)],
                           [atomic.string(right)])
    assert result[0].value == (left == right)
    order = value_compare("lt", [atomic.string(left)],
                          [atomic.string(right)])
    assert order[0].value == (left < right)


@given(st.integers(min_value=-10**18, max_value=10**18))
def test_long_roundtrip_through_string_is_exact(value):
    atom = atomic.long_integer(value)
    text = atomic.cast(atom, atomic.T_STRING)
    back = atomic.cast(text, atomic.T_LONG)
    assert back.value == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_double_roundtrip_through_string(value):
    atom = atomic.double(value)
    text = atomic.cast(atom, atomic.T_STRING)
    back = atomic.cast(text, atomic.T_DOUBLE)
    assert back.value == value


# ---------------------------------------------------------------------------
# One promotion rule: scans, XML index keys and hash-join keys agree
# ---------------------------------------------------------------------------

STORED = ["149.87", "10.1", "0.1", "149.8700000001", "200", "n/a"]
LITERALS = [atomic.decimal("149.87"), atomic.double(149.87),
            atomic.string("149.87"), atomic.decimal("0.1"),
            atomic.double(0.1), atomic.integer(200)]
SYMBOLS = ["=", "!=", "<", "<=", ">", ">="]


def _index_verdict(symbol, stored, literal):
    """``stored <symbol> literal`` decided in the key space of the XML
    index a comparison against ``literal`` uses; None = no key."""
    index = XmlIndex("i", "t", "d", "//@p", atomic.index_type(
        literal.type_name))
    try:
        stored_key = index.key_for_value(atomic.untyped(stored))
    except CastError:
        return None
    return _PYTHON_OPS[symbol](stored_key, index.key_for_value(literal))


_PYTHON_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("symbol", SYMBOLS)
@pytest.mark.parametrize("literal", LITERALS, ids=repr)
@pytest.mark.parametrize("stored", STORED)
def test_scan_and_index_keys_decide_alike(stored, literal, symbol):
    """A node value compares with a literal exactly as their index keys
    do: both promote through :func:`repro.xdm.compare.promote`."""
    scan = general_compare(symbol, [atomic.untyped(stored)], [literal])
    verdict = _index_verdict(symbol, stored, literal)
    assert scan == bool(verdict)   # no key: a general comparison is false
    if verdict is not None:
        op = GENERAL_TO_VALUE[symbol]
        assert value_compare(op, [atomic.untyped(stored)],
                             [literal])[0].value == scan


@pytest.mark.parametrize("literal", LITERALS, ids=repr)
@pytest.mark.parametrize("stored", STORED)
def test_hash_join_keys_decide_alike(stored, literal):
    for build in (True, False):
        stored_keys, _ = equality_keys([atomic.untyped(stored)], True,
                                       build=build)
        literal_keys, _ = equality_keys([literal], True, build=not build)
        assert bool(stored_keys & literal_keys) == general_compare(
            "=", [atomic.untyped(stored)], [literal])


def test_integers_beyond_2_53_collide_on_every_route():
    """§3.6 hazard 2, shared by scan and index: 2**53 + 1 meets an
    untyped 2**53 as the double 2**53."""
    stored = atomic.untyped(str(2 ** 53))
    literal = atomic.integer(2 ** 53 + 1)
    assert general_compare("=", [stored], [literal])
    assert not general_compare("<", [stored], [literal])
    assert _index_verdict("=", str(2 ** 53), literal)


decimal_texts = st.decimals(min_value=-1000, max_value=1000, places=3,
                            allow_nan=False, allow_infinity=False).map(str)


@given(decimal_texts)
def test_a_decimal_equals_its_double_and_its_text(text):
    """XQuery 1.0 B.2: a decimal meets a double as a double, and an
    untyped value meets either as a double."""
    as_decimal, as_double = atomic.decimal(text), atomic.double(float(text))
    assert general_compare("=", [as_decimal], [as_double])
    assert general_compare("=", [atomic.untyped(text)], [as_decimal])
    assert not general_compare("<", [as_double], [as_decimal])
