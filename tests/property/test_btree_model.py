"""Property-based tests: B+Tree vs a dictionary model."""

import pytest
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.storage.btree import BPlusTree

keys = st.integers(min_value=-50, max_value=50)
values = st.integers(min_value=0, max_value=5)


@given(st.lists(st.tuples(keys, values)))
def test_insert_matches_model(pairs):
    tree = BPlusTree(order=4)
    model = defaultdict(list)
    for key, value in pairs:
        tree.insert(key, value)
        model[key].append(value)
    tree.check_invariants()
    assert list(tree.keys()) == sorted(model)
    for key, bucket in model.items():
        assert sorted(tree.get(key)) == sorted(bucket)
    assert len(tree) == sum(len(bucket) for bucket in model.values())


@given(st.lists(st.tuples(keys, values), max_size=80),
       keys, keys, st.booleans(), st.booleans())
def test_range_scan_matches_model(pairs, low, high, low_inc, high_inc):
    tree = BPlusTree(order=4)
    model = []
    for key, value in pairs:
        tree.insert(key, value)
        model.append((key, value))
    expected = sorted(
        (key, value) for key, value in model
        if (key > low or (low_inc and key == low)) and
           (key < high or (high_inc and key == high)))
    got = sorted(tree.scan(low, high, low_inc, high_inc))
    assert got == expected


#: (key, value, is_compaction) — one interleaved operation; a
#: compaction keeps the entries whose value is not ``value``.
operations = st.lists(st.tuples(keys, values, st.booleans()), max_size=120)


@given(operations, keys, keys, st.booleans(), st.booleans())
def test_filtered_then_range_scan_matches_model(ops, low, high, low_inc,
                                                high_inc):
    """Random insert/compaction interleavings, then scans vs the model.

    A compacted tree is built by inserts in key order, the one shape a
    random insert order rarely produces: every split happens at the
    right edge.  Full and range scans, and each bucket's entry order,
    must agree with a dictionary model — a mis-spliced ``next``
    pointer duplicates or drops entries even when ``keys()`` still
    looks sorted.
    """
    tree = BPlusTree(order=4)
    model: dict[int, list[int]] = defaultdict(list)
    for key, value, is_compaction in ops:
        if is_compaction:
            tree = tree.filtered(lambda entry, value=value: entry != value)
            model = defaultdict(list, {
                kept_key: kept for kept_key, bucket in model.items()
                if (kept := [entry for entry in bucket if entry != value])})
        else:
            tree.insert(key, value)
            model[key].append(value)
    tree.check_invariants()
    for key, bucket in model.items():
        assert tree.get(key) == bucket
    expected_full = sorted((key, value) for key, bucket in model.items()
                           for value in bucket)
    assert sorted(tree.scan()) == expected_full
    expected_range = [
        (key, value) for key, value in expected_full
        if (key > low or (low_inc and key == low)) and
           (key < high or (high_inc and key == high))]
    assert sorted(tree.scan(low, high, low_inc, high_inc)) == \
        sorted(expected_range)


class _UnsplicedTree(BPlusTree):
    """BPlusTree with the leaf-split ``next`` splice removed — the
    regression the invariant checker and scan property must catch."""

    def _split_leaf(self, leaf):
        middle = len(leaf.keys) // 2
        right = type(leaf)()
        right.keys = leaf.keys[middle:]
        right.buckets = leaf.buckets[middle:]
        # BUG under test: ``right.next = leaf.next`` omitted, so the
        # chain skips every leaf after the new one.
        leaf.keys = leaf.keys[:middle]
        leaf.buckets = leaf.buckets[:middle]
        leaf.next = right
        return right.keys[0], right


def _splits_in_the_middle(tree):
    for key in range(0, 24, 2):
        tree.insert(key, key)
    # Filling the left-hand leaves splits leaves that have successors.
    for key in range(1, 24, 2):
        for filler in (key, key + 0.5):
            tree.insert(filler, key)
            tree.check_invariants()


def test_split_splices_leaf_next_pointer():
    """Splitting a leaf that has a successor keeps the chain exactly
    the leaves reachable by descent; the unspliced mutant must be
    caught."""
    _splits_in_the_middle(BPlusTree(order=4))  # the real tree survives

    with pytest.raises(AssertionError):
        _splits_in_the_middle(_UnsplicedTree(order=4))


class BTreeMachine(RuleBasedStateMachine):
    """Stateful test: interleaved inserts and compactions keep
    invariants."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model: dict[int, list[int]] = defaultdict(list)

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model[key].append(value)

    @rule(value=values)
    def compact(self, value):
        before = len(self.tree)
        self.tree = self.tree.filtered(lambda entry: entry != value)
        assert before - len(self.tree) == sum(
            bucket.count(value) for bucket in self.model.values())
        for key in list(self.model):
            self.model[key] = [entry for entry in self.model[key]
                               if entry != value]
            if not self.model[key]:
                del self.model[key]

    @invariant()
    def matches_model(self):
        self.tree.check_invariants()
        assert list(self.tree.keys()) == sorted(self.model)
        assert len(self.tree) == sum(len(bucket)
                                     for bucket in self.model.values())
        for key, bucket in self.model.items():
            assert self.tree.get(key) == bucket

    @invariant()
    def full_scan_matches_model(self):
        # Walks the leaf chain including buckets: catches chain damage
        # that keys()/key_count-based checks cannot see.
        assert sorted(self.tree.scan()) == sorted(
            (key, value) for key, bucket in self.model.items()
            for value in bucket)


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(max_examples=30,
                                     stateful_step_count=40,
                                     deadline=None)
