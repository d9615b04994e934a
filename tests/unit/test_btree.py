"""Unit tests for the B+Tree."""

import random

import pytest

from repro.storage.btree import BPlusTree


class TestBasics:
    def test_insert_get(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        tree.insert(3, "b")
        tree.insert(7, "c")
        assert tree.get(5) == ["a"]
        assert tree.get(4) == []
        assert len(tree) == 3
        assert tree.key_count == 3

    def test_duplicate_keys_bucket(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert sorted(tree.get(1)) == ["a", "b"]
        assert len(tree) == 2
        assert tree.key_count == 1

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_keys_sorted_after_random_inserts(self):
        tree = BPlusTree(order=4)
        values = random.Random(1).sample(range(1000), 300)
        for value in values:
            tree.insert(value, value)
        assert list(tree.keys()) == sorted(values)
        tree.check_invariants()


class TestRangeScan:
    def make_tree(self) -> BPlusTree:
        tree = BPlusTree(order=4)
        for value in range(0, 100, 2):  # evens 0..98
            tree.insert(value, f"v{value}")
        return tree

    def test_closed_range(self):
        tree = self.make_tree()
        keys = [key for key, _entry in tree.scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_open_bounds(self):
        tree = self.make_tree()
        keys = [key for key, _entry in
                tree.scan(10, 20, low_inclusive=False,
                          high_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_unbounded_low(self):
        tree = self.make_tree()
        keys = [key for key, _entry in tree.scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_unbounded_high(self):
        tree = self.make_tree()
        keys = [key for key, _entry in tree.scan(94, None)]
        assert keys == [94, 96, 98]

    def test_full_scan(self):
        tree = self.make_tree()
        assert len(list(tree.scan())) == 50

    def test_missing_bound_keys(self):
        tree = self.make_tree()
        keys = [key for key, _entry in tree.scan(11, 19)]
        assert keys == [12, 14, 16, 18]

    def test_empty_range(self):
        tree = self.make_tree()
        assert list(tree.scan(200, 300)) == []

    def test_string_keys(self):
        tree = BPlusTree(order=4)
        for word in ["pear", "apple", "fig", "date", "cherry"]:
            tree.insert(word, word)
        keys = [key for key, _entry in tree.scan("b", "e")]
        assert keys == ["cherry", "date"]


class TestFiltered:
    def test_filtered_keeps_accepted_entries(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        tree.insert(2, "c")
        kept = tree.filtered(lambda entry: entry != "a")
        assert kept.get(1) == ["b"]
        assert kept.get(2) == ["c"]
        assert len(kept) == 2 and kept.key_count == 2
        assert len(tree) == 3   # the source tree is untouched

    def test_filtered_drops_emptied_keys(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(2, "b")
        kept = tree.filtered(lambda entry: entry == "b")
        assert list(kept.keys()) == [2]
        assert kept.get(1) == []

    def test_filtered_keeps_order_within_a_key(self):
        tree = BPlusTree(order=4)
        for value in range(30):
            tree.insert(value % 3, value)
        kept = tree.filtered(lambda entry: entry % 2 == 0)
        assert kept.get(1) == [4, 10, 16, 22, 28]
        assert kept.order == tree.order

    def test_filtered_large_tree_keeps_invariants(self):
        tree = BPlusTree(order=4)
        values = list(range(200))
        random.Random(7).shuffle(values)
        for value in values:
            tree.insert(value, value)
        kept = tree.filtered(lambda entry: entry % 5 == 0)
        kept.check_invariants()
        assert [key for key, _entry in kept.scan()] == \
            list(range(0, 200, 5))
        assert len(kept) == 40
