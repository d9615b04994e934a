"""An in-memory B+Tree with leaf-linked range scans.

Both the XML value indexes (§2.1: "Under the covers, XML indexes are
implemented using B+Trees") and the relational column indexes sit on
this structure.  Keys must be mutually comparable; duplicate keys are
supported by storing a bucket of entries per key.

The implementation is a textbook order-``m`` B+Tree: interior nodes
hold separator keys and children, leaves hold (key, bucket) pairs and a
``next`` pointer for range scans.  There is no delete: an index never
removes an entry from its tree, it compacts by building a new tree of
the entries it still wants (:meth:`BPlusTree.filtered`), so a tree
only ever grows.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from ..obs.metrics import METRICS


class _Leaf:
    __slots__ = ("keys", "buckets", "next")

    def __init__(self):
        self.keys: list[Any] = []
        self.buckets: list[list[Any]] = []
        self.next: _Leaf | None = None

    is_leaf = True


class _Interior:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: list[Any] = []
        self.children: list[Any] = []

    is_leaf = False


class BPlusTree:
    """Order-``order`` B+Tree mapping keys to buckets of entries."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("B+Tree order must be at least 4")
        self.order = order
        self._root: _Leaf | _Interior = _Leaf()
        self._size = 0          # number of entries (not distinct keys)
        self._key_count = 0     # number of distinct keys

    def __len__(self) -> int:
        return self._size

    @property
    def key_count(self) -> int:
        return self._key_count

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        visited = 1
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
            visited += 1
        if METRICS.enabled:
            METRICS.inc("btree.node_visits", visited)
        return node

    def get(self, key) -> list[Any]:
        """All entries stored under ``key`` (empty list if none)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.buckets[index])
        return []

    def scan(self, low=None, high=None, low_inclusive: bool = True,
             high_inclusive: bool = True) -> Iterator[tuple[Any, Any]]:
        """Yield (key, entry) pairs for keys in the given range.

        ``low=None`` / ``high=None`` leave that bound open — a full
        range scan ``(-inf, +inf)`` is how a varchar index answers a
        purely structural predicate (§2.2).
        """
        if low is not None:
            leaf = self._find_leaf(low)
            start = bisect.bisect_left(leaf.keys, low)
        else:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            leaf, start = node, 0
        leaves_walked = 0
        try:
            while leaf is not None:
                leaves_walked += 1
                for index in range(start, len(leaf.keys)):
                    key = leaf.keys[index]
                    if low is not None:
                        if key < low or (key == low and not low_inclusive):
                            continue
                    if high is not None:
                        if key > high or (key == high and
                                          not high_inclusive):
                            return
                    for entry in leaf.buckets[index]:
                        yield key, entry
                leaf = leaf.next
                start = 0
        finally:
            # Runs on exhaustion, early return, and generator close.
            if METRICS.enabled and leaves_walked:
                METRICS.inc("btree.leaf_scans", leaves_walked)

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.scan()

    def keys(self) -> Iterator[Any]:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from node.keys
            node = node.next

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key, entry) -> None:
        """Insert ``entry`` under ``key`` (duplicates allowed)."""
        split = self._insert(self._root, key, entry)
        if split is not None:
            separator, right = split
            new_root = _Interior()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert(self, node, key, entry):
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.buckets[index].append(entry)
                return None
            node.keys.insert(index, key)
            node.buckets.insert(index, [entry])
            self._key_count += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, entry)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_interior(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.buckets = leaf.buckets[middle:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:middle]
        leaf.buckets = leaf.buckets[:middle]
        leaf.next = right
        return right.keys[0], right

    def _split_interior(self, node: _Interior):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Interior()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    def filtered(self, keep) -> "BPlusTree":
        """A new tree of the entries ``keep(entry)`` accepts, inserted
        in key order (entries under one key keep their order)."""
        tree = BPlusTree(order=self.order)
        for key, entry in self.scan():
            if keep(entry):
                tree.insert(key, entry)
        return tree

    # ------------------------------------------------------------------
    # Introspection / validation (used by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        self._check_node(self._root, is_root=True, low=None, high=None)
        # The leaf chain must visit exactly the leaves reachable by
        # tree descent, left to right.  Checking node identity (not
        # just key order) catches a mis-spliced ``next`` pointer after
        # a split — a stale pointer into a detached leaf can still
        # yield sorted keys while dropping or duplicating entries.
        leaves = self._leaves_by_descent()
        chain: list[_Leaf] = []
        node = leaves[0]
        while node is not None:
            chain.append(node)
            assert len(chain) <= len(leaves), "leaf chain cycle"
            node = node.next
        assert [id(leaf) for leaf in chain] == \
            [id(leaf) for leaf in leaves], \
            "leaf next-chain does not match tree structure"
        keys = list(self.keys())
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._key_count, "key_count drift"
        assert len(set(map(repr, keys))) == len(keys), "duplicate keys"

    def _leaves_by_descent(self) -> list[_Leaf]:
        leaves: list[_Leaf] = []
        stack: list[Any] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(reversed(node.children))
        return leaves

    def _check_node(self, node, is_root: bool, low, high) -> int:
        assert node.keys == sorted(node.keys)
        for key in node.keys:
            if low is not None:
                assert key >= low
            if high is not None:
                assert key < high
        if node.is_leaf:
            assert len(node.keys) == len(node.buckets)
            if not is_root:
                assert len(node.keys) >= 1
            return 1
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.keys) >= 1
        depths = set()
        bounds = [low] + list(node.keys) + [high]
        for position, child in enumerate(node.children):
            depths.add(self._check_node(child, False,
                                        bounds[position],
                                        bounds[position + 1]))
        assert len(depths) == 1, "unbalanced tree"
        return depths.pop() + 1
