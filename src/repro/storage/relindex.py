"""Relational (non-XML) column indexes.

These exist so that Section 3.3's comparison holds in this engine too:
a join expressed with SQL comparisons can use a relational index on the
relational column (Query 14), while a join expressed in XQuery can only
use XML indexes (Query 13).  Keys follow SQL comparison semantics —
trailing blanks stripped.

Like XML indexes (see :mod:`repro.storage.xmlindex`), a relational
index never deletes: :meth:`RelationalIndex.forget` stops counting a
row as live, the row locator drops the ids of rows a view does not
hold, and :meth:`RelationalIndex.compacted` builds the replacement once
dead entries reach live ones.
"""

from __future__ import annotations

from typing import Iterator

from ..obs.metrics import METRICS
from ..sql.values import normalize_key
from .btree import BPlusTree


class RelationalIndex:
    """B+Tree index on one relational column; entries are row ids."""

    def __init__(self, name: str, table: str, column: str, order: int = 64):
        self.name = name
        self.table = table
        self.column = column
        self.tree = BPlusTree(order=order)
        #: Row ids with a live entry (NULLs have none).
        self._live_rows: set[int] = set()

    def __repr__(self) -> str:
        return f"<RelationalIndex {self.name} ON {self.table}({self.column})>"

    def insert_row(self, row_id: int, value) -> None:
        if value is None:
            return  # NULLs are not indexed
        self.tree.insert(normalize_key(value), row_id)
        self._live_rows.add(row_id)

    def forget(self, row_id: int) -> None:
        """Stop counting the row's entry as live; the tree keeps it."""
        self._live_rows.discard(row_id)

    def compacted(self) -> "RelationalIndex":
        """A new index holding only the live entries, in key order."""
        fresh = RelationalIndex(self.name, self.table, self.column,
                                order=self.tree.order)
        live = fresh._live_rows = set(self._live_rows)
        fresh.tree = self.tree.filtered(live.__contains__)
        return fresh

    def lookup(self, value, stats=None) -> list[int]:
        rows = self.tree.get(normalize_key(value))
        if stats is not None:
            stats.index_entries_scanned += len(rows)
            stats.record_index_use(self.name)
        if METRICS.enabled:
            METRICS.inc("relindex.lookups")
        return rows

    def range(self, low=None, high=None, low_inclusive: bool = True,
              high_inclusive: bool = True, stats=None) -> Iterator[int]:
        count = 0
        for _key, row_id in self.tree.scan(
                normalize_key(low) if low is not None else None,
                normalize_key(high) if high is not None else None,
                low_inclusive, high_inclusive):
            count += 1
            yield row_id
        if stats is not None:
            stats.index_entries_scanned += count
            stats.record_index_use(self.name)
        if METRICS.enabled:
            METRICS.inc("relindex.lookups")

    def __len__(self) -> int:
        """Live entries (the tree may also hold forgotten ones)."""
        return len(self._live_rows)
