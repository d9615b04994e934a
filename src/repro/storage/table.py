"""Relational tables with native XML-typed columns."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from ..errors import CatalogError, SQLError
from ..sql.values import SQLType, coerce_to_type
from ..xdm.nodes import DocumentNode
from .segment import SegmentRef

_DOC_IDS = itertools.count(1)
_ROW_IDS = itertools.count(1)


class StoredDocument:
    """An XML document stored in an XML column.

    ``doc_id`` is the unit of index postings and of Definition 1's
    pre-filtering: probing an index yields a set of doc_ids.

    A stored document rests as its columnar store (``_store``, see
    :mod:`repro.storage.columnar`); the XDM tree behind
    :attr:`document` is a *view* built from the columns the first time
    a read asks for it, exactly once even when readers race.  When the
    database runs with a buffer pool, the tree (and, once the log holds
    the segment, the columns) may later be evicted; the property
    transparently re-materializes it — with identical node ids — so
    callers never observe the difference beyond latency.  Structural
    questions (which paths, how many nodes) and index builds go through
    :attr:`columns` instead and never pay for a tree; per-column counts
    go through the owning table's path classes (see :class:`Table`),
    which never touch the document at all.
    """

    __slots__ = ("doc_id", "schema", "_document", "_store", "_pool",
                 "_cold", "path_class", "discarded")

    def __init__(self, doc_id: int, document: DocumentNode | None,
                 schema=None):
        self.doc_id = doc_id
        #: The Schema that validated the document (None: untyped),
        #: re-applied on re-materialize.
        self.schema = schema
        #: The materialized tree, or None while the document rests as
        #: columns (never asked for, or evicted).
        self._document: DocumentNode | None = document
        #: Columnar store backing the document (set at catalog ingest).
        self._store = None
        #: Owning BufferPool, or None when the database is un-pooled.
        self._pool = None
        #: Its segment in the log (a SegmentRef); None pins the columns.
        self._cold = None
        #: The document's path signature (``ColumnStore.path_class``),
        #: captured at ingest and interned by the owning table.
        self.path_class: frozenset | None = None
        #: Its rows left the table (``BufferPool.discard``): snapshots
        #: pinned before the delete still read it, outside the pool.
        self.discarded = False

    @property
    def document(self) -> DocumentNode:
        document = self._document
        pool = self._pool
        if document is not None:
            if pool is not None:
                pool.touch(self)
            return document
        if pool is not None:
            return pool.load(self)
        with _MATERIALIZE_LOCK:
            document = self._document
            if document is None:
                document = self._document = self._store.materialize(
                    self.schema)
            return document

    @property
    def columns(self):
        """The document's column store, never materializing a tree: the
        resident columns as-is (tree built or not), or a cold
        document's read back from the log, neither kept nor charged
        (its readers are passes over documents)."""
        store = self._store
        if store is not None:
            return store
        return self._pool.read_back(self)

    def point_at(self, file, offset: int, length: int, tables) -> None:
        """Note where the segment sits in a log (``file``, a read
        handle), encoded against ``tables``."""
        held = self._cold if self._store is None else self._store
        self._cold = SegmentRef(file, offset, length, tables,
                                held.node_ids, held.document_uri)

    def index_view(self):
        """What an XML index keys (``XmlIndex.index_document``): the
        tree of a schema-validated document, whose typed values live on
        its nodes, and the columns of any other."""
        return self.columns if self.schema is None else self.document

    def __repr__(self) -> str:
        state = "tree" if self._document is not None else "columns"
        return f"<StoredDocument #{self.doc_id} {state}>"


#: Serializes first materializations of un-pooled documents, so racing
#: readers get one tree (a pooled document's go through the pool lock).
_MATERIALIZE_LOCK = threading.Lock()


@dataclass
class Row:
    row_id: int
    values: dict[str, object] = field(default_factory=dict)


class RowLocator:
    """Where the rows of one row list are: an index verdict (doc ids or
    row ids) becomes rows in O(matches), not by a scan of the table.

    ``by_doc`` maps a doc id of any XML column to its (row position,
    row), ``by_row_id`` a row id to its position, and ``docless`` lists
    the positions of rows that hold no document.  A locator is derived
    from the one ``rows`` list it was built from and is cached against
    that list (see :meth:`Table.locator`): writers never maintain it,
    the first reader after a write rebuilds it.  Row ids strictly
    increase along a table's rows (rows are appended with fresh ids and
    only ever removed), so position order — the order a table scan
    yields — is also row-id order.
    """

    __slots__ = ("rows", "by_doc", "by_row_id", "docless")

    def __init__(self, rows: list[Row], xml_columns: list[str]):
        self.rows = rows
        by_doc: dict[int, tuple[int, Row]] = {}
        by_row_id: dict[int, int] = {}
        docless: list[int] = []
        for position, row in enumerate(rows):
            by_row_id[row.row_id] = position
            values = row.values
            held = False
            for column in xml_columns:
                stored = values.get(column)
                if isinstance(stored, StoredDocument):
                    by_doc[stored.doc_id] = (position, row)
                    held = True
            if not held:
                docless.append(position)
        self.by_doc = by_doc
        self.by_row_id = by_row_id
        self.docless = docless

    def positions_of_rows(self, row_ids) -> set[int]:
        """Positions of the listed rows; ids of other rows are dropped."""
        by_row_id = self.by_row_id
        return {by_row_id[row_id] for row_id in row_ids
                if row_id in by_row_id}

    def positions_of_docs(self, doc_ids) -> set[int]:
        """Positions of the rows holding any listed document; ids of
        documents in no row of this list are dropped."""
        by_doc = self.by_doc
        return {by_doc[doc_id][0] for doc_id in doc_ids
                if doc_id in by_doc}

    def rows_at(self, positions) -> list[Row]:
        """The rows at ``positions``, in table order."""
        rows = self.rows
        return [rows[position] for position in sorted(positions)]

    def documents(self, doc_ids, column: str) -> list[StoredDocument]:
        """``column``'s documents among ``doc_ids``, in table order."""
        by_doc = self.by_doc
        found = []
        for doc_id in doc_ids:
            hit = by_doc.get(doc_id)
            if hit is None:
                continue
            stored = hit[1].values.get(column)
            # The id may name the row's document in another XML column.
            if isinstance(stored, StoredDocument) and \
                    stored.doc_id == doc_id:
                found.append((hit[0], stored))
        found.sort(key=lambda hit: hit[0])
        return [stored for _position, stored in found]


class Table:
    """A heap table: ordered rows, typed columns, XML columns allowed.

    ``rows`` is copy-on-write: mutators replace the list instead of
    mutating it in place, so a snapshot that captured the old reference
    keeps a frozen, fully consistent row set (see
    :mod:`repro.storage.snapshot`).  :meth:`locator` derives a
    :class:`RowLocator` from the current list on first use.

    ``path_classes`` is the column-level path summary: XML column ->
    ``{path class: number of documents}``, where a document's path
    class is the set of its (interned root-to-node path, node count)
    pairs.  Documents of one workload share a handful of
    classes, so the planner's structural questions are answered over
    classes, never over documents.  It is maintained in the same
    :meth:`new_row` / :meth:`remove_rows` call that replaces ``rows``
    and is copy-on-write in the same way: a changed column gets a new
    map, and the outer dict is replaced too."""

    def __init__(self, name: str, columns: list[tuple[str, str]]):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        self.name = name.lower()
        self.columns: dict[str, SQLType] = {}
        for column_name, type_text in columns:
            key = column_name.lower()
            if key in self.columns:
                raise CatalogError(
                    f"duplicate column {column_name!r} in {name!r}")
            self.columns[key] = SQLType.parse(type_text)
        self.rows: list[Row] = []
        self.path_classes: dict[str, dict[frozenset, int]] = {
            name: {} for name in self.xml_columns()}
        #: Per-column interning of class keys: documents of one class
        #: share one frozenset.  Writer-private, so mutated in place.
        self._class_keys: dict[str, dict[frozenset, frozenset]] = {
            name: {} for name in self.path_classes}
        self._locator: RowLocator | None = None

    def locator(self) -> RowLocator:
        """The :class:`RowLocator` of the current ``rows`` list, built
        on first use after a write.  Two readers racing here may both
        build one; each describes the same list, so either may stay."""
        rows = self.rows
        locator = self._locator
        if locator is None or locator.rows is not rows:
            locator = self._locator = RowLocator(rows, self.xml_columns())
        return locator

    def column_type(self, column: str) -> SQLType:
        try:
            return self.columns[column.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {column!r} in table {self.name!r}") from None

    def xml_columns(self) -> list[str]:
        return [name for name, sql_type in self.columns.items()
                if sql_type.is_xml]

    def new_row(self, values: dict[str, object]) -> Row:
        row = Row(next(_ROW_IDS))
        for column_name, value in values.items():
            key = column_name.lower()
            sql_type = self.column_type(key)
            if sql_type.is_xml:
                if value is not None and \
                        not isinstance(value, StoredDocument):
                    raise SQLError(
                        f"column {key} expects a stored XML document")
                row.values[key] = value
            else:
                row.values[key] = coerce_to_type(value, sql_type)
        for column_name in self.columns:
            row.values.setdefault(column_name, None)
        self.rows = self.rows + [row]
        self._count_classes(row, +1)
        return row

    def remove_rows(self, victims: list[Row]) -> None:
        """Drop ``victims`` (rows of this table) in one pass over the
        row list, however many there are."""
        gone = {id(row) for row in victims}
        kept = [row for row in self.rows if id(row) not in gone]
        if len(kept) != len(self.rows) - len(gone):
            raise ValueError(f"rows to remove are not all in table "
                             f"{self.name}")
        self.rows = kept
        for row in victims:
            self._count_classes(row, -1)

    def _count_classes(self, row: Row, delta: int) -> None:
        """Add (``+1``) or remove (``-1``) the row's documents from
        their columns' path classes, copy-on-write."""
        path_classes = self.path_classes
        for column, classes in path_classes.items():
            stored = row.values.get(column)
            if not isinstance(stored, StoredDocument):
                continue
            interned = self._class_keys[column]
            key = stored.path_class = interned.setdefault(
                stored.path_class, stored.path_class)
            classes = dict(classes)
            docs = classes.get(key, 0) + delta
            if docs:
                classes[key] = docs
            else:
                del classes[key]
                del interned[key]
            path_classes = {**path_classes, column: classes}
        self.path_classes = path_classes

    def __len__(self) -> int:
        return len(self.rows)


def next_doc_id() -> int:
    return next(_DOC_IDS)
