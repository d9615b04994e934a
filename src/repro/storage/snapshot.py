"""Read views over the catalog: the shared read API and COW snapshots.

:class:`ReadView` is the query-facing surface of a database — catalog
lookups, document enumeration, ``db2-fn:xmlcolumn``, the per-column
path summary and the cardinalities derived from it.
:class:`repro.storage.catalog.Database` mixes it in and wraps the
query entry points in its reader-writer lock;
:class:`Snapshot` reuses the same methods over *pinned* state.

Snapshot semantics
------------------

Writers copy-on-write every container they change: the ``Database``
catalog dicts are replaced (never mutated) by DDL, and each
``Table.rows`` list and ``Table.path_classes`` summary are replaced
by ingest/delete.  A ``Snapshot`` therefore pins a consistent catalog +
row-set + summary view by simply capturing those references under a
read acquisition — O(catalog size), no data copying — and stays valid
indefinitely: later writers swap in new containers and never touch the
captured ones.

The same capture pins index contents.  Index trees are insert-only: a
delete only makes the index forget the row (see
:mod:`repro.storage.xmlindex`), and a compaction builds a *new* index
object that the catalog dict swaps in, leaving the pinned one as it
was.  So a pinned index still holds every entry of the pinned rows,
and entries added later name ids the pinned rows lack, which each
table's own row locator drops.  Queries issued through
``Database.xquery`` / ``Database.sql`` hold the read lock for their
whole execution; queries issued through ``Snapshot.xquery`` /
``Snapshot.sql`` are lock-free, and a caller that may race a writer
growing a live index in place (a server session) holds the read side
itself.
"""

from __future__ import annotations

from ..analysis import sanitizer as _sanitizer
from ..core.patterns import matcher_for
from ..errors import CatalogError, SQLError
from ..obs.metrics import METRICS
from ..xdm.sequence import Item
from .table import StoredDocument, Table

__all__ = ["ReadView", "Snapshot"]


class ReadView:
    """The read-only query API shared by Database and Snapshot.

    Implementors provide ``tables``, ``xml_indexes``, ``rel_indexes``
    and ``schemas`` mappings; everything here derives from those.
    """

    def table(self, name: str):
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def xml_table(self, table: str, column: str):
        """(table, lower-cased column name) of an XML column."""
        table_obj = self.table(table)
        key = column.lower()
        if not table_obj.column_type(key).is_xml:
            raise CatalogError(f"{table}.{column} is not an XML column")
        return table_obj, key

    def documents(self, table: str, column: str) -> list[StoredDocument]:
        table_obj, key = self.xml_table(table, column)
        return [row.values[key] for row in table_obj.rows
                if isinstance(row.values.get(key), StoredDocument)]

    def xmlcolumn(self, reference: str, stats=None) -> list[Item]:
        """db2-fn:xmlcolumn: the column's documents as a sequence."""
        table, column = self._split_reference(reference)
        stored_docs = self.documents(table, column)
        if stats is not None:
            stats.docs_scanned += len(stored_docs)
        if METRICS.enabled:
            METRICS.inc("docs.scanned", len(stored_docs))
        return [stored.document for stored in stored_docs]

    def _split_reference(self, reference: str) -> tuple[str, str]:
        parts = reference.split(".")
        if len(parts) != 2:
            raise CatalogError(
                f"xmlcolumn reference must be 'TABLE.COLUMN', got "
                f"{reference!r}")
        return parts[0], parts[1]

    def path_classes(self, table: str, column: str) -> dict:
        """The column's path summary: ``{path class: document count}``
        (see :class:`repro.storage.table.Table`).  Its values sum to
        the column's document count; no document is visited."""
        table_obj, key = self.xml_table(table, column)
        return table_obj.path_classes[key]

    def docs_with_path(self, table: str, column: str, pattern) -> int:
        """How many of the column's documents contain ≥1 node matching
        ``pattern`` (an XMLPATTERN string or parsed PathPattern) — the
        structural fraction the cost model folds into probe estimates.
        One pattern test per distinct path of the column's path
        classes; no document is read."""
        matcher = matcher_for(self._as_pattern(pattern))
        return sum(docs for path_class, docs
                   in self.path_classes(table, column).items()
                   if matcher.nodes_in(path_class))

    def path_cardinality(self, table: str, column: str, pattern) -> int:
        """Total node count matching ``pattern`` across the column's
        documents, answered from its path classes."""
        matcher = matcher_for(self._as_pattern(pattern))
        return sum(docs * matcher.nodes_in(path_class)
                   for path_class, docs
                   in self.path_classes(table, column).items())

    @staticmethod
    def _as_pattern(pattern):
        if isinstance(pattern, str):
            from ..core.patterns import parse_xmlpattern
            return parse_xmlpattern(pattern)
        return pattern

    def xml_indexes_on(self, table: str, column: str) -> list:
        return [index for index in self.xml_indexes.values()
                if index.table == table.lower()
                and index.column == column.lower()]

    def rel_indexes_on(self, table: str, column: str) -> list:
        return [index for index in self.rel_indexes.values()
                if index.table == table.lower()
                and index.column == column.lower()]

    # ------------------------------------------------------------------
    # Query entry points (lock-free; Database overrides with locking)
    # ------------------------------------------------------------------

    def xquery(self, query: str, use_indexes: bool = True,
               rewrite_views: bool = False,
               tracer=None, variables: dict | None = None):
        from ..planner.plan import execute_xquery
        return execute_xquery(self, query, use_indexes=use_indexes,
                              rewrite_views=rewrite_views,
                              tracer=tracer, variables=variables)

    def sql(self, statement: str, use_indexes: bool = True, tracer=None):
        from ..sql.executor import execute_sql
        return execute_sql(self, statement, use_indexes=use_indexes,
                           tracer=tracer)

    def sqlquery_items(self, statement: str) -> list[Item]:
        """db2-fn:sqlquery: run SQL, concatenate its XML column values."""
        result = self.sql(statement)
        from ..sql.values import XMLValue
        items: list[Item] = []
        for row in result.rows:
            for value in row:
                if isinstance(value, XMLValue):
                    items.extend(value.items)
        return items

    def describe(self) -> str:
        """A human-readable catalog summary: tables, columns, indexes."""
        lines = ["catalog:"]
        for table in self.tables.values():
            columns = ", ".join(f"{name} {sql_type}"
                                for name, sql_type in
                                table.columns.items())
            lines.append(f"  table {table.name} ({columns}) "
                         f"[{len(table.rows)} rows]")
            for index in self.xml_indexes.values():
                if index.table == table.name:
                    lines.append(
                        f"    xml index {index.name} ON "
                        f"{index.column} USING XMLPATTERN "
                        f"'{index.pattern}' AS {index.index_type} "
                        f"[{len(index)} entries, "
                        f"{index.skipped_nodes} skipped]")
            for index in self.rel_indexes.values():
                if index.table == table.name:
                    lines.append(f"    rel index {index.name} ON "
                                 f"{index.column} [{len(index)} entries]")
        for schema in self.schemas.values():
            lines.append(f"  schema {schema.name} "
                         f"[{len(schema.declarations)} declarations]")
        return "\n".join(lines)


class _TableSnapshot:
    """A Table view with the row list and path classes pinned at
    snapshot time.

    ``Table.rows`` and ``Table.path_classes`` are copy-on-write
    (writers replace them), so holding the references is enough to
    freeze the row set and its summary; column metadata is delegated
    to the live table (DDL cannot alter columns of an existing table,
    so that surface is immutable).  The row locator is the snapshot's
    own, built from the pinned list: the live table's would locate
    rows the snapshot must not see.
    """

    __slots__ = ("_table", "rows", "path_classes", "_locator")

    def __init__(self, table):
        self._table = table
        self.rows = table.rows
        self.path_classes = table.path_classes
        # Set, so that lookups never fall through to the live table's.
        self._locator = None

    locator = Table.locator

    def __getattr__(self, name):
        return getattr(self._table, name)

    def __len__(self) -> int:
        return len(self.rows)


_READ_ONLY_HEADS = ("SELECT", "VALUES")


class Snapshot(ReadView):
    """A consistent, immutable view of a Database at one version.

    Obtained from :meth:`repro.storage.catalog.Database.snapshot`.
    Supports the whole read API — ``xquery``, ``sql`` (SELECT/VALUES
    only), ``describe``, document enumeration — without taking the
    database lock.
    """

    def __init__(self, database):
        self.version = database.version
        self.catalog_epoch = database.catalog_epoch
        self.index_order = database.index_order
        self.tables = {name: _TableSnapshot(table)
                       for name, table in database.tables.items()}
        self.xml_indexes = dict(database.xml_indexes)
        self.rel_indexes = dict(database.rel_indexes)
        self.schemas = dict(database.schemas)
        # Shared observation channel, not versioned state: queries run
        # against a pinned snapshot (e.g. server sessions) must still
        # feed the live database's workload profiler or the autopilot
        # would be blind to exactly the workload it should serve.
        self.workload_profiler = database.workload_profiler
        if _sanitizer.ACTIVE is not None:
            # Record (id, len) of every pinned row list and index tree:
            # a row list changing length in place, or a pinned tree
            # shrinking, is the violation snapshots exist to rule out.
            _sanitizer.ACTIVE.fingerprint_snapshot(self)

    def xquery(self, query: str, use_indexes: bool = True,
               rewrite_views: bool = False,
               tracer=None, variables: dict | None = None):
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.verify_snapshot(self)
        return super().xquery(
            query, use_indexes=use_indexes,
            rewrite_views=rewrite_views, tracer=tracer,
            variables=variables)

    def sql(self, statement: str, use_indexes: bool = True, tracer=None):
        head = statement.lstrip().upper()
        if not head.startswith(_READ_ONLY_HEADS):
            raise SQLError(
                "snapshots are read-only: only SELECT/VALUES may run "
                "against a Snapshot", "25006")
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.verify_snapshot(self)
        return super().sql(statement, use_indexes=use_indexes,
                           tracer=tracer)

    def __repr__(self) -> str:
        return (f"<Snapshot version={self.version} "
                f"tables={len(self.tables)}>")
