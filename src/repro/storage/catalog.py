"""The Database facade: catalog, DML, and query entry points.

This is the component a user of the library touches: create tables
with XML columns, insert documents (optionally validated against a
per-document schema), create XML value indexes with the paper's
``CREATE INDEX … USING XMLPATTERN`` DDL, and run XQuery or SQL/XML.

Concurrency model (see README "Concurrency model"): every public
entry point classifies itself as a *reader* (queries, snapshots,
explains) or a *writer* (DDL, ingest, delete) and takes the matching
side of one :class:`repro.core.rwlock.RWLock`.  Readers share; writers
exclude everything and bump :attr:`Database.version`.  Writers apply
copy-on-write to each container they change — catalog dicts here,
per-table row lists in :mod:`repro.storage.table` — and index trees
only grow (a delete forgets rows, a compaction swaps in a new index
object), so a :class:`~repro.storage.snapshot.Snapshot` captured by a
reader stays internally consistent forever.
"""

from __future__ import annotations

import os
import re

from ..core.rwlock import RWLock
from ..errors import CatalogError, SQLError
from ..schema.schema import Schema
from ..schema.validator import validate
from ..xdm.nodes import DocumentNode
from ..xmlio.parser import parse_document
from .bufferpool import BufferPool
from .columnar import ingest_document
from .relindex import RelationalIndex
from .snapshot import ReadView, Snapshot
from .table import Row, StoredDocument, Table, next_doc_id
from .xmlindex import XmlIndex

_CREATE_XML_INDEX_RE = re.compile(
    r"^\s*CREATE\s+INDEX\s+(?P<name>\w+)\s+ON\s+(?P<table>\w+)\s*"
    r"\(\s*(?P<column>\w+)\s*\)\s*USING\s+XMLPATTERN\s+"
    r"'(?P<pattern>(?:[^']|'')*)'\s+AS\s+"
    r"(?:SQL\s+)?(?P<type>VARCHAR(?:\s*\(\s*\d+\s*\))?|DOUBLE|DATE"
    r"|TIMESTAMP)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL)

_CREATE_REL_INDEX_RE = re.compile(
    r"^\s*CREATE\s+INDEX\s+(?P<name>\w+)\s+ON\s+(?P<table>\w+)\s*"
    r"\(\s*(?P<column>\w+)\s*\)\s*;?\s*$",
    re.IGNORECASE)

_CREATE_TABLE_RE = re.compile(
    r"^\s*CREATE\s+TABLE\s+(?P<name>\w+)\s*\((?P<columns>.*)\)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL)

_DROP_TABLE_RE = re.compile(r"^\s*DROP\s+TABLE\s+(?P<name>\w+)\s*;?\s*$",
                            re.IGNORECASE)

_DROP_INDEX_RE = re.compile(r"^\s*DROP\s+INDEX\s+(?P<name>\w+)\s*;?\s*$",
                            re.IGNORECASE)

#: Statement heads every text dispatcher (``execute_any``, server
#: sessions, the process pool) treats as writes (exclusive lock).
_WRITE_HEADS = ("INSERT", "DELETE", "CREATE", "DROP")


class Database(ReadView):
    """An in-memory XML database in the mould of DB2 Viper."""

    def __init__(self, index_order: int = 64,
                 buffer_pool_bytes: int | None = None,
                 buffer_pool_spill_dir=None):
        self.index_order = index_order
        self.tables: dict[str, Table] = {}
        self.xml_indexes: dict[str, XmlIndex] = {}
        self.rel_indexes: dict[str, RelationalIndex] = {}
        self.schemas: dict[str, Schema] = {}
        #: Monotone write counter: every committed DDL/DML bumps it.
        self.version = 0
        self._rwlock = RWLock()
        if buffer_pool_bytes is None:
            env_budget = os.environ.get("REPRO_BUFFER_POOL_BYTES")
            if env_budget:
                buffer_pool_bytes = int(env_budget)
        #: Byte-budgeted LRU over materialized documents; budget None
        #: (the default) leaves it fully inactive — documents are then
        #: never registered and never evicted.
        self.buffer_pool = BufferPool(buffer_pool_bytes,
                                      spill_dir=buffer_pool_spill_dir)
        #: Workload profiler installed by :meth:`autopilot` (None keeps
        #: the query path's observation hook a no-op attribute read).
        self.workload_profiler = None
        #: Cost-model calibration (see :mod:`repro.autopilot.calibrate`);
        #: DurableDatabase loads/persists it under the data directory.
        self.cost_calibration = None
        self._autopilot = None

    # ------------------------------------------------------------------
    # DDL (writers: exclusive lock + copy-on-write catalog updates)
    # ------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: list[tuple[str, str]]) -> Table:
        with self._rwlock.write():
            key = name.lower()
            if key in self.tables:
                raise CatalogError(f"table {name!r} already exists")
            table = Table(name, columns)
            tables = dict(self.tables)
            tables[key] = table
            self.tables = tables
            self.version += 1
            return table

    def drop_table(self, name: str) -> None:
        with self._rwlock.write():
            table = self.table(name)
            self.xml_indexes = {
                index_name: index
                for index_name, index in self.xml_indexes.items()
                if index.table != table.name}
            self.rel_indexes = {
                index_name: index
                for index_name, index in self.rel_indexes.items()
                if index.table != table.name}
            tables = dict(self.tables)
            del tables[table.name]
            self.tables = tables
            # The rows leave with the table, so their documents leave
            # the buffer pool — and their spill files leave the disk.
            for row in table.rows:
                for value in row.values.values():
                    if isinstance(value, StoredDocument):
                        self.buffer_pool.discard(value)
            self.version += 1

    def register_schema(self, schema: Schema) -> None:
        with self._rwlock.write():
            schemas = dict(self.schemas)
            schemas[schema.name] = schema
            self.schemas = schemas
            self.version += 1

    def create_xml_index(self, name: str, table: str, column: str,
                         pattern: str, index_type: str) -> XmlIndex:
        with self._rwlock.write():
            key = name.lower()
            if key in self.xml_indexes or key in self.rel_indexes:
                raise CatalogError(f"index {name!r} already exists")
            table_obj = self.table(table)
            if not table_obj.column_type(column).is_xml:
                raise CatalogError(
                    f"{table}.{column} is not an XML column")
            index = XmlIndex(key, table_obj.name, column.lower(), pattern,
                             index_type, order=self.index_order)
            # Build: index existing documents.  Each document is
            # released back to the buffer pool as soon as it has been
            # indexed — a bulk build touches every document once, and
            # without the release the materialized trees stack up past
            # the pool budget and evict the real working set.
            for stored in self.documents(table, column):
                index.index_document(stored.doc_id, stored.document)
                self.buffer_pool.release(stored)
            xml_indexes = dict(self.xml_indexes)
            xml_indexes[key] = index
            self.xml_indexes = xml_indexes
            self.version += 1
            return index

    def create_xml_index_online(self, name: str, table: str, column: str,
                                pattern: str, index_type: str) -> XmlIndex:
        """Build an XML index without excluding writers for the build.

        The offline :meth:`create_xml_index` holds the exclusive lock
        for the whole build — O(collection) with every writer stalled.
        This variant is the autopilot's builder:

        1. **Snapshot scan (no lock):** pin a COW snapshot and index
           its documents while writers proceed.  Each document is
           released back to the buffer pool once indexed, so the build
           charges — and stays within — the pool budget.
        2. **Catch-up (short write lock):** diff the snapshot's doc-id
           set against the live table, index the documents inserted
           and forget the ones deleted while the scan ran.  Writers are
           excluded only for this window, which is proportional to the
           write rate during the scan, not to the collection.
        3. **Publish:** install the index in the catalog (COW swap).
           :class:`~repro.durability.engine.DurableDatabase` overrides
           :meth:`_publish_xml_index` to WAL-log the DDL at this point,
           so recovery replays it as an ordinary offline build —
           a crash anywhere before publish leaves no trace, and a
           crash after it leaves a complete, queryable index.

        Named ``index.build.*`` crash points instrument steps 1–3 for
        the fault-injection crash matrix.
        """
        faults = getattr(self, "_faults", None)
        key = name.lower()
        with self._rwlock.read():
            if key in self.xml_indexes or key in self.rel_indexes:
                raise CatalogError(f"index {name!r} already exists")
            table_obj = self.table(table)
            if not table_obj.column_type(column).is_xml:
                raise CatalogError(
                    f"{table}.{column} is not an XML column")
            snapshot = Snapshot(self)
        index = XmlIndex(key, table_obj.name, column.lower(), pattern,
                         index_type, order=self.index_order)
        built: set[int] = set()
        for stored in snapshot.documents(table, column):
            index.index_document(stored.doc_id, stored.document)
            built.add(stored.doc_id)
            self.buffer_pool.release(stored)
        if faults is not None:
            faults.crash_point("index.build.after_scan")
        with self._rwlock.write():
            if key in self.xml_indexes or key in self.rel_indexes:
                raise CatalogError(
                    f"index {name!r} was created concurrently")
            if faults is not None:
                faults.crash_point("index.build.before_catchup")
            live = {stored.doc_id: stored
                    for stored in self.documents(table, column)}
            for doc_id, stored in live.items():
                if doc_id not in built:
                    index.index_document(doc_id, stored.document)
                    self.buffer_pool.release(stored)
            for doc_id in built - live.keys():
                index.forget(doc_id)
            if faults is not None:
                faults.crash_point("index.build.before_publish")
            self._publish_xml_index(index)
            if faults is not None:
                faults.crash_point("index.build.after_publish")
            return index

    def _publish_xml_index(self, index: XmlIndex) -> None:
        """Install a fully built index in the catalog (COW swap).

        The online builder's commit point; DurableDatabase overrides
        this to append the defining DDL to the WAL in the same
        exclusive section."""
        with self._rwlock.write():
            xml_indexes = dict(self.xml_indexes)
            xml_indexes[index.name] = index
            self.xml_indexes = xml_indexes
            self.version += 1

    def autopilot(self, **options):
        """This database's self-driving-indexing facade (lazily built).

        Attaching the autopilot installs its workload profiler, so
        subsequent queries are observed; see
        :class:`repro.autopilot.Autopilot`."""
        with self._rwlock.write():
            if self._autopilot is None:
                from ..autopilot import Autopilot
                self._autopilot = Autopilot(self, **options)
            return self._autopilot

    def create_relational_index(self, name: str, table: str,
                                column: str) -> RelationalIndex:
        with self._rwlock.write():
            key = name.lower()
            if key in self.xml_indexes or key in self.rel_indexes:
                raise CatalogError(f"index {name!r} already exists")
            table_obj = self.table(table)
            if table_obj.column_type(column).is_xml:
                raise CatalogError(
                    f"{table}.{column} is an XML column; use XMLPATTERN "
                    f"DDL")
            index = RelationalIndex(key, table_obj.name, column.lower(),
                                    order=self.index_order)
            for row in table_obj.rows:
                index.insert_row(row.row_id, row.values[column.lower()])
            rel_indexes = dict(self.rel_indexes)
            rel_indexes[key] = index
            self.rel_indexes = rel_indexes
            self.version += 1
            return index

    def drop_index(self, name: str) -> None:
        with self._rwlock.write():
            key = name.lower()
            if key in self.xml_indexes:
                xml_indexes = dict(self.xml_indexes)
                del xml_indexes[key]
                self.xml_indexes = xml_indexes
            elif key in self.rel_indexes:
                rel_indexes = dict(self.rel_indexes)
                del rel_indexes[key]
                self.rel_indexes = rel_indexes
            else:
                raise CatalogError(f"unknown index {name!r}")
            self.version += 1

    # ------------------------------------------------------------------
    # DML (writers)
    # ------------------------------------------------------------------

    def insert(self, table: str, values: dict[str, object],
               schema: str | Schema | dict[str, str | Schema] | None = None
               ) -> Row:
        """Insert a row.  XML column values may be XML text or a
        DocumentNode; ``schema`` optionally names a registered schema
        (or maps column name -> schema) for per-document validation.

        The whole insert — parse, validate, row append, index
        maintenance — is one write-side critical section: concurrent
        readers see either none or all of it."""
        with self._rwlock.write():
            table_obj = self.table(table)
            prepared: dict[str, object] = {}
            stored_docs: list[StoredDocument] = []
            for column_name, value in values.items():
                key = column_name.lower()
                sql_type = table_obj.column_type(key)
                if sql_type.is_xml and value is not None:
                    document = (value if isinstance(value, DocumentNode)
                                else parse_document(str(value)))
                    doc_schema = self._schema_for(schema, key)
                    if doc_schema is not None:
                        validate(document, doc_schema)
                    stored = StoredDocument(
                        next_doc_id(), document,
                        doc_schema.name if doc_schema else None)
                    # Capture the columnar accelerator table at ingest:
                    # one walk builds the (pre, post, level, …) columns
                    # and the path partitions that back the evaluator's
                    # fast paths and index builds; their signature joins
                    # the column's path classes (``new_row``), which
                    # back the planner's cardinality estimates.
                    stored._store = ingest_document(document)
                    stored.path_class = stored._store.path_class()
                    stored._schema = doc_schema
                    if self.buffer_pool.enabled:
                        stored._pool = self.buffer_pool
                    stored_docs.append(stored)
                    prepared[key] = stored
                else:
                    prepared[key] = value
            row = table_obj.new_row(prepared)
            try:
                self._index_row(table_obj, row)
            # sa: ok(SA408: row rollback must fire for any indexing
            # failure before the error propagates)
            except Exception:
                table_obj.remove_row(row)
                raise
            for stored in stored_docs:
                self.buffer_pool.admit(stored)
            self.version += 1
            if self.workload_profiler is not None:
                self.workload_profiler.observe_write(table_obj.name)
            return row

    def _schema_for(self, schema, column: str) -> Schema | None:
        if schema is None:
            return None
        if isinstance(schema, dict):
            schema = schema.get(column)
            if schema is None:
                return None
        if isinstance(schema, Schema):
            return schema
        try:
            return self.schemas[schema]
        except KeyError:
            raise CatalogError(f"unknown schema {schema!r}") from None

    def _index_row(self, table: Table, row: Row) -> None:
        """Add one row to every index on its table, all-or-nothing.

        Both index families sit inside one rollback scope: a failure at
        *any* insert site — an xml-index cast/list-type error or a
        rel-index insert — makes every index forget the row before the
        error propagates, so once the caller rolls the row back no
        index counts an entry of it (the entries already added are
        dead, like a deleted row's).  The fault-injection tests in
        ``tests/unit/test_index_atomicity.py`` pin this.
        """
        with self._rwlock.write():  # reentrant: insert() already holds it
            try:
                for index in self.xml_indexes.values():
                    if index.table != table.name:
                        continue
                    stored = row.values.get(index.column)
                    if isinstance(stored, StoredDocument):
                        index.index_document(stored.doc_id,
                                             stored.document)
                for index in self.rel_indexes.values():
                    if index.table == table.name:
                        index.insert_row(row.row_id,
                                         self._indexed_value(index, row))
            # sa: ok(SA408: atomicity — forget the row in every index
            # whatever the failure, then re-raise)
            except Exception:
                self._forget_row(table, row)
                raise

    def _forget_row(self, table: Table, row: Row) -> None:
        """Stop every index on the table counting the row's entries as
        live.  No document is read and no tree is touched: index
        verdicts reach rows through a row locator, which drops the ids
        of rows its row list does not hold."""
        for index in self.xml_indexes.values():
            if index.table == table.name:
                stored = row.values.get(index.column)
                if isinstance(stored, StoredDocument):
                    index.forget(stored.doc_id)
        for index in self.rel_indexes.values():
            if index.table == table.name:
                index.forget(row.row_id)

    @staticmethod
    def _indexed_value(index: RelationalIndex, row: Row):
        """The row's value for a relationally indexed column, surfacing
        a missing column as a typed :class:`CatalogError` (SQLSTATE
        42703, undefined column) instead of a raw ``KeyError``."""
        try:
            return row.values[index.column]
        except KeyError:
            raise CatalogError(
                f"row {row.row_id} has no value for indexed column "
                f"{index.table}.{index.column}",
                sqlstate="42703") from None

    def delete_rows(self, table: str, predicate=None) -> int:
        """Delete rows matching ``predicate(row_values_dict)`` (all rows
        if None); maintains every index.  Returns the count removed."""
        with self._rwlock.write():
            table_obj = self.table(table)
            victims = [row for row in table_obj.rows
                       if predicate is None or predicate(row.values)]
            return self._remove_rows(table_obj, victims)

    def _delete_positions(self, table: str, positions: list[int]) -> int:
        """Delete rows addressed by position in the table's row list.

        The replay arm of ``delete_rows``: a WAL record (and the
        shipped copy a read replica applies) stores victim *positions*
        because an arbitrary Python predicate is not serializable.
        Rows are reconstructed in original order during replay, so
        positions are deterministic on primary and follower alike."""
        with self._rwlock.write():
            table_obj = self.table(table)
            victims = []
            for position in positions:
                if position >= len(table_obj.rows):
                    from ..errors import DurabilityError
                    raise DurabilityError(
                        f"delete_rows replay: position {position} out "
                        f"of range for table {table_obj.name!r} with "
                        f"{len(table_obj.rows)} row(s)")
                victims.append(table_obj.rows[position])
            return self._remove_rows(table_obj, victims)

    def _remove_rows(self, table_obj: Table, victims: list[Row]) -> int:
        """Remove already-selected rows; every index forgets them.

        Split out of :meth:`delete_rows` so the durability layer can
        delete by logged row position on replay (a Python predicate is
        not representable in a WAL record)."""
        with self._rwlock.write():
            for row in victims:
                self._forget_row(table_obj, row)
                table_obj.remove_row(row)
                for value in row.values.values():
                    if isinstance(value, StoredDocument):
                        self.buffer_pool.discard(value)
            if victims:
                self._compact_indexes(table_obj)
                self.version += 1
                if self.workload_profiler is not None:
                    self.workload_profiler.observe_write(
                        table_obj.name, count=len(victims))
            return len(victims)

    def _compact_indexes(self, table_obj: Table) -> None:
        """Replace every index on the table whose dead entries have
        reached its live ones by its compacted copy (COW swap of the
        catalog dict).

        A snapshot pinned earlier keeps the old object, which no writer
        touches again, so it still answers for the rows it pinned.  No
        WAL record is written: recovery, replicas and the process pool
        rebuild indexes from their DDL."""
        for attribute in ("xml_indexes", "rel_indexes"):
            indexes = getattr(self, attribute)
            stale = [name for name, index in indexes.items()
                     if index.table == table_obj.name
                     and len(index.tree) - len(index) >= max(1, len(index))]
            if stale:
                indexes = dict(indexes)
                for name in stale:
                    indexes[name] = indexes[name].compacted()
                setattr(self, attribute, indexes)

    # ------------------------------------------------------------------
    # Query entry points (readers: shared lock)
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A consistent COW view of catalog + rows at this instant."""
        with self._rwlock.read():
            return Snapshot(self)

    def xquery(self, query: str, use_indexes: bool = True,
               cost_based: bool = False,
               prefilter_threshold: float = 0.9,
               rewrite_views: bool = False,
               tracer=None, variables: dict | None = None):
        """Run a standalone XQuery; returns a planner QueryResult.

        ``cost_based=True`` turns on selectivity-based probe pruning
        (DB2-style cost-based optimization); the default rule-based
        mode uses every eligible index.  ``rewrite_views=True`` enables
        the §3.6 view-flattening rewrite.  ``tracer`` (a
        :class:`repro.obs.trace.Tracer`) records per-stage spans.

        Runs under the shared read lock: any number of queries proceed
        in parallel; DDL/ingest writers are excluded for the duration.
        """
        with self._rwlock.read():
            return super().xquery(
                query, use_indexes=use_indexes, cost_based=cost_based,
                prefilter_threshold=prefilter_threshold,
                rewrite_views=rewrite_views, tracer=tracer,
                variables=variables)

    def process_pool(self, processes: int = 2, **options):
        """A :class:`repro.parallel.pool.ProcessPool` of read replicas.

        Spawns ``processes`` worker processes, each bootstrapped from a
        shipped checkpoint of this database's current state; when the
        database is durable, subsequent WAL records stream to the
        followers so they stay fresh.  Use as a context manager (or
        call ``close()``) so workers shut down gracefully::

            with db.process_pool(processes=4) as pool:
                result = pool.xquery(query)
        """
        from ..parallel.pool import ProcessPool
        return ProcessPool(self, processes=processes, **options)

    def sql(self, statement: str, use_indexes: bool = True, tracer=None):
        """Run an SQL/XML statement.

        SELECT/VALUES run under the shared read lock; INSERT/DELETE
        statements take the exclusive write side up front (the lock
        does not support read→write upgrades)."""
        head = statement.lstrip().upper()
        if head.startswith(("INSERT", "DELETE")):
            guard = self._rwlock.write()
        else:
            guard = self._rwlock.read()
        with guard:
            return super().sql(statement, use_indexes=use_indexes,
                               tracer=tracer)

    def execute_many(self, statements) -> list:
        """Execute a batch of statements serially, in input order.

        ``statements`` is an iterable of XQuery or SQL/DDL texts; each
        result is whatever the matching single-statement entry point
        returns, and each statement is its own critical section.  For
        parallelism across a batch use
        :meth:`repro.parallel.pool.ProcessPool.execute_many`, which
        falls back to this loop.
        """
        return [self.execute_any(statement) for statement in statements]

    def execute_any(self, statement: str):
        """Dispatch one statement text: SQL/DDL heads go through
        :meth:`execute`, anything else is treated as XQuery."""
        head = statement.lstrip().upper()
        if head.startswith(("SELECT", "VALUES") + _WRITE_HEADS):
            return self.execute(statement)
        return self.xquery(statement)

    def explain_analyze(self, statement: str, use_indexes: bool = True):
        """Execute ``statement`` with full instrumentation and return an
        :class:`repro.obs.explain.AnalyzedStatement` — the operator tree
        with actual cardinalities, timings and estimation error."""
        from ..obs.explain import explain_analyze
        return explain_analyze(self, statement, use_indexes=use_indexes)

    def explain(self, query: str) -> str:
        """Eligibility report + access plan for an SQL or XQuery text."""
        head = query.lstrip().upper()
        with self._rwlock.read():
            if head.startswith(("SELECT", "VALUES")):
                from ..sql.executor import explain_sql
                return explain_sql(self, query)
            from ..planner.plan import explain_xquery
            return explain_xquery(self, query)

    def execute(self, statement: str):
        """Dispatch a DDL or query statement given as text."""
        match = _CREATE_XML_INDEX_RE.match(statement)
        if match:
            return self.create_xml_index(
                match.group("name"), match.group("table"),
                match.group("column"),
                match.group("pattern").replace("''", "'"),
                re.sub(r"\s*\(.*\)", "", match.group("type")).upper())
        match = _CREATE_REL_INDEX_RE.match(statement)
        if match:
            return self.create_relational_index(
                match.group("name"), match.group("table"),
                match.group("column"))
        match = _CREATE_TABLE_RE.match(statement)
        if match:
            columns = _parse_column_list(match.group("columns"))
            return self.create_table(match.group("name"), columns)
        match = _DROP_TABLE_RE.match(statement)
        if match:
            return self.drop_table(match.group("name"))
        match = _DROP_INDEX_RE.match(statement)
        if match:
            return self.drop_index(match.group("name"))
        stripped = statement.lstrip().upper()
        if stripped.startswith(("SELECT", "VALUES", "INSERT", "DELETE")):
            return self.sql(statement)
        raise SQLError(f"cannot execute statement: {statement[:60]!r}",
                       "42601")


def _parse_column_list(text: str) -> list[tuple[str, str]]:
    columns: list[tuple[str, str]] = []
    depth = 0
    current: list[str] = []
    pieces: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        pieces.append("".join(current))
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        name, _sep, type_text = piece.partition(" ")
        if not type_text:
            raise SQLError(f"malformed column definition {piece!r}",
                           "42601")
        columns.append((name, type_text.strip()))
    return columns
