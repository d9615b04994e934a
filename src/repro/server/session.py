"""Per-connection session state and statement execution.

A :class:`Session` owns everything one connection accumulates:

* a **pinned snapshot** — reads run against a copy-on-write
  :class:`~repro.storage.snapshot.Snapshot` captured at connect time,
  so a session sees one consistent database version across statements
  regardless of concurrent writers.  The snapshot is re-pinned after
  the session's *own* writes (read-your-writes) or explicitly via the
  ``refresh`` op; other sessions keep their stable views.
* **prolog/namespace defaults** (``prolog`` op): declaration text
  prepended to every XQuery statement the session runs — the full text
  is what hits the compiled-query cache, so two sessions with the same
  prolog share one plan.
* **session variables** (``set`` op): transaction-free scalars bound
  as external variables (``$name``) in every XQuery evaluation.
* **prepared statements** (``prepare`` / ``execute`` / ``deallocate``):
  handles whose compiled plan is *pinned* in the shared compiled-query
  cache (:func:`repro.core.querycache.pin_query`) so LRU churn from
  ad-hoc traffic cannot evict a prepared plan.

Statement execution (:meth:`Session.run_statement`) happens on an
engine worker thread.  Reads evaluate on the pinned snapshot while
holding the database's *shared* read side — readers still run
concurrently, but in-place index structures (B+Trees) are protected
from torn observation during writes.  Writes route through the
database's ordinary entry points under the exclusive write lock (and
the WAL, when the database is durable).
"""

from __future__ import annotations

from ..errors import ProtocolError, ReproError
from ..storage.catalog import _WRITE_HEADS
from ..xdm import atomic
from ..xmlio.serializer import serialize
from ..xquery.guard import QueryGuard, guarded

__all__ = ["Session", "classify_statement"]

_SQL_READ_HEADS = ("SELECT", "VALUES")


def classify_statement(text: str) -> str:
    """``'xquery'`` | ``'sql'`` (read) | ``'write'`` by statement head."""
    head = text.lstrip().upper()
    if head.startswith(_SQL_READ_HEADS):
        return "sql"
    if head.startswith(_WRITE_HEADS):
        return "write"
    return "xquery"


class _Prepared:
    __slots__ = ("handle", "statement", "kind", "pinned")

    def __init__(self, handle: int, statement: str, kind: str,
                 pinned: bool):
        self.handle = handle
        self.statement = statement
        self.kind = kind
        self.pinned = pinned


class Session:
    """One connection's state; statements execute serially per session
    (the protocol is strict request/response), so no internal lock."""

    def __init__(self, session_id: int, database):
        self.session_id = session_id
        self.database = database
        self.snapshot = database.snapshot()
        self.prolog_text = ""
        self.variables: dict[str, list] = {}
        self.prepared: dict[int, _Prepared] = {}
        self._next_handle = 1
        self.statements_run = 0

    # ------------------------------------------------------------------
    # Session state ops (cheap; run on the event loop)
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Re-pin the snapshot at the current database version."""
        self.snapshot = self.database.snapshot()
        return self.snapshot.version

    def set_prolog(self, text: str) -> None:
        if not isinstance(text, str):
            raise ProtocolError("prolog text must be a string")
        self.prolog_text = text

    def set_variable(self, name: str, value) -> None:
        if not isinstance(name, str) or not name:
            raise ProtocolError("variable name must be a non-empty "
                                "string")
        self.variables[name] = _as_items(value)

    def prepare(self, statement: str) -> _Prepared:
        kind = classify_statement(statement)
        full = self._full_text(statement, kind)
        pinned = False
        if kind == "xquery":
            from ..core.querycache import pin_query
            pin_query(full)  # parses now: a bad statement fails PREPARE
            pinned = True
        handle = self._next_handle
        self._next_handle += 1
        prepared = _Prepared(handle, full, kind, pinned)
        self.prepared[handle] = prepared
        return prepared

    def deallocate(self, handle: int) -> None:
        prepared = self.prepared.pop(handle, None)
        if prepared is None:
            raise ProtocolError(f"unknown prepared handle {handle}")
        if prepared.pinned:
            from ..core.querycache import unpin_query
            unpin_query(prepared.statement)

    def close(self) -> None:
        """Release every pinned plan (idempotent)."""
        prepared, self.prepared = self.prepared, {}
        from ..core.querycache import unpin_query
        for statement in prepared.values():
            if statement.pinned:
                unpin_query(statement.statement)

    # ------------------------------------------------------------------
    # Statement execution (runs on an engine worker thread)
    # ------------------------------------------------------------------

    def run_statement(self, statement: str, guard: QueryGuard,
                      use_indexes: bool = True,
                      variables: dict | None = None) -> dict:
        """Execute one statement text and build its response payload."""
        kind = classify_statement(statement)
        full = self._full_text(statement, kind)
        return self._run(full, kind, guard, use_indexes, variables)

    def run_prepared(self, handle: int, guard: QueryGuard,
                     use_indexes: bool = True,
                     variables: dict | None = None) -> dict:
        prepared = self.prepared.get(handle)
        if prepared is None:
            raise ProtocolError(f"unknown prepared handle {handle}")
        return self._run(prepared.statement, prepared.kind, guard,
                         use_indexes, variables)

    def _run(self, full: str, kind: str, guard: QueryGuard,
             use_indexes: bool, variables: dict | None) -> dict:
        self.statements_run += 1
        with guarded(guard):
            if kind == "write":
                return self._run_write(full)
            if kind == "sql":
                return self._run_sql(full, guard, use_indexes)
            return self._run_xquery(full, guard, use_indexes, variables)

    def _run_write(self, statement: str) -> dict:
        database = self.database
        result = database.execute(statement)
        # Read-your-writes: the session's next read must see this.
        self.refresh()
        affected = len(result) if hasattr(result, "__len__") else 1
        return {"ok": True, "kind": "write", "affected": affected,
                "version": database.version}

    def _run_sql(self, statement: str, guard: QueryGuard,
                 use_indexes: bool) -> dict:
        with self.database._rwlock.read():
            result = self.snapshot.sql(statement,
                                       use_indexes=use_indexes)
        guard.check_items(len(result.rows))
        columns = list(result.columns)
        rows: list[list] = []
        for row in result.serialize_rows():
            rendered = [None if value is None else str(value)
                        for value in row]
            guard.charge_bytes(sum(len(value) for value in rendered
                                   if value is not None))
            rows.append(rendered)
        return {"ok": True, "kind": "sql", "columns": columns,
                "rows": rows}

    def _run_xquery(self, statement: str, guard: QueryGuard,
                    use_indexes: bool, variables: dict | None) -> dict:
        bound = dict(self.variables)
        for name, value in (variables or {}).items():
            bound[name] = _as_items(value)
        with self.database._rwlock.read():
            result = self.snapshot.xquery(statement,
                                          use_indexes=use_indexes,
                                          variables=bound or None)
        guard.check_items(len(result.items))
        texts: list[str] = []
        for item in result.items:
            text = serialize(item)
            guard.charge_bytes(len(text))
            texts.append(text)
        return {"ok": True, "kind": "xquery", "items": texts,
                "docs_scanned": result.stats.docs_scanned}

    # ------------------------------------------------------------------

    def _full_text(self, statement: str, kind: str) -> str:
        if not isinstance(statement, str) or not statement.strip():
            raise ProtocolError("statement must be a non-empty string")
        if kind == "xquery" and self.prolog_text:
            return self.prolog_text + statement
        return statement


def _as_items(value) -> list:
    """A JSON scalar (or flat list of scalars) as an XDM sequence."""
    if isinstance(value, list):
        items: list = []
        for entry in value:
            items.extend(_as_items(entry))
        return items
    if isinstance(value, bool):
        return [atomic.boolean(value)]
    if isinstance(value, int):
        return [atomic.integer(value)]
    if isinstance(value, float):
        return [atomic.double(value)]
    if isinstance(value, str):
        return [atomic.string(value)]
    if value is None:
        return []
    raise ProtocolError(
        f"unsupported variable value of type {type(value).__name__}")


_ = ReproError  # re-exported for type context in docstrings
