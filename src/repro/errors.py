"""Error taxonomy for the repro XML database.

XQuery errors carry the W3C ``err:*`` codes the paper relies on (for
example the ``XPDY0050`` type error raised by a leading ``/`` under a
constructed element in Query 25, or the ``XQDY0025`` duplicate-attribute
error of Section 3.6).  SQL errors carry SQLSTATE-like codes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class XMLParseError(ReproError):
    """Raised when a document is not well-formed XML."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaValidationError(ReproError):
    """Raised when a document does not conform to its assigned schema."""


class XQueryError(ReproError):
    """An XQuery static, dynamic, or type error with a W3C error code."""

    #: Default W3C error code; subclasses and call sites may override.
    code = "FOER0000"

    def __init__(self, message: str, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(f"[err:{self.code}] {message}")


class XQueryStaticError(XQueryError):
    """Error detected during parsing / static analysis (XPST*)."""

    code = "XPST0003"


class XQueryTypeError(XQueryError):
    """Dynamic type error (XPTY*, FORG*, FOTY*)."""

    code = "XPTY0004"


class XQueryDynamicError(XQueryError):
    """Generic dynamic evaluation error (XPDY*, FO*)."""

    code = "XPDY0002"


class CastError(XQueryTypeError):
    """A value could not be cast to the requested atomic type (FORG0001)."""

    code = "FORG0001"


class SQLError(ReproError):
    """An SQL compile-time or runtime error with an SQLSTATE-like code."""

    def __init__(self, message: str, sqlstate: str = "42000"):
        self.sqlstate = sqlstate
        super().__init__(f"[SQLSTATE {sqlstate}] {message}")


class SQLSyntaxError(SQLError):
    def __init__(self, message: str):
        super().__init__(message, sqlstate="42601")


class SQLCastError(SQLError):
    """XMLCAST failures: non-singleton input or value out of range."""

    def __init__(self, message: str):
        super().__init__(message, sqlstate="22001")


class CatalogError(ReproError):
    """Unknown or duplicate table / column / index names.

    Carries an SQLSTATE-style class code (``sqlstate``) so callers can
    dispatch on the error class without parsing the message: ``42000``
    (syntax/ddl, the default), ``42703`` (undefined column, e.g. a row
    missing a relationally indexed column).
    """

    def __init__(self, message: str, sqlstate: str = "42000"):
        self.sqlstate = sqlstate
        super().__init__(message)


class PatternSyntaxError(ReproError):
    """Raised for malformed XMLPATTERN index definitions."""


class DurabilityError(ReproError):
    """Corrupt or inconsistent WAL / checkpoint state on disk."""


class QueryTimeoutError(ReproError):
    """A statement overran its deadline (SQLSTATE 57014, the
    query-cancelled class) and was aborted mid-evaluation by its
    :class:`repro.xquery.guard.QueryGuard`."""

    def __init__(self, message: str):
        self.sqlstate = "57014"
        super().__init__(f"[SQLSTATE 57014] {message}")


class QueryLimitError(ReproError):
    """A statement exceeded a configured result budget — row count or
    serialized bytes (SQLSTATE 54000, program limit exceeded)."""

    def __init__(self, message: str):
        self.sqlstate = "54000"
        super().__init__(f"[SQLSTATE 54000] {message}")


class ServerError(ReproError):
    """Base class for the network front door's typed failures; carries
    an SQLSTATE-style class code like :class:`SQLError`."""

    sqlstate = "58000"

    def __init__(self, message: str, sqlstate: str | None = None):
        if sqlstate is not None:
            self.sqlstate = sqlstate
        super().__init__(f"[SQLSTATE {self.sqlstate}] {message}")


class AdmissionError(ServerError):
    """The bounded admission queue is full: the statement was shed
    instead of queued (SQLSTATE 53300, too many connections)."""

    sqlstate = "53300"


class ProtocolError(ServerError):
    """A malformed, torn, or oversized protocol frame (SQLSTATE 08P01,
    protocol violation)."""

    sqlstate = "08P01"


class ReplicationError(ReproError):
    """The process pool was misconfigured (fewer than one worker)."""
