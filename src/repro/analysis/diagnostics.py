"""Reason-coded findings for the repo's own concurrency sanitizer.

Same explanation-first philosophy as :mod:`repro.static.diagnostics`,
aimed at the engine's source instead of user statements: every finding
carries a stable ``SA4xx`` code and renders as
``path:line: CODE — message``, which editors and CI greps parse.

Codes:

* ``SA401``–``SA406`` — the interprocedural concurrency passes
  (lock order, upgrades, blocking under locks / in coroutines,
  fork safety, guard-tick discipline);
* ``SA407``–``SA411`` — the lexical rules (lock discipline, broad
  excepts, metrics gating, fsync discipline, one tracing path).

False positives are silenced in place with a ``# sa: ok(SA4xx)``
pragma on (or immediately above) the offending line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

__all__ = ["SACode", "SAFinding", "suppressed"]

#: ``# sa: ok(SA403)`` or ``# sa: ok(SA403: reason text)``.  The
#: closing paren may land on a continuation line — reasons are
#: encouraged to be real sentences — so it is not required here.
_PRAGMA = re.compile(r"#\s*sa:\s*ok\(\s*(SA\d{3})\b")


class SACode(enum.Enum):
    """Stable reason codes for sanitizer findings."""

    # value = (code, title)
    LOCK_ORDER = (
        "SA401",
        "two call paths acquire the same pair of locks in opposite "
        "orders — a potential deadlock")
    LOCK_UPGRADE = (
        "SA402",
        "read->write upgrade attempt on one lock; RWLock raises at "
        "run time, classify the statement before acquiring")
    BLOCKING_UNDER_LOCK = (
        "SA403",
        "blocking call (fsync/socket/pipe/join/sleep) reachable while "
        "a write lock is held")
    BLOCKING_IN_ASYNC = (
        "SA404",
        "synchronous blocking call inside an async coroutine; it "
        "stalls the event loop — dispatch via run_in_executor")
    FORK_WITH_STATE = (
        "SA405",
        "Process(...).start() reachable while a lock or file handle "
        "is held; the child inherits it mid-operation")
    GUARD_TICK = (
        "SA406",
        "row/item loop is not dominated by a QueryGuard.tick call; "
        "deadlines (57014) and budgets (54000) cannot interrupt it")
    LOCK_DISCIPLINE = (
        "SA407",
        "catalog state mutated outside 'with self._rwlock.write()'; "
        "snapshot readers rely on copy-on-write under the writer lock")
    BROAD_EXCEPT = (
        "SA408",
        "broad except swallows engine errors; catch ReproError, "
        "re-raise, or annotate the reason")
    METRICS_GATING = (
        "SA409",
        "METRICS call outside an 'if METRICS.enabled:' guard; the "
        "disabled hot path pays for bookkeeping")
    FSYNC_DISCIPLINE = (
        "SA410",
        "raw file primitive in durability code; all I/O goes through "
        "durability/fsio.py where the write->fsync->rename protocol "
        "and fault points live")
    TRACER_FORK = (
        "SA411",
        "tracer compared against None outside obs/trace.py; entry "
        "points substitute NULL_TRACER once so no call is written twice")

    def __init__(self, code: str, title: str):
        self.code = code
        self.title = title

    def __str__(self) -> str:
        return self.code


@dataclass
class SAFinding:
    """One sanitizer finding, ready for text or JSON rendering."""

    code: SACode
    path: str          # repo-relative, stable across machines
    line: int
    message: str
    #: Optional second anchor (the other half of a lock-order pair).
    related: str = ""
    #: Optional alternate suppression point ``(path, line)`` — for
    #: reachability findings, the resolved callee's ``def`` line, so
    #: one pragma there accepts every call site (e.g. the WAL append
    #: that fsyncs inside the writer section *by design*).
    suppress_at: tuple | None = None

    def to_dict(self) -> dict:
        payload = {
            "code": self.code.code,
            "title": self.code.title,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.related:
            payload["related"] = self.related
        return payload

    def __str__(self) -> str:
        related = f" [{self.related}]" if self.related else ""
        return (f"{self.path}:{self.line}: {self.code.code} — "
                f"{self.message}{related}")


def suppressed(source_lines: list[str], line: int, code: SACode) -> bool:
    """True when ``line`` (1-based) carries a matching suppression.

    The pragma may sit on the flagged line itself or anywhere in the
    contiguous comment block directly above it (multi-line reasons are
    encouraged).
    """
    def _matches(text: str) -> bool:
        return any(match.group(1) == code.code
                   for match in _PRAGMA.finditer(text))

    if not 1 <= line <= len(source_lines):
        return False
    if _matches(source_lines[line - 1]):
        return True
    lineno = line - 1
    while lineno >= 1 and source_lines[lineno - 1].lstrip().startswith("#"):
        if _matches(source_lines[lineno - 1]):
            return True
        lineno -= 1
    return False
