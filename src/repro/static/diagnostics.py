"""Reason-coded static diagnostics.

Every finding the static analyzer emits carries a stable code, a
severity, and the paper section (plus tip number, where one exists)
that explains it — the same explanation-first philosophy as
:mod:`repro.core.report`, extended from index eligibility to whole-
statement linting.

Codes come in two families:

* ``SE…`` — static *errors*: the statement is wrong or provably
  useless (unknown names, incomparable comparison types per §3.1,
  paths that are statically empty given the column's path summary);
* ``SW…`` — pitfall *warnings*: the statement runs, but §3 says it
  will not run the way its author thinks (namespace drift, ``/text()``
  misalignment, attribute-axis mistakes, uncast joins, existential
  between pairs, non-filtering predicate contexts).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Code(enum.Enum):
    """Stable reason codes for static findings."""

    # value = (code, severity, paper section, tip, title)
    SYNTAX_ERROR = (
        "SE001", "error", "2.1", None,
        "the statement does not parse")
    UNKNOWN_FUNCTION = (
        "SE002", "error", "2.1", None,
        "call to a function that is neither built in nor declared")
    UNKNOWN_VARIABLE = (
        "SE003", "error", "2.1", None,
        "reference to a variable that is not in scope")
    INCOMPARABLE_TYPES = (
        "SE004", "error", "3.1", 1,
        "comparison between statically incomparable types; it can "
        "never be true")
    EMPTY_PATH = (
        "SE005", "error", "2.1", None,
        "path matches no node in any stored document (per the path "
        "summaries); the expression is statically empty")
    UNKNOWN_NAME = (
        "SE006", "error", "3.2", None,
        "SQL reference to an unknown table or column")
    UNCAST_JOIN = (
        "SW301", "warning", "3.1", 1,
        "join predicate has no provable comparison type; no index can "
        "serve it (Tip 1: add xs:double(.) / xs:string(.) casts)")
    NAMESPACE_DRIFT = (
        "SW307", "warning", "3.7", 10,
        "query and data/index disagree on namespaces; the same local "
        "names exist in another namespace")
    TEXT_MISALIGNMENT = (
        "SW308", "warning", "3.8", 11,
        "/text() steps are misaligned between query, data and index; "
        "an element's string value differs from its text child under "
        "mixed content")
    ATTRIBUTE_AXIS = (
        "SW309", "warning", "3.9", 12,
        "attribute nodes are only reached through the attribute axis; "
        "//* and //node() contain no attributes")
    EXISTENTIAL_BETWEEN = (
        "SW310", "warning", "3.10", None,
        "range pair uses existential general-comparison semantics; it "
        "is not a between unless the operand is provably a singleton")
    NON_FILTERING_CONTEXT = (
        "SW320", "warning", "3.2", None,
        "predicate sits in a context that preserves empty results "
        "(let binding, constructor content, select list, XMLTABLE "
        "column); it filters nothing and no index applies")

    def __init__(self, code, severity, section, tip, title):
        self.code = code
        self.severity = severity
        self.section = section
        self.tip = tip
        self.title = title

    def __str__(self) -> str:
        tip = f", Tip {self.tip}" if self.tip else ""
        return f"{self.code} (§{self.section}{tip})"


@dataclass
class Diagnostic:
    """One static finding, ready for human or JSON rendering."""

    code: Code
    message: str
    #: Where the finding anchors: an expression/path/pattern rendering.
    subject: str = ""
    #: ``table.column`` when the finding is tied to an XML column.
    column: str = ""
    detail: str = ""

    @property
    def severity(self) -> str:
        return self.code.severity

    def to_dict(self) -> dict:
        payload = {
            "code": self.code.code,
            "severity": self.code.severity,
            "section": self.code.section,
            "tip": self.code.tip,
            "title": self.code.title,
            "message": self.message,
        }
        for key in ("subject", "column", "detail"):
            value = getattr(self, key)
            if value:
                payload[key] = value
        return payload

    def __str__(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        detail = f" — {self.detail}" if self.detail else ""
        return (f"{self.code.severity} {self.code}: "
                f"{self.message}{subject}{detail}")


@dataclass
class DiagnosticSink:
    """Deduplicating collector shared by the inference walker and the
    rules engine."""

    findings: list = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def add(self, diagnostic: Diagnostic) -> None:
        key = (diagnostic.code, diagnostic.message, diagnostic.subject)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(diagnostic)

    def emit(self, code: Code, message: str, subject: str = "",
             column: str = "", detail: str = "") -> None:
        self.add(Diagnostic(code, message, subject, column, detail))

    @property
    def errors(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == "error"]

    @property
    def warnings(self) -> list:
        return [finding for finding in self.findings
                if finding.severity == "warning"]
