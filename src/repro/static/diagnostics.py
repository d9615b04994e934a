"""Reason-coded static diagnostics: the one table of the paper's tips.

Every finding the static analyzer emits carries a stable code, a
severity, the paper section (plus tip number, where one exists) that
explains it, and the paper's advice as its suggestion — the same
explanation-first philosophy as :mod:`repro.core.report`, extended
from index eligibility to whole-statement linting.  Predicate-level
codes are the eligibility :class:`~repro.core.report.Reason` of the
same fact (:data:`repro.static.rules._REASON_TO_CODE`), so a tip, a
lint finding and an autopilot skip cannot disagree.

Codes come in three families:

* ``SE…`` — static *errors*: the statement is wrong or provably
  useless (unknown names, incomparable comparison types per §3.1,
  paths that are statically empty given the column's path summary);
* ``SW…`` — pitfall *warnings*: the statement runs, but §3 says it
  will not run the way its author thinks.  ``SW3NN`` names the section
  (``SW307`` is §3.7); the §3.2 and §3.4 non-filtering contexts number
  ``SW32x`` and ``SW34x``, the §3.1 index type mismatch ``SW311``;
* ``SI…`` — notes on an index pattern before it is created.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

_TIP_1 = ("Use type-cast expressions in XQuery join predicates "
          "($x/xs:double(.) is more general than xs:double($x)).")
_TIP_10 = ("Keep namespace declarations consistent between data, queries "
           "and indexes, or use namespace wildcards in index patterns.")


class Code(enum.Enum):
    """Stable reason codes for static findings."""

    # value = (code, severity, paper section, tip, title, suggestion)
    SYNTAX_ERROR = (
        "SE001", "error", "2.1", None,
        "the statement does not parse", None)
    UNKNOWN_FUNCTION = (
        "SE002", "error", "2.1", None,
        "call to a function that is neither built in nor declared", None)
    UNKNOWN_VARIABLE = (
        "SE003", "error", "2.1", None,
        "reference to a variable that is not in scope", None)
    INCOMPARABLE_TYPES = (
        "SE004", "error", "3.1", 1,
        "comparison between statically incomparable types; it can "
        "never be true", _TIP_1)
    EMPTY_PATH = (
        "SE005", "error", "2.1", None,
        "path matches no node in any stored document (per the path "
        "summaries); the expression is statically empty", None)
    UNKNOWN_NAME = (
        "SE006", "error", "3.2", None,
        "SQL reference to an unknown table or column", None)
    UNCAST_JOIN = (
        "SW301", "warning", "3.1", 1,
        "join predicate has no provable comparison type; no index can "
        "serve it (Tip 1: add xs:double(.) / xs:string(.) casts)",
        _TIP_1)
    SQL_COMPARISON = (
        "SW303", "warning", "3.3", 6,
        "join over XML values uses SQL comparison semantics (XMLCAST = "
        "XMLCAST); XML indexes implement XQuery comparisons only",
        "Always express XML-to-XML joins on the XQuery side.")
    ABSOLUTE_PATH_IN_CONSTRUCTED_TREE = (
        "SW305", "warning", "3.5", 8,
        "absolute path ('/' or '//') inside a tree rooted at a "
        "constructed element raises err:XPDY0050",
        "Mind the extra navigation level at document nodes, and avoid "
        "absolute paths when the context is a constructed element.")
    NAMESPACE_DRIFT = (
        "SW307", "warning", "3.7", 10,
        "query and data/index disagree on namespaces; the same local "
        "names exist in another namespace",
        _TIP_10)
    TEXT_MISALIGNMENT = (
        "SW308", "warning", "3.8", 11,
        "/text() steps are misaligned between query, data and index; "
        "an element's string value differs from its text child under "
        "mixed content",
        "Align /text() steps between queries and index definitions.")
    ATTRIBUTE_AXIS = (
        "SW309", "warning", "3.9", 12,
        "attribute nodes are only reached through the attribute axis; "
        "//* and //node() contain no attributes",
        "To index all attributes use //@* — //* and //node() contain "
        "no attribute nodes.")
    EXISTENTIAL_BETWEEN = (
        "SW310", "warning", "3.10", None,
        "range pair uses existential general-comparison semantics; it "
        "is not a between unless the operand is provably a singleton",
        "Use value comparisons, the self axis (x[. > 1 and . < 2]), or "
        "attributes.")
    INDEX_TYPE_MISMATCH = (
        "SW311", "warning", "3.1", 1,
        "the comparison's data type is incompatible with the index "
        "type (e.g. a string predicate against a DOUBLE index)", _TIP_1)
    SELECT_LIST = (
        "SW321", "warning", "3.2", 2,
        "predicate in a select-list XMLQUERY cannot eliminate rows; "
        "empty sequences are returned (Query 5)",
        "If only XML fragments are to be retrieved, use the stand-alone "
        "XQuery interface to extract values.")
    BOOLEAN_XMLEXISTS = (
        "SW322", "warning", "3.2", 3,
        "XMLEXISTS over a boolean-valued XQuery never filters: a "
        "boolean is a one-item sequence, so every row qualifies "
        "(Query 9)",
        "Use XMLEXISTS to retrieve full documents by a condition, and "
        "make sure its XQuery returns nodes, not a boolean value.")
    XMLTABLE_COLUMN = (
        "SW323", "warning", "3.2", 4,
        "predicate in an XMLTABLE column path produces NULLs instead "
        "of filtering rows (Query 12)",
        "Use XMLTABLE to retrieve relational and XML values together; "
        "express predicates in the row-producer expression.")
    LET_BINDING = (
        "SW341", "warning", "3.4", None,
        "predicate in a let binding preserves empty sequences; no "
        "index can filter (Query 18)",
        "Bind with a for clause, or add a where clause that discards "
        "the empty sequence (Query 21).")
    CONSTRUCTOR_CONTENT = (
        "SW342", "warning", "3.4", 7,
        "predicate inside an element constructor: an empty element is "
        "returned for every non-qualifying binding (Query 19)",
        "Unless you want empty elements for non-qualifying nodes, do "
        "not put predicates inside element constructors in return "
        "clauses.")
    PATTERN_EMPTY_NAMESPACE = (
        "SI307", "info", "3.7", 10,
        "index pattern restricts element steps to the empty namespace; "
        "queries that declare a default element namespace will not "
        "match it",
        _TIP_10)

    def __init__(self, code, severity, section, tip, title, suggestion):
        self.code = code
        self.severity = severity
        self.section = section
        self.tip = tip
        self.title = title
        self.suggestion = suggestion

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

    @property
    def suggestion(self) -> str | None:
        """The paper's advice for this finding (its tip text)."""
        return self.code.suggestion

    def to_dict(self) -> dict:
        payload = {
            "code": self.code.code,
            "severity": self.code.severity,
            "section": self.code.section,
            "tip": self.code.tip,
            "title": self.code.title,
            "message": self.message,
            "suggestion": self.code.suggestion,
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
