"""Reason-coded eligibility reports.

Every verdict the analyzer produces names the paper section (and tip,
where one exists) that explains it, so both tests and end users can see
*why* an index was accepted or rejected — the paper's complaint that
"the user does not understand why an index is not used and their query
runs so slowly" (Section 3.6) is answered by making the explanation a
first-class value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Reason(enum.Enum):
    """Why an index is or is not eligible for a predicate."""

    # value = (code, paper section, tip number or None, description)
    ELIGIBLE = ("OK", "2.2", None, "index satisfies Definition 1 for this "
                "predicate")
    PATTERN_NOT_CONTAINED = (
        "PATTERN", "2.2", None,
        "the index pattern is more restrictive than the predicate path")
    NAMESPACE_MISMATCH = (
        "NAMESPACE", "3.7", 10,
        "the index and query paths disagree on namespaces; remember that "
        "an index without namespace declarations only stores nodes in the "
        "empty namespace, and default namespaces never apply to attributes")
    TEXT_MISALIGNMENT = (
        "TEXT", "3.8", 11,
        "/text() steps are not aligned between the query and the index "
        "definition; an element's string value differs from its text "
        "child when content is mixed")
    ATTRIBUTE_AXIS = (
        "ATTRIBUTE", "3.9", 12,
        "attribute nodes are only reached through the attribute axis; "
        "//* and //node() patterns contain no attributes")
    TYPE_MISMATCH = (
        "TYPE", "3.1", 1,
        "the comparison's data type is incompatible with the index type "
        "(e.g. a string predicate against a DOUBLE index)")
    TYPE_UNKNOWN = (
        "TYPE?", "3.1", 1,
        "the comparison type cannot be proven at compile time; add "
        "xs:double(.) / xs:string(.) casts (Tip 1)")
    LET_BINDING = (
        "LET", "3.4", None,
        "the predicate sits in a let binding whose empty sequence must "
        "be preserved; no documents may be eliminated")
    CONSTRUCTOR_CONTENT = (
        "CONSTRUCT", "3.4", 7,
        "the predicate is embedded in an element constructor in a "
        "return clause; an (empty) element is built for every binding, "
        "so nothing is filtered")
    KEPT_VALUE = (
        "VALUE", "3.4", None,
        "the predicate's path is inside a function call, sequence, "
        "arithmetic or comparison operand, or an order key, whose value "
        "counts whether the path is empty or not; no documents may be "
        "eliminated")
    AFTER_POSITION = (
        "POSITION", "2.2", None,
        "a for clause before the predicate binds a positional variable; "
        "eliminating documents would renumber the positions")
    SQL_SELECT_LIST = (
        "SELECT-LIST", "3.2", 2,
        "XMLQUERY in the select list cannot eliminate rows; empty "
        "sequences are returned to the user")
    BOOLEAN_XMLEXISTS = (
        "BOOL-EXISTS", "3.2", 3,
        "the XQuery inside XMLEXISTS returns a boolean, which is always "
        "a non-empty sequence, so XMLEXISTS never filters anything")
    XMLTABLE_COLUMN = (
        "XMLTABLE-COL", "3.2", 4,
        "predicates in XMLTABLE COLUMNS path expressions produce NULLs "
        "instead of filtering rows; put them in the row-producer")
    SQL_COMPARISON = (
        "SQL-CMP", "3.3", 6,
        "the join/predicate uses SQL comparison semantics; XML indexes "
        "implement XQuery comparisons and cannot be used")
    NEGATION = (
        "NEGATION", "2.2", None,
        "the predicate is negated; documents lacking the path would "
        "qualify, so an index pre-filter would be incorrect")
    DISJUNCTION_PARTNER_INELIGIBLE = (
        "OR", "2.2", None,
        "the predicate sits under 'or' and a sibling disjunct is not "
        "indexable, so the disjunction cannot be answered by indexes")
    UNANALYZABLE_PATH = (
        "PATH?", "2.2", None,
        "the predicate path could not be normalized to a linear pattern "
        "rooted at an XML column")
    LIST_TYPE_RISK = (
        "LIST", "3.10", None,
        "a list-typed node could make the operand non-singleton")

    def __init__(self, code, section, tip, description):
        self.code = code
        self.section = section
        self.tip = tip
        self.description = description

    def __str__(self) -> str:
        tip = f", Tip {self.tip}" if self.tip else ""
        return f"{self.code} (§{self.section}{tip})"


@dataclass
class IndexVerdict:
    """One (predicate, index) eligibility decision."""

    index_name: str
    eligible: bool
    reasons: list[Reason]
    detail: str = ""

    def __str__(self) -> str:
        verdict = "ELIGIBLE" if self.eligible else "ineligible"
        reasons = "; ".join(str(reason) for reason in self.reasons)
        return f"{self.index_name}: {verdict} [{reasons}] {self.detail}"


@dataclass
class PredicateReport:
    """All verdicts for one extracted predicate."""

    description: str
    column: str
    context: str
    verdicts: list[IndexVerdict] = field(default_factory=list)

    @property
    def eligible_indexes(self) -> list[str]:
        return [verdict.index_name for verdict in self.verdicts
                if verdict.eligible]


@dataclass
class EligibilityReport:
    """The analyzer's answer for a whole query."""

    query: str
    language: str
    predicates: list[PredicateReport] = field(default_factory=list)

    @property
    def eligible_indexes(self) -> list[str]:
        names: list[str] = []
        for predicate in self.predicates:
            for name in predicate.eligible_indexes:
                if name not in names:
                    names.append(name)
        return names

    def is_index_eligible(self, index_name: str) -> bool:
        return index_name.lower() in [name.lower()
                                      for name in self.eligible_indexes]

    def explain(self) -> str:
        lines = [f"eligibility report ({self.language}):"]
        if not self.predicates:
            lines.append("  no indexable predicates found")
        for predicate in self.predicates:
            lines.append(f"  predicate {predicate.description} "
                         f"[{predicate.context}] on {predicate.column}")
            if not predicate.verdicts:
                lines.append("    no candidate indexes on this column")
            for verdict in predicate.verdicts:
                lines.append(f"    {verdict}")
        return "\n".join(lines)
