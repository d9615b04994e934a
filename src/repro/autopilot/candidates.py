"""Candidate index generation + benefit estimation.

The lint (:func:`repro.static.lint_statement`) explains *why* a
query's predicates cannot use the indexes that exist; this module
takes the next step and proposes the indexes that *should* exist.  For
every profiled statement it re-extracts the predicate candidates the
eligibility checker works from, keeps the ones with no
:func:`repro.core.eligibility.predicate_obstacles` reason (i.e. an
index could legally answer them — Definition 1's context and type
legs, the same reasons the lint reports), renders the predicate's
root-to-node path back into CREATE INDEX XMLPATTERN DDL, and —
crucially — closes the loop by running the rendered index through
:func:`repro.core.eligibility.check_index` against the very predicate
that motivated it.  A
recommendation that fails its own eligibility check is discarded, so
the autopilot can never advise DDL it would refuse to use.

Benefit is estimated from *observed* workload numbers, not guesses::

    benefit = frequency × (mean docs scanned  −  estimated probe docs)
              − maintenance_weight × observed writes to the table

where the probe estimate is the path-summary document count
(``docs_with_path``) scaled by a default key selectivity — the same
structural statistic that caps EXPLAIN ANALYZE probe estimates, so
advisor and estimates agree about what an index is worth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.eligibility import (check_index, predicate_obstacles,
                                statement_candidates)
from ..errors import ReproError
from ..storage.xmlindex import XmlIndex

__all__ = ["IndexCandidate", "generate_candidates", "render_xmlpattern"]

#: Assumed key selectivity of a typed probe when no histogram exists
#: yet (the index is hypothetical, so it cannot have one).
DEFAULT_SELECTIVITY = 0.25
#: One maintained index entry costs about as much as scanning one
#: document during a bulk write — the units both sides of the benefit
#: subtraction are expressed in.
MAINTENANCE_WEIGHT = 1.0


@dataclass
class IndexCandidate:
    """One recommended CREATE INDEX, with its evidence."""

    name: str
    table: str
    column: str
    pattern: str
    index_type: str
    benefit: float = 0.0
    frequency: int = 0
    statements: list = field(default_factory=list)  # fingerprints

    @property
    def ddl(self) -> str:
        pattern = self.pattern.replace("'", "''")
        return (f"CREATE INDEX {self.name} ON {self.table}"
                f"({self.column}) USING XMLPATTERN '{pattern}' "
                f"AS SQL {self.index_type}")

    def to_dict(self) -> dict:
        return {
            "name": self.name, "table": self.table,
            "column": self.column, "pattern": self.pattern,
            "type": self.index_type, "ddl": self.ddl,
            "benefit": round(self.benefit, 2),
            "frequency": self.frequency,
            "statements": list(self.statements),
        }


# ---------------------------------------------------------------------------
# PathPattern -> XMLPATTERN rendering
# ---------------------------------------------------------------------------

def _render_test(test, namespaces: dict[str, str]) -> str | None:
    """Render one StepTest, registering namespace prefixes as needed."""
    if test.kind == "text":
        return "text()"
    if test.kind not in ("element", "attribute"):
        return None  # comment()/PI/node() predicates are not worth DDL
    prefix = "@" if test.kind == "attribute" else ""
    if test.local is None:
        if test.uri:  # ns:* needs a declared prefix
            return f"{prefix}{_prefix_for(test.uri, namespaces)}:*"
        return None  # bare wildcard step: too broad to recommend
    if test.uri is None:
        return f"{prefix}*:{test.local}"
    if test.uri == "":
        return f"{prefix}{test.local}"
    return f"{prefix}{_prefix_for(test.uri, namespaces)}:{test.local}"


def _prefix_for(uri: str, namespaces: dict[str, str]) -> str:
    prefix = namespaces.get(uri)
    if prefix is None:
        prefix = f"p{len(namespaces) + 1}"
        namespaces[uri] = prefix
    return prefix


def render_xmlpattern(path) -> str | None:
    """Render a predicate's PathPattern as XMLPATTERN DDL text.

    A single linear alternative without self-tests renders exactly;
    otherwise fall back to ``//<final test>`` when every alternative
    ends in the same renderable test (less restrictive than the
    predicate path, hence still containing — the caller re-verifies
    with :func:`check_index` regardless).  Returns None when nothing
    sensible can be rendered.
    """
    namespaces: dict[str, str] = {}
    body = None
    if len(path.alternatives) == 1:
        body = _render_linear(path.alternatives[0], namespaces)
    if body is None:
        namespaces = {}
        finals = {
            _render_test(alternative.final_test, namespaces)
            for alternative in path.alternatives}
        if len(finals) == 1:
            final = finals.pop()
            if final is not None:
                body = f"//{final}"
    if body is None:
        return None
    declarations = "".join(
        f'declare namespace {prefix}="{uri}"; '
        for uri, prefix in namespaces.items())
    return declarations + body


def _render_linear(alternative, namespaces: dict[str, str]) -> str | None:
    parts = []
    for step in alternative.steps:
        if step.extra_tests:
            return None  # self:: refinements: use the // fallback
        rendered = _render_test(step.test, namespaces)
        if rendered is None:
            return None
        parts.append(("//" if step.gap else "/") + rendered)
    return "".join(parts) if parts else None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _already_served(database, candidate) -> bool:
    table, _sep, column = candidate.column.partition(".")
    try:
        indexes = database.xml_indexes_on(table, column)
    except ReproError:
        return False
    return any(check_index(index, candidate).eligible
               for index in indexes)


def _unique_name(database, base: str, pending: set) -> str:
    taken = set(database.xml_indexes) | set(
        getattr(database, "rel_indexes", ()) or ()) | pending
    name = base
    suffix = 2
    while name.lower() in taken:
        name = f"{base}_{suffix}"
        suffix += 1
    pending.add(name.lower())
    return name


def generate_candidates(database, profiler,
                        maintenance_weight: float = MAINTENANCE_WEIGHT
                        ) -> list[IndexCandidate]:
    """Recommend CREATE INDEX DDL for the observed workload.

    Returns candidates with positive estimated benefit, ranked best
    first.  Every returned candidate has passed :func:`check_index`
    against the predicate that motivated it.
    """
    merged: dict[tuple, IndexCandidate] = {}
    pending_names: set = set()
    for profile in profiler.statements():
        try:
            _language, _module, candidates = statement_candidates(
                database, profile.exemplar, profile.language)
        except ReproError:
            continue  # e.g. statement references a dropped table
        for candidate in candidates:
            if predicate_obstacles(candidate):
                continue  # no index could serve it (the lint says why)
            # §2.1: every node appears in a VARCHAR index.
            wanted = ("VARCHAR" if candidate.op == "exists"
                      else candidate.operand_type)
            if _already_served(database, candidate):
                continue
            pattern = render_xmlpattern(candidate.path)
            if pattern is None:
                continue
            table, _sep, column = candidate.column.partition(".")
            key = (table, column, pattern, wanted)
            entry = merged.get(key)
            if entry is None:
                # The prospective index must pass the same Definition-1
                # check the planner will apply — never advise DDL that
                # would be ineligible for its own motivating predicate.
                local = candidate.path.final_tests()[0].local or "node"
                base = f"auto_{table}_{local}_{wanted.lower()}"
                try:
                    prospective = XmlIndex(base, table, column,
                                           pattern, wanted)
                except ReproError:
                    continue
                if not check_index(prospective, candidate).eligible:
                    continue
                entry = IndexCandidate(
                    _unique_name(database, base, pending_names),
                    table, column, pattern, wanted)
                merged[key] = entry
            entry.frequency += profile.count
            entry.benefit += profile.count * _per_query_savings(
                database, profile, candidate, table, column)
            if profile.fingerprint not in entry.statements:
                entry.statements.append(profile.fingerprint)

    ranked = []
    for entry in merged.values():
        entry.benefit -= maintenance_weight * profiler.write_rate(
            entry.table)
        if entry.benefit > 0:
            ranked.append(entry)
    ranked.sort(key=lambda entry: (-entry.benefit, entry.name))
    return _dedupe_by_containment(ranked)


def _dedupe_by_containment(ranked: list[IndexCandidate]
                           ) -> list[IndexCandidate]:
    """Drop a candidate whose pattern a higher-ranked same-typed
    candidate already contains — the broader index serves every
    predicate the narrower one would (§2.2), so the narrower DDL is
    pure maintenance overhead.  Its evidence folds into the keeper."""
    from ..core.patterns import parse_xmlpattern, pattern_contains
    kept: list[IndexCandidate] = []
    for entry in ranked:
        keeper = None
        for other in kept:
            if (other.table, other.column, other.index_type) != \
                    (entry.table, entry.column, entry.index_type):
                continue
            if pattern_contains(parse_xmlpattern(other.pattern),
                                parse_xmlpattern(entry.pattern)):
                keeper = other
                break
        if keeper is None:
            kept.append(entry)
            continue
        keeper.frequency += entry.frequency
        for fingerprint in entry.statements:
            if fingerprint not in keeper.statements:
                keeper.statements.append(fingerprint)
    return kept


def _per_query_savings(database, profile, candidate,
                       table: str, column: str) -> float:
    """Docs a probe would save one execution, from observed scan cost
    and the path summary's structural document count."""
    scanned = profile.mean_docs_scanned
    if scanned <= 0:
        # SQL paths may not materialize documents; fall back to rows.
        scanned = (profile.rows_scanned_total / profile.count
                   if profile.count else 0.0)
    try:
        covered = database.docs_with_path(table, column, candidate.path)
    except ReproError:
        covered = 0
    probe_docs = covered * DEFAULT_SELECTIVITY
    return max(0.0, scanned - probe_docs)
