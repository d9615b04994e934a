"""Linear path patterns: XMLPATTERN parsing, matching, and containment.

This module owns the path language shared by index definitions and by
query-side predicate paths:

* :func:`parse_xmlpattern` implements the paper's §2.1 CREATE INDEX
  grammar (namespace declarations, ``/`` and ``//`` separators, the
  ``@``/``child::``/``attribute::``/``self::``/``descendant::``/
  ``descendant-or-self::`` axes, name tests with namespace wildcards,
  and kind tests; predicates are not allowed).
* :class:`PathNode` is the one identity of a stored root-to-node path,
  and :class:`PatternMatcher` answers whether it matches a pattern,
  one NFA step (:meth:`PathPattern.advance`) per path; a
  :class:`PathShape` is one document's path table, and a matcher
  answers it once for every document with that table;
  :meth:`PathPattern.matches_path` runs the NFA over a spelled-out
  path (the containment models below).
* :func:`pattern_contains` decides *containment*: every path matched by
  the query pattern is matched by the index pattern.  That is the
  structural half of Definition 1 — "an index cannot be used ... if the
  index expression is more restrictive than the query expression".

Containment is decided by canonical models (in the style of Miklau &
Suciu): instantiate each wildcard with a fresh name and each ``//``-gap
with fresh-element chains of every length up to ``len(index) + 1``,
then check that the index pattern matches every such concrete path.
For linear patterns (no branching predicates) this bound is complete;
if the number of canonical paths explodes past a safety cap we return
False, which is *sound* for eligibility (we only ever refuse to use an
index, never use one incorrectly).
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import weakref
from dataclasses import dataclass

from ..errors import PatternSyntaxError

#: Node kinds a ``node()`` kind test can produce via the child axis.
#: Attributes are deliberately absent: ``//node()`` expands to
#: ``/descendant-or-self::node()/child::node()`` and the child axis
#: never yields attributes (Section 3.9, Tip 12).
_CHILD_NODE_KINDS = ("element", "text", "comment", "processing-instruction")


@dataclass(frozen=True)
class PathComponent:
    """One concrete step of a root-to-node path: (kind, uri, local)."""

    kind: str
    uri: str = ""
    local: str = ""


class PathNode:
    """One interned root-to-node path: its ``parent`` path plus a last
    step laid out like a :class:`PathComponent`, so
    :meth:`StepTest.matches` takes either.  Paths form one process-wide
    trie under :data:`ROOT_PATH` (the empty path) and are never freed:
    equal paths are one object, compared and hashed by identity, and
    extending a path costs O(1) at any depth."""

    __slots__ = ("parent", "kind", "uri", "local", "_children")

    def __init__(self, parent: "PathNode | None", kind: str,
                 uri: str = "", local: str = ""):
        self.parent = parent
        self.kind = kind
        self.uri = uri
        self.local = local
        self._children: dict[tuple[str, str, str], PathNode] = {}

    def child(self, kind: str, uri: str = "", local: str = "") -> "PathNode":
        """The interned path one step below this one."""
        key = (kind, uri, local)
        node = self._children.get(key)
        if node is None:
            # setdefault: two threads extending at once intern one node.
            node = self._children.setdefault(
                key, PathNode(self, kind, uri, local))
        return node


#: The empty path, parent of every document's top-level paths.
ROOT_PATH = PathNode(None, "document")


class PathShape:
    """One document path table: its distinct interned paths in path-id
    order (``ColumnStore.paths``).  :func:`intern_shape` gives every
    store with the same path list one shape, so a
    :class:`PatternMatcher` answers a shape once for all of them.
    Shapes are interned weakly: a shape dies with its last store."""

    __slots__ = ("paths", "ref", "__weakref__")

    def __init__(self, paths: tuple[PathNode, ...]):
        self.paths = paths
        #: The key of this shape's verdicts in every matcher's memo.
        self.ref = weakref.ref(self)


_SHAPES: "weakref.WeakValueDictionary[tuple, PathShape]" = \
    weakref.WeakValueDictionary()
_SHAPES_LOCK = threading.Lock()


def intern_shape(paths) -> PathShape:
    """The one live shape whose path list is ``paths``."""
    key = tuple(paths)
    with _SHAPES_LOCK:
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = PathShape(key)
    return shape


@dataclass(frozen=True)
class StepTest:
    """A test against one path component.

    ``uri``/``local`` semantics: None = wildcard, "" = empty namespace.
    ``kind == 'node'`` matches any child-axis node kind.
    """

    kind: str
    uri: str | None = None
    local: str | None = None
    pi_target: str | None = None

    def matches(self, component: PathComponent | PathNode) -> bool:
        if self.kind == "node":
            if component.kind not in _CHILD_NODE_KINDS:
                return False
        elif self.kind != component.kind:
            return False
        if self.kind in ("element", "attribute"):
            if self.uri is not None and component.uri != self.uri:
                return False
            if self.local is not None and component.local != self.local:
                return False
        if (self.kind == "processing-instruction"
                and self.pi_target is not None
                and component.local != self.pi_target):
            return False
        return True

    def __str__(self) -> str:
        if self.kind in ("element", "attribute"):
            uri = "*:" if self.uri is None else (
                f"{{{self.uri}}}" if self.uri else "")
            local = "*" if self.local is None else self.local
            prefix = "@" if self.kind == "attribute" else ""
            return f"{prefix}{uri}{local}"
        target = self.pi_target or ""
        return f"{self.kind}({target})"


@dataclass(frozen=True)
class PatternStep:
    """One pattern step; ``gap`` means any depth may precede it (//)."""

    test: StepTest
    gap: bool = False
    extra_tests: tuple[StepTest, ...] = ()

    def matches(self, component: PathComponent | PathNode) -> bool:
        return (self.test.matches(component) and
                all(test.matches(component) for test in self.extra_tests))

    def __str__(self) -> str:
        separator = "//" if self.gap else "/"
        extra = "".join(f"[self::{test}]" for test in self.extra_tests)
        return f"{separator}{self.test}{extra}"


@dataclass(frozen=True)
class LinearPattern:
    """A sequence of pattern steps matched against root-to-node paths."""

    steps: tuple[PatternStep, ...]

    def __str__(self) -> str:
        return "".join(str(step) for step in self.steps)

    @property
    def final_test(self) -> StepTest:
        return self.steps[-1].test

    # -- canonical models ------------------------------------------------

    def canonical_paths(self, max_gap: int,
                        cap: int = 50_000) -> list[list[PathComponent]] | None:
        """Representative concrete paths of this pattern.

        Gap steps expand to fresh-element chains of length ``0..max_gap``;
        wildcards become fresh names; ``node()`` tests expand across all
        child node kinds.  Returns None if the enumeration would exceed
        ``cap`` paths (callers must then be conservative).
        """
        per_step_options: list[list[list[PathComponent]]] = []
        fresh_counter = itertools.count()

        for position, step in enumerate(self.steps):
            components = _canonical_components(step, fresh_counter)
            if position < len(self.steps) - 1:
                # Feasibility applied early: every non-final component
                # of a real root-to-node path is an element, so other
                # kind expansions would be filtered later anyway.
                components = [component for component in components
                              if component.kind == "element"]
            if not components:
                # Unsatisfiable step (conflicting self tests): the
                # pattern matches nothing, so any index contains it.
                return []
            options: list[list[PathComponent]] = []
            gap_lengths = range(max_gap + 1) if step.gap else (0,)
            for gap_length in gap_lengths:
                chain = [PathComponent(
                    "element",
                    f"\x00gap-uri-{next(fresh_counter)}",
                    f"\x00gap-{next(fresh_counter)}")
                    for _ in range(gap_length)]
                for component in components:
                    options.append(chain + [component])
            per_step_options.append(options)

        total = 1
        for options in per_step_options:
            total *= len(options)
            if total > cap:
                return None
        paths: list[list[PathComponent]] = []
        for combination in itertools.product(*per_step_options):
            path: list[PathComponent] = []
            for piece in combination:
                path.extend(piece)
            # Only feasible document paths count as counterexamples: in a
            # real tree every non-final component of a root-to-node path
            # is an element (attributes/text/PIs have no children).
            if any(component.kind != "element" for component in path[:-1]):
                continue
            # Attributes and text nodes always hang off an element, so a
            # length-1 path of those kinds cannot occur either.
            if (path and path[-1].kind in ("attribute", "text")
                    and len(path) == 1):
                continue
            paths.append(path)
        return paths


def _canonical_components(step: PatternStep,
                          fresh_counter) -> list[PathComponent]:
    """Concrete components representing one pattern step."""
    tests = (step.test,) + step.extra_tests
    kinds: set[str] | None = None
    for test in tests:
        own = (set(_CHILD_NODE_KINDS) if test.kind == "node"
               else {test.kind})
        kinds = own if kinds is None else (kinds & own)
    assert kinds is not None

    components: list[PathComponent] = []
    for kind in sorted(kinds):
        if kind in ("element", "attribute"):
            uri: str | None = None
            local: str | None = None
            consistent = True
            for test in tests:
                if test.kind == "node":
                    continue
                if test.uri is not None:
                    if uri is not None and uri != test.uri:
                        consistent = False
                        break
                    uri = test.uri
                if test.local is not None:
                    if local is not None and local != test.local:
                        consistent = False
                        break
                    local = test.local
            if not consistent:
                continue
            if uri is None:
                uri = f"\x00fresh-uri-{next(fresh_counter)}"
            if local is None:
                local = f"\x00fresh-{next(fresh_counter)}"
            components.append(PathComponent(kind, uri, local))
        elif kind == "processing-instruction":
            target = None
            for test in tests:
                if test.pi_target is not None:
                    target = test.pi_target
            components.append(PathComponent(
                kind, "", target or f"\x00fresh-pi-{next(fresh_counter)}"))
        else:
            components.append(PathComponent(kind))
    return components


@dataclass(frozen=True)
class PathPattern:
    """A union of linear patterns (descendant-or-self expansion)."""

    alternatives: tuple[LinearPattern, ...]
    source: str = ""

    def __str__(self) -> str:
        return self.source or " | ".join(str(alternative)
                                         for alternative in self.alternatives)

    @property
    def start(self) -> frozenset[tuple[int, int]]:
        """The NFA's start state: position 0 of every alternative."""
        return frozenset((alternative, 0)
                         for alternative in range(len(self.alternatives)))

    def advance(self, states, component: PathComponent | PathNode
                ) -> frozenset[tuple[int, int]]:
        """One NFA step: the ``(alternative, position)`` pairs reached
        from ``states`` by consuming ``component``."""
        reached = set()
        for alternative, position in states:
            steps = self.alternatives[alternative].steps
            if position < len(steps):
                step = steps[position]
                if step.matches(component):
                    reached.add((alternative, position + 1))
                if step.gap:
                    reached.add((alternative, position))  # inside the gap
        return frozenset(reached)

    def accepts(self, states) -> bool:
        return any(position == len(self.alternatives[alternative].steps)
                   for alternative, position in states)

    def matches_path(self, components: list[PathComponent]) -> bool:
        """NFA simulation: does the full path match this pattern?"""
        states = self.start
        for component in components:
            states = self.advance(states, component)
            if not states:
                return False
        return self.accepts(states)

    @property
    def max_steps(self) -> int:
        return max(len(alternative.steps)
                   for alternative in self.alternatives)

    def final_tests(self) -> list[StepTest]:
        return [alternative.final_test for alternative in self.alternatives]


#: Shapes one matcher keeps verdicts for; past it, a new shape's
#: matching path ids are computed on every ask.
MAX_MEMO_SHAPES = 256


class PatternMatcher:
    """One pattern's verdicts, memoized per interned :class:`PathNode`
    and per :class:`PathShape`.

    A path's NFA state (and whether it accepts) is its parent's
    advanced by the path's last step.  Steps are memoized per (state,
    kind, uri, local), which determinizes the NFA lazily: a path costs
    one lookup the first time it is asked about, at any depth, and a
    dict hit afterwards.  Unknown ancestors are filled in iteratively,
    never by recursion.  Build one through :func:`matcher_for`.

    The pattern matches a path from the document root, or, in the
    matcher :meth:`anchored` at a path, the rest of a path below it
    (a relative path from an element of that path).
    """

    __slots__ = ("pattern", "_memo", "_steps", "_shapes", "_anchors")

    def __init__(self, pattern: PathPattern, anchor: PathNode = ROOT_PATH,
                 steps: dict | None = None):
        self.pattern = pattern
        #: path -> (NFA state, verdict); a path off the anchor's
        #: subtree climbs to the root, whose state is then empty
        self._memo: dict[PathNode, tuple[frozenset, bool]] = {
            ROOT_PATH: (frozenset(), False), anchor: (pattern.start, False)}
        #: (state, kind, uri, local) -> the state after that step,
        #: shared with the anchored matchers of the same pattern
        self._steps: dict[tuple, tuple[frozenset, bool]] = (
            {} if steps is None else steps)
        #: weak shape reference -> :meth:`path_ids` of that shape; an
        #: entry leaves with its shape
        self._shapes: dict[weakref.ref, tuple[int, ...]] = {}
        #: anchor path -> the matcher anchored there
        self._anchors: dict[PathNode, PatternMatcher] = {anchor: self}

    def anchored(self, anchor: PathNode) -> "PatternMatcher":
        """This pattern matching the paths below ``anchor`` — each path
        ``anchor + rest`` whose ``rest`` the pattern matches from the
        root — memoized per anchor (this matcher for its own)."""
        matcher = self._anchors.get(anchor)
        if matcher is None:
            matcher = self._anchors.setdefault(anchor, PatternMatcher(
                self.pattern, anchor, self._steps))
        return matcher

    def path_ids(self, shape: PathShape) -> tuple[int, ...]:
        """The ids (positions in ``shape.paths``) of the matching
        paths, ascending: one dict hit for every document of a shape
        asked about before."""
        ids = self._shapes.get(shape.ref)
        if ids is None:
            matches = self.matches
            ids = tuple(path_id for path_id, path in enumerate(shape.paths)
                        if matches(path))
            shapes = self._shapes
            if len(shapes) < MAX_MEMO_SHAPES:
                shapes[weakref.ref(shape, shapes.pop)] = ids
        return ids

    def matches(self, path: PathNode) -> bool:
        state = self._memo.get(path)
        if state is None:
            chain = []
            while state is None:
                chain.append(path)
                path = path.parent
                state = self._memo.get(path)
            for node in reversed(chain):
                key = (state[0], node.kind, node.uri, node.local)
                following = self._steps.get(key)
                if following is None:
                    reached = self.pattern.advance(state[0], node)
                    following = self._steps[key] = (
                        reached, self.pattern.accepts(reached))
                state = self._memo[node] = following
        return state[1]

    def nodes_in(self, path_class: frozenset) -> int:
        """Matching nodes in each document of ``path_class`` (a
        :meth:`repro.storage.columnar.ColumnStore.path_class`
        signature).  Every path of a signature has at least one node, so
        non-zero means "the document contains the path"."""
        return sum(count for path, count in path_class
                   if self.matches(path))


def erase_namespaces(pattern: PathPattern) -> PathPattern:
    """A copy of ``pattern`` with every namespace test wildcarded.

    Used for diagnosis only: if containment succeeds on the erased
    patterns but failed on the originals, the mismatch is a namespace
    problem (Section 3.7) rather than a structural one.
    """
    def erase_test(test: StepTest) -> StepTest:
        if test.kind in ("element", "attribute"):
            return StepTest(test.kind, uri=None, local=test.local,
                            pi_target=test.pi_target)
        return test

    alternatives = []
    for alternative in pattern.alternatives:
        steps = tuple(
            PatternStep(erase_test(step.test), step.gap,
                        tuple(erase_test(extra)
                              for extra in step.extra_tests))
            for step in alternative.steps)
        alternatives.append(LinearPattern(steps))
    return PathPattern(tuple(alternatives))


# The three variants below are the §3.8/§3.9 repairs of a predicate
# path: eligibility asks whether the repaired path fits an index, the
# lint whether it matches stored data.  Each returns None when the
# repair does not apply to every alternative.


def strip_trailing_text(path: PathPattern) -> PathPattern | None:
    """``…/price/text()`` -> ``…/price``."""
    alternatives = []
    changed = False
    for alternative in path.alternatives:
        steps = alternative.steps
        if steps and steps[-1].test.kind == "text":
            steps = steps[:-1]
            changed = True
        if not steps:
            return None
        alternatives.append(LinearPattern(tuple(steps)))
    return PathPattern(tuple(alternatives)) if changed else None


def append_text(path: PathPattern) -> PathPattern | None:
    """``…/price`` -> ``…/price/text()``."""
    alternatives = []
    for alternative in path.alternatives:
        steps = alternative.steps
        if not steps or steps[-1].test.kind != "element":
            return None
        text_step = PatternStep(StepTest("text"))
        alternatives.append(LinearPattern(steps + (text_step,)))
    return PathPattern(tuple(alternatives))


def flip_final_axis(path: PathPattern) -> PathPattern | None:
    """``…/price`` <-> ``…/@price`` — the §3.9 confusion, both ways."""
    alternatives = []
    for alternative in path.alternatives:
        steps = alternative.steps
        if not steps:
            return None
        final = steps[-1]
        if final.test.kind == "element" and final.test.local:
            flipped = StepTest("attribute", final.test.uri,
                               final.test.local)
        elif final.test.kind == "attribute" and final.test.local:
            flipped = StepTest("element", final.test.uri,
                               final.test.local)
        else:
            return None
        steps = steps[:-1] + (PatternStep(flipped, final.gap),)
        alternatives.append(LinearPattern(steps))
    return PathPattern(tuple(alternatives))


@functools.lru_cache(maxsize=256)
def matcher_for(pattern: PathPattern) -> PatternMatcher:
    """The shared matcher of ``pattern``: callers testing one frozen
    pattern (index builds and probes, summary lookups, cardinalities)
    fill and reuse the same memos."""
    return PatternMatcher(pattern)


@functools.lru_cache(maxsize=4096)
def pattern_contains(index_pattern: PathPattern,
                     query_pattern: PathPattern) -> bool:
    """True when every path matched by ``query_pattern`` is matched by
    ``index_pattern`` — i.e. the index is no more restrictive than the
    query (§2.2).  Sound; complete for linear patterns within the cap.
    Memoized: the planner asks on every run of a statement, and both
    patterns are frozen.
    """
    max_gap = index_pattern.max_steps + 1
    for alternative in query_pattern.alternatives:
        canonical = alternative.canonical_paths(max_gap)
        if canonical is None:
            return False  # too many models: refuse (sound)
        for path in canonical:
            if not index_pattern.matches_path(path):
                return False
    return True


# ---------------------------------------------------------------------------
# XMLPATTERN parsing (§2.1 grammar)
# ---------------------------------------------------------------------------

_DECLARE_DEFAULT_RE = re.compile(
    r"declare\s+default\s+element\s+namespace\s+"
    r"(?:\"([^\"]*)\"|'([^']*)')\s*;")
_DECLARE_PREFIX_RE = re.compile(
    r"declare\s+namespace\s+([A-Za-z_][\w.\-]*)\s*=\s*"
    r"(?:\"([^\"]*)\"|'([^']*)')\s*;")

_NCNAME = r"[A-Za-z_][\w.\-]*"
_STEP_RE = re.compile(
    rf"""
    (?P<sep>//|/)
    (?P<axis>@|child::|attribute::|self::|descendant::|
             descendant-or-self::)?
    (?P<test>
        (?:{_NCNAME}:)?{_NCNAME}\(\s*(?:{_NCNAME})?\s*\)   # kind test
        | \*:{_NCNAME}                                      # *:local
        | (?:{_NCNAME}|\*):\*                               # prefix:* or *:*
        | {_NCNAME}:{_NCNAME}                               # qname
        | {_NCNAME}                                         # name
        | \*                                                # *
    )
    """,
    re.VERBOSE)

_KIND_TEST_RE = re.compile(
    rf"(?P<name>{_NCNAME})\(\s*(?P<arg>{_NCNAME})?\s*\)$")

_KIND_TEST_NAMES = {"node", "text", "comment", "processing-instruction"}


@functools.lru_cache(maxsize=512)
def parse_xmlpattern(text: str) -> PathPattern:
    """Parse an XMLPATTERN string into a :class:`PathPattern`.

    Memoized: PathPattern and everything inside it is frozen, so
    repeated DDL/queries with the same pattern text share one parse.
    """
    source = text.strip()
    remaining = source
    default_ns = ""
    namespaces: dict[str, str] = {}

    while True:
        match = _DECLARE_DEFAULT_RE.match(remaining)
        if match:
            default_ns = match.group(1) or match.group(2) or ""
            remaining = remaining[match.end():].lstrip()
            continue
        match = _DECLARE_PREFIX_RE.match(remaining)
        if match:
            namespaces[match.group(1)] = (match.group(2) or
                                          match.group(3) or "")
            remaining = remaining[match.end():].lstrip()
            continue
        break

    if not remaining.startswith("/"):
        raise PatternSyntaxError(
            f"XMLPATTERN must start with '/' or '//': {text!r}")

    # Expand descendant-or-self into a union of linear alternatives.
    alternatives: list[list[PatternStep]] = [[]]
    position = 0
    while position < len(remaining):
        match = _STEP_RE.match(remaining, position)
        if not match:
            raise PatternSyntaxError(
                f"malformed XMLPATTERN step at {remaining[position:]!r}")
        position = match.end()
        gap = match.group("sep") == "//"
        axis = (match.group("axis") or "child::").rstrip(":")
        if axis == "@":
            axis = "attribute"
        test_text = match.group("test")
        test = _parse_step_test(test_text, axis, namespaces, default_ns)

        if axis == "self":
            extended: list[list[PatternStep]] = []
            for alternative in alternatives:
                if gap:
                    # '//self::T' ≡ descendant-or-self with extra test.
                    extended.append(alternative +
                                    [PatternStep(test, gap=True)])
                elif alternative:
                    last = alternative[-1]
                    extended.append(
                        alternative[:-1] +
                        [PatternStep(last.test, last.gap,
                                     last.extra_tests + (test,))])
                else:
                    raise PatternSyntaxError(
                        "self:: axis requires a preceding step")
            alternatives = extended
        elif axis == "descendant":
            alternatives = [alternative + [PatternStep(test, gap=True)]
                            for alternative in alternatives]
        elif axis == "descendant-or-self":
            # Union: (extra test on the previous step) OR (gap step).
            extended = []
            for alternative in alternatives:
                extended.append(alternative + [PatternStep(test, gap=True)])
                if alternative:
                    last = alternative[-1]
                    extended.append(
                        alternative[:-1] +
                        [PatternStep(last.test, last.gap,
                                     last.extra_tests + (test,))])
            alternatives = extended
        else:  # child / attribute
            alternatives = [alternative + [PatternStep(test, gap=gap)]
                            for alternative in alternatives]

    if position != len(remaining.rstrip()):
        raise PatternSyntaxError(
            f"trailing input in XMLPATTERN: {remaining[position:]!r}")

    linear = tuple(LinearPattern(tuple(steps))
                   for steps in alternatives if steps)
    if not linear:
        raise PatternSyntaxError(f"empty XMLPATTERN {text!r}")
    return PathPattern(linear, source=source)


def _parse_step_test(text: str, axis: str, namespaces: dict[str, str],
                     default_ns: str) -> StepTest:
    kind_match = _KIND_TEST_RE.match(text)
    if kind_match and (kind_match.group("name") in _KIND_TEST_NAMES):
        name = kind_match.group("name")
        if name == "processing-instruction":
            return StepTest("processing-instruction",
                            pi_target=kind_match.group("arg"))
        if kind_match.group("arg"):
            raise PatternSyntaxError(f"{name}() takes no argument")
        if name == "node":
            if axis == "attribute":
                return StepTest("attribute")
            return StepTest("node")
        return StepTest(name)

    kind = "attribute" if axis == "attribute" else "element"
    # Default element namespaces never apply to attributes (§3.7).
    applicable_default = "" if kind == "attribute" else default_ns

    if text == "*":
        return StepTest(kind)
    if text.startswith("*:"):
        return StepTest(kind, uri=None, local=text[2:])
    if text.endswith(":*"):
        prefix = text[:-2]
        if prefix not in namespaces:
            raise PatternSyntaxError(
                f"undeclared namespace prefix {prefix!r} in XMLPATTERN")
        return StepTest(kind, uri=namespaces[prefix], local=None)
    if ":" in text:
        prefix, local = text.split(":", 1)
        if prefix not in namespaces:
            raise PatternSyntaxError(
                f"undeclared namespace prefix {prefix!r} in XMLPATTERN")
        return StepTest(kind, uri=namespaces[prefix], local=local)
    return StepTest(kind, uri=applicable_default, local=text)
