"""Differential test: the per-path matcher against the spelled-out NFA.

:class:`~repro.core.patterns.PatternMatcher` answers every question
asked of a stored path by advancing its parent path's memoized state one
step; :meth:`~repro.core.patterns.PathPattern.matches_path` runs the NFA
over the whole spelled-out path.  They must agree for every XMLPATTERN
and every interned path, whatever order the paths are asked in (a
descendant before its ancestors makes the matcher fill the chain in),
and at any depth without recursion.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import ROOT_PATH, PatternMatcher, parse_xmlpattern

from ..paths import spell

PROLOG = "declare namespace p='urn:p'; declare namespace q='urn:q'; "

#: Pattern step tests: names, wildcards, namespaced names, kind tests,
#: PI targets, attributes.
TESTS = ("a", "b", "p:a", "q:b", "*", "p:*", "*:a", "node()", "text()",
         "comment()", "processing-instruction()",
         "processing-instruction(t)", "@a", "@p:a", "@*")
#: ``descendant-or-self::`` expands into a union of alternatives;
#: ``self::`` adds a test to the step before it.
AXES = ("", "", "", "descendant::", "descendant-or-self::", "self::")

#: (kind, uri, local) of a path step.
ELEMENTS = (("element", "", "a"), ("element", "", "b"),
            ("element", "urn:p", "a"), ("element", "urn:q", "b"))
LEAVES = (("attribute", "", "a"), ("attribute", "urn:p", "a"),
          ("attribute", "urn:q", "b"), ("text", "", ""),
          ("comment", "", ""), ("processing-instruction", "", "t"),
          ("processing-instruction", "", "u"))


@st.composite
def pattern_texts(draw) -> str:
    steps = []
    for position in range(draw(st.integers(1, 4))):
        separator = draw(st.sampled_from(["/", "//"]))
        axis = draw(st.sampled_from(AXES[:5] if position == 0 else AXES))
        test = draw(st.sampled_from(TESTS))
        if axis and test.startswith("@"):
            test = test[1:]
        steps.append(f"{separator}{axis}{test}")
    return PROLOG + "".join(steps)


@st.composite
def path_specs(draw) -> list[tuple[str, str, str]]:
    """A root-to-node path: elements, then possibly one leaf."""
    steps = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1,
                          max_size=6))
    if draw(st.booleans()):
        steps.append(draw(st.sampled_from(LEAVES)))
    return steps


def intern(spec) -> list:
    """The interned path of each prefix of ``spec``."""
    nodes = []
    node = ROOT_PATH
    for kind, uri, local in spec:
        node = node.child(kind, uri, local)
        nodes.append(node)
    return nodes


@settings(max_examples=150, deadline=None)
@given(st.lists(pattern_texts(), min_size=1, max_size=3),
       st.lists(path_specs(), min_size=1, max_size=8), st.randoms())
def test_matcher_agrees_with_the_spelled_out_nfa(texts, specs, random):
    paths = sorted({node for spec in specs for node in intern(spec)},
                   key=lambda node: [(step.kind, step.uri, step.local)
                                     for step in spell(node)])
    random.shuffle(paths)
    for text in texts:
        pattern = parse_xmlpattern(text)
        matcher = PatternMatcher(pattern)
        for path in paths:
            assert matcher.matches(path) == \
                pattern.matches_path(list(spell(path))), (text, path)


def test_a_deep_chain_needs_no_recursion():
    # The trie is process-wide and never freed: reuse the name the
    # MAX_DEPTH tests nest.
    chain = intern([("element", "", "e")] * 99_999
                   + [("attribute", "", "a")])
    spelled = list(spell(chain[-1]))
    for text in ("//e/@a", "/e/@a", "/descendant-or-self::e"):
        pattern = parse_xmlpattern(text)
        matcher = PatternMatcher(pattern)
        # Deepest first: 100 000 unknown ancestors, filled iteratively.
        assert matcher.matches(chain[-1]) == pattern.matches_path(spelled)
        assert matcher.matches(chain[-2]) == \
            pattern.matches_path(spelled[:-1])
