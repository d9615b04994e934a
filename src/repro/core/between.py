"""Between-predicate detection (Section 3.10).

XQuery has no ``between`` operator, and the existential semantics of
general comparisons mean ``lineitem[price > 100 and price < 200]`` is
*not* a between: one price of 250 and another of 50 satisfy it even
though no price is in the range.  Such a conjunction needs **two**
index scans whose node sets are intersected (ANDed).

A pair of range predicates collapses into a **single** range scan only
when the compared item is provably a singleton:

* value comparisons (``price gt 100 and price lt 200``) — they fail at
  runtime if price is not a singleton;
* the self axis (``price[. > 100 and . < 200]`` or the
  ``data()[. > ...]`` form) — '.' binds exactly one node per step;
* an attribute step naming one QName, one step from its focus or a
  ``for`` variable (``lineitem[@price > 100 and @price < 200]``,
  ``$l/@price``) — an attribute occurs at most once per element (and
  list types are prohibited in indexed documents, footnote 5).
  ``l/@price`` is not one: it crosses a many-valued ``l``, so one ``l``
  may pass the lower bound and another the upper one; nor is
  ``$l/@price`` for a ``let`` variable, which may hold several nodes,
  nor a wildcard ``@*``, ``@ns:*`` or ``@*:price``, which selects
  several attributes of one element.

:func:`one_node` is that rule for a comparison side's steps, read by
the predicate extractor and by the evaluator's column kernel.

The planner's merged range scan of a single-scan pair answers the
pair's nodes when each bound alone would be exact
(:func:`repro.planner.plan._merged_probe`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..xquery import ast
    from .predicates import PredicateCandidate


@dataclass
class BetweenGroup:
    """Two range predicates over the same item."""

    lower: PredicateCandidate       # the '>'-ish bound
    upper: PredicateCandidate       # the '<'-ish bound
    single_scan: bool               # one range scan vs two ANDed scans

    @property
    def description(self) -> str:
        mode = ("single range scan" if self.single_scan
                else "two index scans + intersection")
        return (f"between: {self.lower.description} AND "
                f"{self.upper.description} -> {mode}")


#: The operators of a pair's lower and upper bound.
LOWER_OPS = frozenset({">", ">=", "gt", "ge"})
UPPER_OPS = frozenset({"<", "<=", "lt", "le"})


def one_node(steps: Sequence[ast.AxisStep]) -> bool:
    """Do the child and attribute name-test ``steps`` of a comparison
    side select at most one node from one context node: none (``.``),
    or one attribute step whose name test names one QName?"""
    if not steps:
        return True
    if len(steps) != 1:
        return False
    step = steps[0]
    return (step.axis == "attribute" and step.test.uri is not None
            and step.test.local is not None)


def detect_between(candidates: list[PredicateCandidate]
                   ) -> list[BetweenGroup]:
    """Pair up range predicates within each conjunction.

    Predicates pair when they constrain the same path on the same
    column within the same ``and``-conjunction.  The pair collapses to
    a single range scan only when *both* sides carry a singleton
    guarantee (see module docstring).
    """
    groups: list[BetweenGroup] = []
    used: set[int] = set()
    buckets: dict[tuple, list[PredicateCandidate]] = {}
    for candidate in candidates:
        if not candidate.is_range or candidate.conjunct_group == 0:
            continue
        key = (candidate.column, candidate.conjunct_group,
               str(candidate.path), candidate.context)
        buckets.setdefault(key, []).append(candidate)

    for bucket in buckets.values():
        lowers = [candidate for candidate in bucket
                  if candidate.op in LOWER_OPS]
        uppers = [candidate for candidate in bucket
                  if candidate.op in UPPER_OPS]
        for lower, upper in zip(lowers, uppers):
            if id(lower) in used or id(upper) in used:
                continue
            used.add(id(lower))
            used.add(id(upper))
            single = (lower.singleton_guaranteed and
                      upper.singleton_guaranteed)
            groups.append(BetweenGroup(lower, upper, single))
    return groups
