"""Core contribution: index eligibility analysis, between detection,
and pattern containment (the pitfall advice built on them is
:func:`repro.static.lint_statement`)."""

from .between import BetweenGroup, detect_between
from .eligibility import (analyze_candidates, analyze_eligibility,
                          check_index, predicate_obstacles,
                          statement_candidates)
from .patterns import (LinearPattern, PathComponent, PathPattern,
                       PatternStep, StepTest, erase_namespaces,
                       parse_xmlpattern, pattern_contains)
from .predicates import (FILTERING_CONTEXTS, Origin, PredicateCandidate,
                         PredicateContext, SQLTypedValue,
                         extract_candidates)
from .querycache import CompiledQuery, compile_query
from .report import EligibilityReport, IndexVerdict, PredicateReport, Reason
from .rewriter import RewriteResult, rewrite_view_flattening

__all__ = [
    "BetweenGroup", "CompiledQuery", "compile_query",
    "EligibilityReport", "FILTERING_CONTEXTS",
    "IndexVerdict", "LinearPattern", "Origin", "PathComponent",
    "PathPattern", "PatternStep", "PredicateCandidate", "PredicateContext",
    "PredicateReport", "Reason", "SQLTypedValue", "StepTest",
    "analyze_candidates", "analyze_eligibility", "check_index",
    "detect_between", "erase_namespaces", "extract_candidates",
    "parse_xmlpattern", "pattern_contains", "predicate_obstacles",
    "statement_candidates",
]
