"""XQuery engine: lexer, parser, and the lowering evaluator."""

from .evaluator import evaluate, evaluate_module
from .parser import parse_expression, parse_xquery

__all__ = ["evaluate", "evaluate_module", "parse_expression",
           "parse_xquery"]
