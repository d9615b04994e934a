"""Guard-tick discipline (SA406).

The server's contract — deadlines (57014) and result budgets (54000)
abort a statement *while it runs* — only holds if every loop that
scales with data volume consults the :class:`~repro.xquery.guard.
QueryGuard`.  This pass walks the two executors' row/item loops and
demands each is *dominated* by a ``.tick(`` call: a tick earlier in
the same function (the evaluator's pre-loop ``guard.tick(len(items)
+ 1)`` pattern), or a tick inside the loop body.  "The same function"
is the loop's innermost enclosing ``def`` or ``lambda``: the evaluator
is a tree of closures built by lowering methods, and a tick in a
sibling closure, or in the method that builds them (which runs at
compile time), guards nothing at run time.

Qualifying loops (``for`` statements only; comprehensions are bounded
by an already-guarded producer):

* ``sql/executor.py`` — iteration over ``envs`` / ``group_envs``,
  anything named or attributed ``rows``, ``self._rows_for(...)`` /
  ``self._xmltable_rows(...)``, and ``enumerate(items)``;
* ``xquery/evaluator.py`` — iteration over the bare name ``items``
  (the context sequence) or ``enumerate(items)``; attribute and call
  forms (``expr.items``, ``mapping.items()``) are query-sized.

Loops that are provably bounded by something the caller already
ticked carry ``# sa: ok(SA406)`` pragmas with the reason.
"""

from __future__ import annotations

import ast

from .callgraph import CallGraph, _dotted
from .diagnostics import SACode, SAFinding

__all__ = ["check_guard_ticks"]

_SQL_NAMES = frozenset({"envs", "group_envs", "rows"})
_SQL_CALLS = frozenset({"_rows_for", "_xmltable_rows"})


def _loop_iter_name(node: ast.For) -> tuple[str | None, bool]:
    """``(canonical name, is_call)`` for what the loop iterates."""
    iter_expr = node.iter
    if (isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id == "enumerate" and iter_expr.args):
        iter_expr = iter_expr.args[0]
    if isinstance(iter_expr, ast.Call):
        dotted = _dotted(iter_expr.func)
        if dotted is not None:
            return dotted.rsplit(".", 1)[-1], True
        return None, True
    dotted = _dotted(iter_expr)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1], isinstance(iter_expr,
                                                     ast.Attribute)
    return None, False


def _qualifies(module: str, name: str | None, is_call: bool) -> bool:
    if name is None:
        return False
    if module == "sql.executor":
        if is_call:
            return name in _SQL_CALLS or name == "rows"
        return name in _SQL_NAMES
    if module == "xquery.evaluator":
        # Only the bare context-sequence name: ``expr.items`` and
        # ``dict.items()`` are query-sized, not data-sized.
        return name == "items" and not is_call
    return False


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scoped(function) -> tuple[list, dict]:
    """(every ``for`` loop with its innermost enclosing def, tick
    lines by def) under ``function``, nested defs included."""
    loops: list = []
    ticks: dict = {}

    def visit(node, scope) -> None:
        if isinstance(node, ast.For):
            loops.append((node, scope))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tick"):
            ticks.setdefault(scope, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(function.node, function.node)
    return loops, ticks


def check_guard_ticks(graph: CallGraph) -> list:
    findings: list = []
    for function in graph.functions.values():
        if function.module not in ("sql.executor", "xquery.evaluator"):
            continue
        loops, ticks = _scoped(function)
        for node, scope in loops:
            name, is_call = _loop_iter_name(node)
            if not _qualifies(function.module, name, is_call):
                continue
            end = node.end_lineno or node.lineno
            dominated = any(tick <= end for tick in ticks.get(scope, ()))
            if dominated:
                continue
            findings.append(SAFinding(
                SACode.GUARD_TICK, function.relpath, node.lineno,
                f"{function.key} iterates {name} without a "
                f"QueryGuard.tick; a deadline or budget cannot "
                f"interrupt this loop"))
    return findings
