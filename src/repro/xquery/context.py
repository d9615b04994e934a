"""The dynamic context the lowered evaluator's closures run against.

A compiled module is lowered once (:mod:`repro.xquery.evaluator`); what
changes between runs — variable bindings, the focus, the database view
and the statistics sink — lives here: one :class:`DynamicContext` per
``evaluate_module`` call (and per user-function call), plus the
children ``bind`` and ``with_focus`` derive from it.  The closures
themselves hold none of it.
"""

from __future__ import annotations

from typing import Any

from ..errors import XQueryDynamicError
from ..xdm.sequence import Item


class DynamicContext:
    """Variable bindings + focus (context item, position, size).

    Contexts are immutable; ``bind`` and ``with_focus`` return children.
    ``database`` gives ``db2-fn:xmlcolumn`` (and ``db2-fn:sqlquery``)
    access to the catalog, mirroring DB2's standalone XQuery interface.
    """

    __slots__ = ("variables", "item", "position", "size", "database",
                 "stats")

    def __init__(self, variables: dict[str, list[Item]] | None = None,
                 item: Item | None = None,
                 position: int = 0,
                 size: int = 0,
                 database: Any = None,
                 stats: Any = None):
        self.variables = variables or {}
        self.item = item
        self.position = position
        self.size = size
        self.database = database
        self.stats = stats

    def bind(self, name: str, value: list[Item]) -> "DynamicContext":
        variables = dict(self.variables)
        variables[name] = value
        return DynamicContext(variables, self.item,
                              self.position, self.size, self.database,
                              self.stats)

    def with_focus(self, item: Item, position: int,
                   size: int) -> "DynamicContext":
        return DynamicContext(self.variables, item,
                              position, size, self.database, self.stats)

    def lookup(self, name: str) -> list[Item]:
        try:
            return self.variables[name]
        except KeyError:
            raise XQueryDynamicError(
                f"undefined variable ${name}", code="XPST0008") from None

    def require_context_item(self) -> Item:
        if self.item is None:
            raise XQueryDynamicError(
                "context item is undefined", code="XPDY0002")
        return self.item
