"""EXPLAIN ANALYZE: run the plan, annotate operators with actuals.

``EXPLAIN`` prints what the planner *intends*; ``EXPLAIN ANALYZE``
executes the statement under a :class:`repro.obs.trace.Tracer` and
turns the span tree into an operator tree where every operator carries

* **actual cardinality** (documents for index probes, rows/items for
  the statement),
* **actual wall time**, and
* **estimated-vs-actual error** where the planner produced an estimate
  (index probes: histogram selectivity × path-summary coverage cap).

The q-error convention is used for estimation error:
``max(actual/estimated, estimated/actual)`` — 1.0 is a perfect
estimate, and the factor reads the same whether the planner over- or
under-estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import Span, Tracer

__all__ = ["OperatorNode", "AnalyzedStatement", "explain_analyze"]

#: Span attributes lifted into first-class OperatorNode fields.
_LIFTED = ("actual_rows", "estimated_rows", "unit")


@dataclass
class OperatorNode:
    """One plan operator with its measured runtime behaviour."""

    name: str
    time_ms: float
    actual_rows: float | None = None
    estimated_rows: float | None = None
    unit: str = "rows"
    attrs: dict = field(default_factory=dict)
    children: list["OperatorNode"] = field(default_factory=list)

    @classmethod
    def from_span(cls, span: Span, origin: float = 0.0) -> "OperatorNode":
        attrs = dict(span.attrs)
        lifted = {key: attrs.pop(key) for key in _LIFTED if key in attrs}
        node = cls(
            name=span.name,
            time_ms=round(span.duration * 1000.0, 4),
            actual_rows=lifted.get("actual_rows"),
            estimated_rows=lifted.get("estimated_rows"),
            unit=lifted.get("unit", "rows"),
            attrs=attrs,
            children=[cls.from_span(child) for child in span.children])
        return node

    def q_error(self) -> float | None:
        """max(actual/est, est/actual); None when either is unknown."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        estimated = max(float(self.estimated_rows), 1e-9)
        actual = max(float(self.actual_rows), 1e-9)
        return max(actual / estimated, estimated / actual)

    def find(self, name: str) -> list["OperatorNode"]:
        """All descendants (and self) with the given operator name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> dict:
        error = self.q_error()
        return {
            "operator": self.name,
            "time_ms": self.time_ms,
            "actual_rows": self.actual_rows,
            "estimated_rows": self.estimated_rows,
            "q_error": round(error, 3) if error is not None else None,
            "unit": self.unit,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        parts = []
        if self.estimated_rows is not None:
            parts.append(f"est {self.unit}={self.estimated_rows:g}")
        if self.actual_rows is not None:
            parts.append(f"actual {self.unit}={self.actual_rows:g}")
        error = self.q_error()
        if error is not None:
            parts.append(f"err={error:.2f}x")
        for key, value in self.attrs.items():
            parts.append(f"{key}={value}")
        parts.append(f"time={self.time_ms:.3f} ms")
        line = "  " * indent + f"-> {self.name}  [{', '.join(parts)}]"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass
class AnalyzedStatement:
    """EXPLAIN ANALYZE output: result + operator tree + raw trace."""

    statement: str
    language: str             # 'xquery' | 'sql'
    root: OperatorNode
    items: list              # XQuery items, or SQL row tuples
    columns: list[str]       # SQL column names ([] for XQuery)
    stats: object            # planner ExecutionStats
    tracer: Tracer

    def __len__(self) -> int:
        return len(self.items)

    def operators(self, name: str) -> list[OperatorNode]:
        return self.root.find(name)

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "language": self.language,
            "plan": self.root.to_dict(),
            "trace": self.tracer.to_dict(),
        }

    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE ({self.language})",
                 f"statement: {self.statement}"]
        lines.append(self.root.render())
        return "\n".join(lines)


def _root_operator(tracer: Tracer, name: str,
                   actual_rows: int, unit: str) -> OperatorNode:
    root = OperatorNode(name=name,
                        time_ms=round(tracer.total_seconds() * 1000.0, 4),
                        actual_rows=actual_rows, unit=unit)
    root.children = [OperatorNode.from_span(span)
                     for span in tracer.roots]
    return root


def explain_analyze(database, statement: str,
                    use_indexes: bool = True) -> AnalyzedStatement:
    """Execute ``statement`` (XQuery or SQL) with full instrumentation.

    Estimation (cost-model histograms, path-summary coverage caps) is
    computed *only* on this path — plain executions never pay for it.
    """
    head = statement.lstrip().upper()
    if head.startswith(("SELECT", "VALUES", "INSERT", "DELETE")):
        return _analyze_sql(database, statement, use_indexes)
    return _analyze_xquery(database, statement, use_indexes)


def _analyze_xquery(database, statement: str,
                    use_indexes: bool) -> AnalyzedStatement:
    from ..planner.plan import execute_xquery
    from ..xmlio.serializer import serialize_sequence

    tracer = Tracer(statement, "xquery")
    result = execute_xquery(database, statement, use_indexes=use_indexes,
                            tracer=tracer)
    with tracer.span("serialize") as span:
        text = serialize_sequence(result.items)
        span.set(actual_rows=len(result.items), unit="items",
                 bytes=len(text.encode("utf-8", "replace")))
    root = _root_operator(tracer, "xquery", len(result.items), "items")
    return AnalyzedStatement(statement, "xquery", root, result.items,
                             [], result.stats, tracer)


def _analyze_sql(database, statement: str,
                 use_indexes: bool) -> AnalyzedStatement:
    from ..sql.executor import execute_sql

    tracer = Tracer(statement, "sql")
    result = execute_sql(database, statement, use_indexes=use_indexes,
                         tracer=tracer)
    with tracer.span("serialize") as span:
        rendered = result.serialize_rows()
        span.set(actual_rows=len(rendered), unit="rows")
    root = _root_operator(tracer, "sql", len(result.rows), "rows")
    return AnalyzedStatement(statement, "sql", root, list(result.rows),
                             list(result.columns), result.stats, tracer)
