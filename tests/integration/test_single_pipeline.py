"""One execution pipeline: a traced run is the untraced run plus spans.

Every statement below is answered three ways — untraced, traced, and
(XQuery) through a two-replica :class:`ProcessPool` — and the answers
must be byte-identical.  The traced run's span tree (names, nesting,
attribute keys in emission order) must equal
``golden_span_trees.json``, captured at the commit *before* the
traced/untraced twins were merged, so trace version 1 consumers see no
difference.  A deliberate change to the
trace shape re-captures the file with
``PYTHONPATH=src python -m tests.integration.test_single_pipeline``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database
from repro.durability import DurableDatabase
from repro.errors import ReproError
from repro.obs.trace import Tracer, validate_trace
from repro.workload.paperqueries import PAPER_QUERIES, load_paper_fixture

GOLDEN = Path(__file__).with_name("golden_span_trees.json")
XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
XMLTABLE = ("SELECT o.ordid, t.price FROM orders o, "
            "XMLTable('$d//lineitem[@price > 100]' passing o.orddoc as "
            "\"d\" COLUMNS \"price\" DOUBLE PATH '@price') as t(price)")

#: id -> (kind, text, keyword options).  The 30 paper queries, then one
#: statement per remaining span site: planner options, the static
#: prune, and the SQL executor's grouped / ordered / XMLTABLE / VALUES
#: / constructor / disjunction shapes.
STATEMENTS: dict[str, tuple[str, str, dict]] = {
    f"q{number}": (kind, text, {})
    for number, (kind, text) in sorted(PAPER_QUERIES.items())}
STATEMENTS.update({
    "q1-noindex": (*PAPER_QUERIES[1], {"use_indexes": False}),
    "q26-flatten": (*PAPER_QUERIES[26], {"rewrite_views": True}),
    "q8-noindex": (*PAPER_QUERIES[8], {"use_indexes": False}),
    "static-prune": ("xquery", f"for $i in {XMLCOL}"
                     "//order[shipment/@weight > 100] return $i", {}),
    "disjunction": ("xquery", f"{XMLCOL}//order[lineitem/@price > 140 "
                    "or custid = 1003]", {}),
    "sql-relational": ("sql", "SELECT id, name FROM products "
                       "WHERE id = '17'", {}),
    "sql-order-by": ("sql", "SELECT id FROM products ORDER BY id DESC",
                     {}),
    "sql-count": ("sql", "SELECT COUNT(*) FROM orders WHERE XMLEXISTS("
                  "'$d//lineitem[@price > 100]' passing orddoc as \"d\")",
                  {}),
    "sql-group-by": ("sql", "SELECT c.cid, COUNT(*) FROM customer c, "
                     "orders o WHERE XMLEXISTS('$o/order[custid = "
                     "$c/customer/id]' passing o.orddoc as \"o\", "
                     "c.cdoc as \"c\") GROUP BY c.cid", {}),
    "sql-xmltable": ("sql", XMLTABLE, {}),
    "sql-values": ("sql", "VALUES (1, 'x')", {}),
    "sql-constructors": ("sql", "SELECT XMLELEMENT(NAME product, "
                         "XMLATTRIBUTES(id AS pid), name) FROM products",
                         {}),
})


def rendered(result) -> str:
    """Canonical text of an XQuery or SQL result, local or shipped."""
    if not hasattr(result, "columns"):
        return "\n".join(result.serialize())
    return "\n".join(
        ["\t".join(result.columns)]
        + ["\t".join("NULL" if value is None else str(value)
                     for value in row)
           for row in result.serialize_rows()])


def answer(database, kind: str, text: str, options: dict,
           tracer=None) -> str:
    """Canonical answer text; the paper's predicted errors are part of
    the answer (and a traced error still leaves a span tree)."""
    run = database.sql if kind == "sql" else database.xquery
    try:
        return rendered(run(text, tracer=tracer, **options))
    except ReproError as error:
        return f"error: {type(error).__name__}: {error}"


def shape(span: dict) -> list:
    return [span["name"], list(span["attrs"]),
            [shape(child) for child in span["children"]]]


def trace_shape(tracer: Tracer) -> list:
    payload = tracer.to_dict()
    assert validate_trace(payload) == []
    return [shape(span) for span in payload["spans"]]


def paper_database() -> Database:
    database = Database()
    load_paper_fixture(database)
    return database


def pooled_shapes(database) -> dict[str, tuple[str, list]]:
    """id -> (answer, span tree) of every XQuery through the pool."""
    out = {}
    with database.process_pool(processes=2) as pool:
        for name, (kind, text, options) in STATEMENTS.items():
            if kind != "xquery" or options:
                continue
            tracer = Tracer(text, "xquery")
            pooled = answer(pool, kind, text, options, tracer)
            out[f"pool:{name}"] = (pooled, trace_shape(tracer))
    return out


def durability_shapes(directory) -> dict[str, list]:
    """Checkpoint, one more insert, then reopen: recovery loads the
    checkpoint and replays the WAL tail."""
    out = {}
    with DurableDatabase(directory) as database:
        load_paper_fixture(database)
        tracer = Tracer("checkpoint", "sql")
        database.checkpoint(tracer=tracer)
        out["checkpoint"] = trace_shape(tracer)
        database.insert("orders", {"ordid": 8, "orddoc": "<order/>"})
    tracer = Tracer("recover", "sql")
    with DurableDatabase(directory, tracer=tracer) as database:
        assert len(database.documents("orders", "orddoc")) == 8
    out["recover"] = trace_shape(tracer)
    return out


def autopilot_shapes() -> dict[str, list]:
    database = Database()
    load_paper_fixture(database, with_indexes=False)
    pilot = database.autopilot()
    for _ in range(2):
        answer(database, *STATEMENTS["q1"])
    advise = Tracer("advise", "sql")
    assert pilot.advise(tracer=advise)
    apply = Tracer("apply", "sql")
    assert pilot.apply(limit=1, tracer=apply)
    return {"autopilot-advise": trace_shape(advise),
            "autopilot-apply": trace_shape(apply)}


def capture(directory) -> dict[str, list]:
    database = paper_database()
    golden = {}
    for name, (kind, text, options) in STATEMENTS.items():
        tracer = Tracer(text, kind)
        answer(database, kind, text, options, tracer)
        golden[name] = trace_shape(tracer)
    golden.update({name: tree for name, (_answer, tree)
                   in pooled_shapes(database).items()})
    golden.update(durability_shapes(directory))
    golden.update(autopilot_shapes())
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def database() -> Database:
    return paper_database()


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_traced_equals_untraced_and_golden(name, database, golden):
    kind, text, options = STATEMENTS[name]
    plain = answer(database, kind, text, options)
    tracer = Tracer(text, kind)
    assert answer(database, kind, text, options, tracer) == plain
    assert trace_shape(tracer) == golden[name]


def test_pool_answers_and_traces(database, golden):
    pooled = pooled_shapes(database)
    assert pooled.keys() == {name for name in golden
                             if name.startswith("pool:")}
    for name, (pooled_answer, tree) in pooled.items():
        kind, text, options = STATEMENTS[name.removeprefix("pool:")]
        assert pooled_answer == answer(database, kind, text, options), name
        assert tree == golden[name], name


def test_durability_traces(tmp_path, golden):
    for name, tree in durability_shapes(tmp_path / "state").items():
        assert tree == golden[name], name


def test_autopilot_traces(golden):
    for name, tree in autopilot_shapes().items():
        assert tree == golden[name], name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        trees = capture(Path(scratch) / "state")
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(tree)}"
        for name, tree in trees.items()) + "\n}\n", encoding="utf-8")
