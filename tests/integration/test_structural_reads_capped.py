"""Structural reads never touch a document, even under a capped pool.

``docs_with_path`` / ``path_cardinality``, the static-emptiness prune
(``static_prefilter_facts``) and the ``repro lint`` drift check are
questions about root-to-node paths, answered from the column's path
summary (``Table.path_classes``).  Under a buffer pool capped far
below the collection's trees — tier 1, a plain database whose eviction
keeps the columns resident, and tier 2, a durable one whose eviction
drops them, leaving the segment in the log — they must re-materialize
no document and read no segment back (zero
``columnar.materializations``, ``bufferpool.misses`` and
``bufferpool.loads``) and return exactly what an uncapped twin does.
With ``StoredDocument.columns`` made to raise they still answer.
"""

import pytest

from repro.core.querycache import compile_query
from repro.durability import DurableDatabase
from repro.obs.metrics import METRICS, enabled_metrics
from repro.static import lint_statement
from repro.static.infer import static_prefilter_facts
from repro.storage.catalog import Database
from repro.storage.table import StoredDocument
from repro.workload import populate_paper_schema

ORDERS = 60
XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
COLUMNS = (("orders", "orddoc"), ("customer", "cdoc"))
PATTERNS = ("//lineitem/@price", "//order/custid", "//customer/id",
            "//lineitem/product/id", "//order/custid/text()",
            "//warehouse/code", "//lineitem/price", "//@*")
#: A static-prune statement (SE005) and the three §3.7–§3.9 drift
#: findings the lint derives from path counts alone.
STATEMENTS = (
    f"for $i in {XMLCOL}//order[warehouse/code = 'X'] return $i",
    "declare namespace f = 'http://fruit.example'; "
    f"for $i in {XMLCOL}//f:order[f:lineitem/@price > 100] return $i",
    f"for $i in {XMLCOL}//order[custid/text() = '1001'] return $i",
    f"for $i in {XMLCOL}//order[lineitem/price > 100] return $i",
)
EXPECTED_CODES = {"SE005", "SW307", "SW308", "SW309"}


def build(budget=None, directory=None) -> Database:
    database = (Database(buffer_pool_bytes=budget) if directory is None
                else DurableDatabase(directory, buffer_pool_bytes=budget))
    populate_paper_schema(database, orders=ORDERS, customers=8,
                          products=10, seed=7)
    return database


def structural_answers(database) -> dict:
    answers = {}
    for table, column in COLUMNS:
        for pattern in PATTERNS:
            answers[table, pattern] = (
                database.docs_with_path(table, column, pattern),
                database.path_cardinality(table, column, pattern))
    for statement in STATEMENTS:
        facts = static_prefilter_facts(
            database, list(compile_query(statement).candidates))
        answers["facts", statement] = (facts.empty_columns,
                                       facts.checked)
        answers["lint", statement] = sorted(
            (finding.code.code, str(finding))
            for finding in lint_statement(statement, database=database))
    return answers


@pytest.fixture(scope="module")
def uncapped() -> dict:
    with pytest.MonkeyPatch.context() as patch:
        # The memory-capped CI job sets a default budget; the twin
        # must run without any pool.
        patch.delenv("REPRO_BUFFER_POOL_BYTES", raising=False)
        database = build()
    assert not database.buffer_pool.enabled
    return structural_answers(database)


@pytest.mark.parametrize("tier", [1, 2])
def test_capped_structural_reads_materialize_nothing(tier, tmp_path,
                                                     uncapped):
    database = build(budget=1,
                     directory=tmp_path / "db" if tier == 2 else None)
    try:
        # A one-byte budget: ingest left every tree but the newest
        # evicted (and, at tier 2, every column store but its own).
        evicted = [stored for stored
                   in database.documents("orders", "orddoc")
                   if stored._document is None]
        assert len(evicted) >= ORDERS - 1
        assert all((stored._store is None) is (tier == 2)
                   for stored in evicted)
        with enabled_metrics():
            answers = structural_answers(database)
            materializations = METRICS.counter("columnar.materializations")
            misses = METRICS.counter("bufferpool.misses")
            loads = METRICS.counter("bufferpool.loads")
        assert materializations == 0
        assert misses == 0
        assert loads == 0
        assert answers == uncapped
        codes = {code for statement in STATEMENTS
                 for code, _text in answers["lint", statement]}
        assert EXPECTED_CODES <= codes
    finally:
        if tier == 2:
            database.close()


def test_structural_reads_never_read_a_document(monkeypatch, uncapped):
    database = build()

    def refuse(stored):
        raise AssertionError(f"structural read touched {stored!r}")

    monkeypatch.setattr(StoredDocument, "columns", property(refuse))
    assert structural_answers(database) == uncapped
