"""EXPLAIN ANALYZE over the paper's queries (1–5).

For each query the operator tree must report per-operator actual
cardinality and wall time, the root actual cardinality must equal the
plain execution's result count, the trace JSON must validate against
its schema, and — where the planner produced estimates — those
estimates must respect the documented path-summary coverage bound
(``estimated_rows <= summary_cap_docs``, the number of documents with
at least one node on the probed path).
"""

import pytest

from repro.durability import DurableDatabase
from repro.obs.trace import validate_trace
from repro.workload.generator import populate_paper_schema

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

QUERY1 = f"for $i in {XMLCOL}//order[lineitem/@price>100] return $i"
QUERY2 = f"for $i in {XMLCOL}//order[lineitem/@*>100] return $i"
QUERY3 = f'for $i in {XMLCOL}//order[lineitem/@price > "100" ] return $i'
QUERY4 = ('for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
          'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
          "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
          "return $i")
QUERY5 = ("SELECT XMLQuery('$order//lineitem[@price > 100]' "
          'passing orddoc as "order") FROM orders')


def _assert_operator_contract(analyzed):
    """Every operator reports a non-negative time; cardinality-bearing
    operators carry an actual count; the trace validates."""
    def walk(node):
        assert node.time_ms >= 0
        if node.actual_rows is not None:
            assert node.actual_rows >= 0
        for child in node.children:
            walk(child)
    walk(analyzed.root)
    assert validate_trace(analyzed.tracer.to_dict()) == []


def _assert_estimates_within_summary_bound(analyzed):
    for scan in analyzed.operators("index-scan"):
        cap = scan.attrs.get("summary_cap_docs")
        if cap is not None and scan.estimated_rows is not None:
            assert scan.estimated_rows <= cap
            assert scan.actual_rows <= cap


class TestQuery1Eligible:
    def test_actual_cardinalities(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY1)
        plain = indexed_db.xquery(QUERY1)
        assert len(analyzed) == len(plain) == 1
        assert analyzed.root.actual_rows == 1
        # The index probe reports its own actual: 1 surviving document.
        probes = analyzed.operators("index-probe")
        assert len(probes) == 1
        assert probes[0].actual_rows == 1
        scans = analyzed.operators("index-scan")
        assert len(scans) == 1
        assert scans[0].attrs["index"] == "li_price"
        assert scans[0].actual_rows == 1
        # Residual evaluation saw only the prefiltered document.
        residual = analyzed.operators("residual-eval")[0]
        assert residual.attrs["docs_scanned"] == 1
        assert residual.actual_rows == 1
        _assert_operator_contract(analyzed)

    def test_estimates_within_documented_bound(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY1)
        scans = analyzed.operators("index-scan")
        assert scans[0].estimated_rows is not None
        assert scans[0].q_error() is not None
        _assert_estimates_within_summary_bound(analyzed)

    def test_stage_sequence(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY1)
        names = [child.name for child in analyzed.root.children]
        assert names == ["parse", "static-analysis", "plan",
                         "index-probe", "residual-eval", "serialize"]


class TestQuery2IneligibleWildcard:
    def test_full_scan_visible(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY2)
        plain = indexed_db.xquery(QUERY2)
        assert len(analyzed) == len(plain) == 1
        assert analyzed.operators("index-probe") == []
        assert analyzed.operators("index-scan") == []
        residual = analyzed.operators("residual-eval")[0]
        assert residual.attrs["docs_scanned"] == 7   # the §3.1 cliff
        _assert_operator_contract(analyzed)


class TestQuery3StringPredicate:
    def test_double_index_ineligible(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY3)
        assert len(analyzed) == 3
        assert analyzed.root.actual_rows == 3
        assert analyzed.operators("index-scan") == []
        _assert_operator_contract(analyzed)

    def test_varchar_index_eligible(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX li_price_str ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/@price' AS VARCHAR")
        analyzed = indexed_db.explain_analyze(QUERY3)
        assert len(analyzed) == 3
        scans = analyzed.operators("index-scan")
        assert len(scans) == 1
        assert scans[0].attrs["index"] == "li_price_str"
        _assert_estimates_within_summary_bound(analyzed)
        _assert_operator_contract(analyzed)


class TestQuery4Join:
    def test_semi_join_probes_reported(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY4)
        plain = indexed_db.xquery(QUERY4)
        assert len(analyzed) == len(plain) == 5
        assert analyzed.root.actual_rows == 5
        # Both columns get a semi-join prefilter with actual doc counts.
        semi_joins = analyzed.operators("semi-join")
        assert len(semi_joins) == 2
        for operator in semi_joins:
            assert operator.actual_rows is not None
            assert operator.actual_rows >= 1
        assert "o_custid" in plain.stats.indexes_used
        assert "c_custid" in plain.stats.indexes_used
        _assert_operator_contract(analyzed)


class TestQuery5SQL:
    def test_per_row_xmlquery_rows(self, indexed_db):
        analyzed = indexed_db.explain_analyze(QUERY5)
        plain = indexed_db.sql(QUERY5)
        assert analyzed.language == "sql"
        assert len(analyzed) == len(plain) == 7
        assert analyzed.root.actual_rows == 7
        join = analyzed.operators("join-scan")[0]
        assert join.actual_rows == 7
        assert join.attrs["rows_scanned"] == 7
        project = analyzed.operators("project")[0]
        assert project.actual_rows == 7
        assert analyzed.operators("index-scan") == []  # select list only
        _assert_operator_contract(analyzed)


class TestUseIndexesFlag:
    def test_disabled_indexes_shows_cliff(self, indexed_db):
        fast = indexed_db.explain_analyze(QUERY1, use_indexes=True)
        slow = indexed_db.explain_analyze(QUERY1, use_indexes=False)
        assert len(fast) == len(slow) == 1
        fast_docs = fast.operators("residual-eval")[0].attrs["docs_scanned"]
        slow_docs = slow.operators("residual-eval")[0].attrs["docs_scanned"]
        assert fast_docs == 1
        assert slow_docs == 7


class TestToDict:
    def test_plan_and_trace_serializable(self, indexed_db):
        import json
        analyzed = indexed_db.explain_analyze(QUERY1)
        payload = analyzed.to_dict()
        encoded = json.dumps(payload, default=str)
        decoded = json.loads(encoded)
        assert decoded["plan"]["operator"] == "xquery"
        assert decoded["plan"]["actual_rows"] == 1
        assert validate_trace(decoded["trace"]) == []


class TestEstimatesAreAFunctionOfTheData:
    def test_repeated_runs_and_reopen_report_the_same_estimate(
            self, tmp_path):
        """Running EXPLAIN ANALYZE must not change what the next run
        estimates, and neither may closing and reopening the database."""
        query = f"for $i in {XMLCOL}//order[lineitem/@price > 150] " \
                "return $i"

        def estimates(database):
            return [(scan.estimated_rows, scan.actual_rows)
                    for scan in database.explain_analyze(query)
                    .operators("index-scan")]

        with DurableDatabase(str(tmp_path)) as database:
            populate_paper_schema(database, orders=40, customers=5,
                                  products=5, seed=3)
            runs = [estimates(database) for _ in range(3)]
        with DurableDatabase(str(tmp_path)) as database:
            runs.append(estimates(database))
        assert runs[0], "the query probed no index"
        assert runs == [runs[0]] * 4
