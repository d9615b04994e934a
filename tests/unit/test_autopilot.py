"""Unit tests for the autopilot layers: fingerprinting and workload
profiling, XMLPATTERN rendering, candidate generation/validation, and the
buffer-pool scan-resistance fix for bulk index builds."""

import json

import pytest

from repro.autopilot.candidates import (generate_candidates,
                                        render_xmlpattern)
from repro.autopilot.profiler import WorkloadProfiler, fingerprint
from repro.core.eligibility import check_index
from repro.core.patterns import parse_xmlpattern, pattern_contains
from repro.planner.stats import ExecutionStats
from repro.storage.catalog import Database
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)


class TestFingerprint:
    def test_numeric_literals_are_masked(self):
        a = fingerprint("//order[lineitem/@price > 100]")
        b = fingerprint("//order[lineitem/@price > 250.5]")
        assert a == b
        assert "?" in a

    def test_string_literals_are_preserved(self):
        # Masking strings would merge distinct collections into one
        # workload entry — the collection IS the statement's identity.
        a = fingerprint("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order")
        b = fingerprint("db2-fn:xmlcolumn('CUSTOMER.CDOC')//order")
        assert a != b

    def test_identifiers_with_digits_survive(self):
        assert "db2-fn" in fingerprint("db2-fn:xmlcolumn('T.C')")

    def test_whitespace_collapses(self):
        assert fingerprint("for  $i \n in //a") == \
            fingerprint("for $i in //a")


class TestWorkloadProfiler:
    def _stats(self, docs=5):
        stats = ExecutionStats()
        stats.docs_scanned = docs
        return stats

    def test_aggregates_by_fingerprint(self):
        profiler = WorkloadProfiler()
        profiler.observe_query("//a[@x > 1]", "xquery",
                               self._stats(4), 0.01)
        profiler.observe_query("//a[@x > 99]", "xquery",
                               self._stats(6), 0.03)
        profiles = profiler.statements()
        assert len(profiles) == 1
        assert profiles[0].count == 2
        assert profiles[0].mean_docs_scanned == 5.0

    def test_eviction_keeps_hot_statements(self):
        profiler = WorkloadProfiler(max_statements=2)
        for _ in range(5):
            profiler.observe_query("'hot'", "xquery", self._stats(), 0.0)
        profiler.observe_query("'warm'", "xquery", self._stats(), 0.0)
        profiler.observe_query("'cold'", "xquery", self._stats(), 0.0)
        kept = {profile.fingerprint
                for profile in profiler.statements()}
        assert "'hot'" in kept
        assert len(kept) == 2

    def test_write_counts(self):
        profiler = WorkloadProfiler()
        profiler.observe_write("orders")
        profiler.observe_write("orders", count=3)
        assert profiler.write_rate("orders") == 4
        assert profiler.write_rate("customer") == 0


class TestRenderXmlpattern:
    def _roundtrip(self, text):
        return render_xmlpattern(parse_xmlpattern(text))

    def test_exact_linear_path(self):
        assert self._roundtrip("/order/custid") == "/order/custid"

    def test_gap_and_attribute(self):
        assert self._roundtrip("//lineitem/@price") == \
            "//lineitem/@price"

    def test_text_step(self):
        assert self._roundtrip("/order/price/text()") == \
            "/order/price/text()"

    def test_namespace_gets_declared(self):
        rendered = self._roundtrip(
            'declare namespace s="urn:shop"; /s:order/s:custid')
        assert rendered.startswith('declare namespace p1="urn:shop"; ')
        assert rendered.endswith("/p1:order/p1:custid")
        # and it parses back to a pattern containing the original
        original = parse_xmlpattern(
            'declare namespace s="urn:shop"; /s:order/s:custid')
        assert pattern_contains(parse_xmlpattern(rendered), original)

    def test_wildcard_local_renders_star_colon(self):
        assert self._roundtrip("/*:order/*:custid") == \
            "/*:order/*:custid"

    def test_bare_wildcard_is_not_recommended(self):
        assert self._roundtrip("//*") is None


class TestCandidateGeneration:
    def _profiled(self, database, queries):
        pilot = database.autopilot()
        for number in queries:
            run_paper_query(database, number)
        return pilot

    def test_candidates_cover_paper_indexes(self, paper_db):
        pilot = self._profiled(paper_db, sorted(PAPER_QUERIES)[:12])
        advice = pilot.advise()
        patterns = {candidate.pattern for candidate in advice}
        assert "//lineitem/@price" in patterns
        assert "/customer/id" in patterns

    def test_every_recommendation_is_eligible(self, paper_db):
        """The advisor must never advise DDL it would refuse to use."""
        from repro.core.eligibility import statement_candidates
        from repro.storage.xmlindex import XmlIndex
        pilot = self._profiled(paper_db, sorted(PAPER_QUERIES))
        for candidate in pilot.advise():
            index = XmlIndex(candidate.name, candidate.table,
                             candidate.column, candidate.pattern,
                             candidate.index_type)
            served_any = False
            for profile in pilot.profiler.statements():
                if profile.fingerprint not in candidate.statements:
                    continue
                _language, _module, predicates = statement_candidates(
                    paper_db, profile.exemplar, profile.language)
                for predicate in predicates:
                    if check_index(index, predicate).eligible:
                        served_any = True
            assert served_any, candidate.ddl

    def test_no_advice_when_predicates_are_served(self, indexed_db):
        # Q1/Q2's numeric price predicates are served by li_price;
        # nothing is left to recommend.  (Q3's *string* comparison
        # would legitimately earn a VARCHAR recommendation — a DOUBLE
        # index cannot serve it, §3.1.)
        pilot = self._profiled(indexed_db, [1, 2])
        assert pilot.advise() == []

    def test_writes_penalize_benefit(self, paper_db):
        pilot = self._profiled(paper_db, [1])
        baseline = {candidate.name: candidate.benefit
                    for candidate in pilot.advise()}
        pilot.profiler.observe_write("orders", count=10)
        penalized = {candidate.name: candidate.benefit
                     for candidate in pilot.advise()}
        for name, benefit in penalized.items():
            assert benefit < baseline[name]

    def test_containment_dedupe(self, paper_db):
        pilot = self._profiled(paper_db, sorted(PAPER_QUERIES))
        advice = pilot.advise()
        doubles = [candidate for candidate in advice
                   if candidate.index_type == "DOUBLE"]
        for i, first in enumerate(doubles):
            for second in doubles[i + 1:]:
                if (first.table, first.column) != (second.table,
                                                   second.column):
                    continue
                assert not pattern_contains(
                    parse_xmlpattern(first.pattern),
                    parse_xmlpattern(second.pattern))

    def test_json_report_is_serializable(self, paper_db):
        pilot = self._profiled(paper_db, [1, 2])
        pilot.advise()
        json.dumps(pilot.to_dict())


class TestBulkBuildPoolCharge:
    """Satellite 1: index builds charge the buffer pool and stay
    within budget instead of stacking every materialized tree."""

    BUDGET = 2000

    def _watch_peak(self, database):
        pool = database.buffer_pool
        peaks = []
        original = pool.release

        def watching_release(stored):
            peaks.append(pool.resident_bytes)
            original(stored)
        pool.release = watching_release
        return peaks

    @pytest.mark.parametrize("online", [False, True])
    def test_build_stays_within_budget(self, online):
        database = Database(buffer_pool_bytes=self.BUDGET)
        load_paper_fixture(database, with_indexes=False)
        pool = database.buffer_pool
        peaks = self._watch_peak(database)
        # Full per-document cost: columns plus the materialized tree
        # the build holds while indexing it (the largest fixture doc
        # alone exceeds this budget — that is the bound, not zero).
        biggest = max(
            stored._store.nbytes() + stored._store.materialized_nbytes()
            for stored in database.documents("orders", "orddoc"))
        if online:
            database.create_xml_index_online(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")
        else:
            database.create_xml_index(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")
        assert peaks, "release was never called during the build"
        # Transient overshoot is bounded by the document in hand, not
        # by the collection size (the pre-fix peak was 6x the budget).
        assert max(peaks) <= self.BUDGET + biggest
        # The columns alone exceed the budget and stay charged (a
        # tier-1 pool cannot free them): no tree may stay resident.
        documents = database.documents("orders", "orddoc")
        assert all(stored._document is None for stored in documents)
        assert pool.resident_bytes == sum(
            stored._store.nbytes()
            for table, column in (("orders", "orddoc"), ("customer", "cdoc"))
            for stored in database.documents(table, column))

    def test_build_answers_match_unbudgeted(self):
        budgeted = Database(buffer_pool_bytes=self.BUDGET)
        unbudgeted = Database()
        for database in (budgeted, unbudgeted):
            load_paper_fixture(database, with_indexes=False)
            database.create_xml_index(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")
        for number in (1, 2, 4):
            assert run_paper_query(budgeted, number) == \
                run_paper_query(unbudgeted, number)
