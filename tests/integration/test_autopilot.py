"""Integration tests for self-driving indexing.

Covers the ISSUE's acceptance criteria end to end: a cold database
converges to the manually-indexed oracle within two passes of the
paper workload; the online builder never blocks writers for the scan
phase and catches up with writes that land mid-build; an online build
survives a durable restart; a crash before publish leaves no index; and the CLI/server surfaces work.
"""

import io
import json
import threading

import pytest

from repro import Database
from repro.autopilot import AutoIndexPolicy
from repro.cli import main
from repro.durability import CrashError, DurableDatabase, FaultInjector
from repro.obs.metrics import METRICS, enabled_metrics
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

ALL_QUERIES = sorted(PAPER_QUERIES)


def run_all(database) -> dict[int, str]:
    return {number: run_paper_query(database, number)
            for number in ALL_QUERIES}


class TestConvergence:
    def test_cold_database_converges_in_two_passes(self):
        """Pass 1 profiles, autopilot builds, pass 2 matches the
        manually-indexed oracle byte-for-byte and actually probes."""
        cold = Database()
        load_paper_fixture(cold, with_indexes=False)
        oracle = Database()
        load_paper_fixture(oracle, with_indexes=True)

        pilot = cold.autopilot()
        run_all(cold)                       # pass 1: observe
        built = pilot.apply()
        assert built, "autopilot built nothing from the paper workload"

        with enabled_metrics():
            second_pass = run_all(cold)
            probes = METRICS.counter("index.probes")
        assert second_pass == run_all(oracle)
        assert probes > 0, "second pass never touched the new indexes"

    def test_second_pass_uses_auto_indexes_and_scans_less(self):
        cold = Database()
        load_paper_fixture(cold, with_indexes=False)
        pilot = cold.autopilot()
        query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "//order[lineitem/@price>100] return $i")
        before = cold.xquery(query)
        pilot.apply()
        after = cold.xquery(query)
        assert [str(i) for i in after.items] == \
            [str(i) for i in before.items]
        assert after.stats.indexes_used, "eligible query skipped index"
        assert after.stats.docs_scanned < before.stats.docs_scanned

    def test_apply_is_idempotent(self):
        cold = Database()
        load_paper_fixture(cold, with_indexes=False)
        pilot = cold.autopilot()
        run_all(cold)
        first = pilot.apply()
        assert first
        assert pilot.apply() == []   # everything is served now


class TestOnlineBuild:
    def _fixture(self):
        database = Database()
        load_paper_fixture(database, with_indexes=False)
        return database

    def test_online_build_equals_offline_build(self):
        online = self._fixture()
        offline = self._fixture()
        online.create_xml_index_online(
            "li_price", "orders", "orddoc", "//lineitem/@price",
            "DOUBLE")
        offline.create_xml_index(
            "li_price", "orders", "orddoc", "//lineitem/@price",
            "DOUBLE")
        assert run_all(online) == run_all(offline)
        assert len(online.xml_indexes["li_price"]) == \
            len(offline.xml_indexes["li_price"])

    def test_writers_proceed_during_scan_and_build_catches_up(self):
        """A writer that lands mid-scan must (a) not block and (b) be
        picked up by the catch-up phase, so the published index is
        complete."""
        database = self._fixture()
        new_doc = ("<order><custid>424242</custid>"
                   "<lineitem price=\"555\"/></order>")
        state = {"inserted": False}

        original_release = database.buffer_pool.release

        def insert_mid_scan(stored):
            if not state["inserted"]:
                state["inserted"] = True
                writer = threading.Thread(
                    target=lambda: database.insert(
                        "orders", {"ordid": 4242, "orddoc": new_doc}))
                writer.start()
                writer.join(timeout=10.0)
                # The builder holds no lock during the snapshot scan:
                # a blocked writer here means the online build regressed
                # to the offline exclusive-lock behaviour.
                assert not writer.is_alive(), \
                    "writer blocked during online-build scan phase"
            original_release(stored)

        database.buffer_pool.release = insert_mid_scan
        index = database.create_xml_index_online(
            "o_custid", "orders", "orddoc", "//custid", "DOUBLE")
        assert state["inserted"]

        result = database.xquery(
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//order[custid=424242] return $i")
        assert len(result.items) == 1
        assert index.name in result.stats.indexes_used

    def test_catchup_unindexes_rows_deleted_during_scan(self):
        database = self._fixture()
        state = {"deleted": False}
        original_release = database.buffer_pool.release

        def delete_mid_scan(stored):
            if not state["deleted"]:
                state["deleted"] = True
                worker = threading.Thread(
                    target=lambda: database.delete_rows(
                        "orders",
                        lambda values: values["ordid"] == 3))
                worker.start()
                worker.join(timeout=10.0)
                assert not worker.is_alive()
            original_release(stored)

        database.buffer_pool.release = delete_mid_scan
        database.create_xml_index_online(
            "o_custid", "orders", "orddoc", "//custid", "DOUBLE")
        oracle = self._fixture()
        oracle.delete_rows("orders",
                           lambda values: values["ordid"] == 3)
        oracle.create_xml_index(
            "o_custid", "orders", "orddoc", "//custid", "DOUBLE")
        assert run_all(database) == run_all(oracle)
        assert len(database.xml_indexes["o_custid"]) == \
            len(oracle.xml_indexes["o_custid"])

    def test_duplicate_name_rejected_before_and_after_scan(self):
        from repro.errors import CatalogError
        database = self._fixture()
        database.create_xml_index(
            "li_price", "orders", "orddoc", "//lineitem/@price",
            "DOUBLE")
        with pytest.raises(CatalogError):
            database.create_xml_index_online(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")


class TestDurability:
    def test_online_build_survives_restart(self, tmp_path):
        with DurableDatabase(str(tmp_path)) as database:
            load_paper_fixture(database, with_indexes=False)
            database.create_xml_index_online(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")
            live = run_all(database)
        with DurableDatabase(str(tmp_path)) as database:
            assert "li_price" in database.xml_indexes
            assert run_all(database) == live

    def test_crash_before_publish_leaves_no_index(self, tmp_path):
        faults = FaultInjector("index.build.before_publish")
        database = DurableDatabase(str(tmp_path), faults=faults)
        load_paper_fixture(database, with_indexes=False)
        with pytest.raises(CrashError):
            database.create_xml_index_online(
                "li_price", "orders", "orddoc", "//lineitem/@price",
                "DOUBLE")
        database._wal.abandon()

        oracle = Database()
        load_paper_fixture(oracle, with_indexes=False)
        with DurableDatabase(str(tmp_path)) as recovered:
            assert "li_price" not in recovered.xml_indexes
            assert run_all(recovered) == run_all(oracle)


class TestPolicyAndSurfaces:
    def test_auto_index_policy_builds_in_background(self):
        database = Database()
        load_paper_fixture(database, with_indexes=False)
        pilot = database.autopilot()
        for number in (1, 2, 11):
            run_paper_query(database, number)
        policy = AutoIndexPolicy(pilot, interval=0.01,
                                 max_builds_per_cycle=2)
        built = policy.run_once()
        assert built > 0
        assert pilot.applied

    def test_policy_thread_starts_and_stops(self):
        database = Database()
        load_paper_fixture(database, with_indexes=False)
        run_paper_query(database, 1)
        with AutoIndexPolicy(database.autopilot(),
                             interval=0.01) as policy:
            deadline = threading.Event()
            for _ in range(200):
                if policy.cycles:
                    break
                deadline.wait(0.02)
        assert policy.cycles > 0
        assert policy.errors == 0

    def test_cli_autopilot_paper_apply_json(self):
        out = io.StringIO()
        code = main(["autopilot", "--fixture", "--paper", "--apply",
                     "--json"], out=out)
        assert code == 0
        report = json.loads(out.getvalue())
        # Every paper query but Q25, which raises XPDY0050 by design.
        assert report["profile"]["queries_observed"] == \
            len(PAPER_QUERIES) - 1
        assert report["applied"], "CLI applied no DDL"

    def test_cli_autopilot_has_no_calibrate_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["autopilot", "--fixture", "--calibrate"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --calibrate" in \
            capsys.readouterr().err

    def test_cli_autopilot_advise_only_builds_nothing(self):
        out = io.StringIO()
        code = main(["autopilot", "--fixture", "--paper", "--advise"],
                    out=out)
        assert code == 0
        text = out.getvalue()
        assert "CREATE INDEX" in text
        assert "applied:" not in text

    def test_server_stats_include_autopilot(self):
        from repro.server import ServerClient, ServerThread
        database = Database()
        load_paper_fixture(database, with_indexes=False)
        database.autopilot()
        run_paper_query(database, 1)
        with ServerThread(database) as (host, port):
            with ServerClient(host, port) as client:
                stats = client.stats()
                # Sessions read from a pinned Snapshot; the snapshot
                # must still feed the live profiler or the autopilot
                # is blind to served workloads.
                client.query(
                    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                    "//order[custid=1001] return $i")
                after = client.stats()
        assert "autopilot.queries_observed 1" in stats
        assert "autopilot.indexes_built 0" in stats
        assert "autopilot.queries_observed 2" in after
