"""Integration tests: WAL + checkpoint + recovery through the engine.

Every test opens a :class:`DurableDatabase` on a temp directory, does
real work through the public ``Database`` API, and checks that closing
and reopening the directory reproduces the exact same query answers —
the whole point of the subsystem.
"""

import datetime
import decimal
import io
import tracemalloc

import pytest

from repro import cli
from repro.durability import (CHECKPOINT_NAME, WAL_NAME, CrashError,
                              DurableDatabase, FaultInjector)
from repro.durability import checkpoint as checkpoint_module
from repro.durability import fsio
from repro.durability import wal as wal_module
from repro.durability.wal import scan_wal
from repro.errors import DurabilityError, XMLParseError, XQueryTypeError
from repro.schema.schema import Schema
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)
from repro.xdm.nodes import ElementNode, TextNode
from repro.xdm.qname import QName
from repro.xmlio import serialize
from repro.xmlio.parser import MAX_DEPTH


def reopen(directory, **kwargs) -> DurableDatabase:
    return DurableDatabase(str(directory), **kwargs)


def all_answers(database) -> dict[int, str]:
    return {number: run_paper_query(database, number)
            for number in PAPER_QUERIES}


def test_reopen_recovers_tables_rows_and_indexes(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        expected = all_answers(database)
    with reopen(tmp_path) as database:
        assert database.last_recovery.checkpoint_lsn == 0
        assert database.last_recovery.replayed > 0
        assert all_answers(database) == expected
        # The recovered index must actually serve queries (Query 1 is
        # the paper's running li_price example).
        result = database.xquery(PAPER_QUERIES[1][1])
        assert "li_price" in result.stats.indexes_used


def test_checkpoint_truncates_wal_and_replays_nothing(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        expected = all_answers(database)
        info = database.checkpoint()
        assert info.rows == 15
    assert scan_wal(str(tmp_path / WAL_NAME)).records == []
    assert (tmp_path / CHECKPOINT_NAME).exists()
    with reopen(tmp_path) as database:
        recovery = database.last_recovery
        assert recovery.checkpoint_lsn == info.last_lsn
        assert recovery.replayed == 0
        assert all_answers(database) == expected


def test_work_after_checkpoint_lands_in_the_new_wal(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        database.checkpoint()
        database.insert("products", {"id": "999", "name": "late part"})
    with reopen(tmp_path) as database:
        assert database.last_recovery.replayed == 1
        result = database.sql(
            "SELECT name FROM products WHERE id = '999'")
        assert result.rows[0] == ("late part",)


def test_double_recovery_is_a_no_op(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        expected = all_answers(database)
    with reopen(tmp_path) as first:
        first_result = first.last_recovery
        assert all_answers(first) == expected
    with reopen(tmp_path) as second:
        # Recovery reads; it must not rewrite the log, so a second
        # recovery sees byte-for-byte the same work to do.
        assert second.last_recovery.replayed == first_result.replayed
        assert second.last_recovery.last_lsn == first_result.last_lsn
        assert second.last_recovery.truncated_bytes == 0
        assert all_answers(second) == expected


def test_scalar_types_round_trip_through_the_wal(tmp_path):
    row = {"n": 7, "price": decimal.Decimal("12.50"),
           "ratio": 0.25, "label": "a&b<c>",
           "day": datetime.date(2006, 9, 12),
           "at": datetime.datetime(2006, 9, 12, 10, 30, 0),
           "flag": True, "missing": None}
    columns = [("n", "INTEGER"), ("price", "DECIMAL(8,2)"),
               ("ratio", "DOUBLE"), ("label", "VARCHAR(32)"),
               ("day", "DATE"), ("at", "TIMESTAMP"),
               ("flag", "BOOLEAN"), ("missing", "VARCHAR(8)")]
    with reopen(tmp_path) as database:
        database.create_table("t", columns)
        database.insert("t", row)
        stored = dict(database.table("t").rows[0].values)
    with reopen(tmp_path) as database:
        recovered = dict(database.table("t").rows[0].values)
    assert recovered == stored
    assert isinstance(recovered["price"], decimal.Decimal)
    assert isinstance(recovered["day"], datetime.date)


def test_registered_schema_survives_recovery(tmp_path):
    schema = (Schema("orders-v1")
              .declare("custid", "xs:double")
              .declare("lineitem/@price", "xs:double"))
    with reopen(tmp_path) as database:
        database.create_table("orders", [("orddoc", "XML")])
        database.register_schema(schema)
        database.insert(
            "orders",
            {"orddoc": "<order><custid>1001</custid>"
                       "<lineitem price='99.50'/></order>"},
            schema="orders-v1")
    with reopen(tmp_path) as database:
        assert "orders-v1" in database.schemas
        document = database.table("orders").rows[0].values["orddoc"]
        custid = document.document.root_element.children[0]
        assert custid.typed_value()[0].value == 1001.0


def test_inline_schema_survives_a_checkpoint(tmp_path):
    inline = Schema("ad-hoc").declare("qty", "xs:double")
    with reopen(tmp_path) as database:
        database.create_table("t", [("doc", "XML")])
        database.insert("t", {"doc": "<item><qty>4</qty></item>"},
                        schema=inline)
        database.checkpoint()
    with reopen(tmp_path) as database:
        # Inline schemas are persisted for validation replay but are
        # not entered in the registered-schema catalog.
        assert "ad-hoc" not in database.schemas
        document = database.table("t").rows[0].values["doc"]
        qty = document.document.root_element.children[0]
        assert qty.typed_value()[0].value == 4.0


@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_replaced_schema_keeps_typing_the_documents_it_validated(
        tmp_path, checkpoint):
    # The first "po" types price as a string and validates the
    # document; a stricter "po" (price xs:double) replaces it later.
    # Replay must validate the document against the schema that
    # validated it at insert, from the WAL and from a checkpoint alike.
    loose = Schema("po").declare("price", "xs:string")
    strict = Schema("po", strict=True).declare("price", "xs:double")
    with reopen(tmp_path) as database:
        database.create_table("o", [("d", "XML")])
        database.register_schema(loose)
        database.insert("o", {"d": "<o><price>abc</price></o>"},
                        schema="po")
        database.register_schema(strict)
        if checkpoint:
            database.checkpoint()
    with reopen(tmp_path) as database:
        assert database.schemas["po"].strict
        stored = database.table("o").rows[0].values["d"]
        price = stored.document.root_element.children[0]
        assert price.typed_value()[0].type_name == "xs:string"
        assert price.typed_value()[0].value == "abc"
        # A document validated against the registered schema names it
        # by reference, and keeps doing so across a checkpoint.
        database.insert("o", {"d": "<o><price>2</price></o>"},
                        schema="po")
        database.checkpoint()
    with reopen(tmp_path) as database:
        rows = database.table("o").rows
        assert rows[1].values["d"].schema is database.schemas["po"]
        assert rows[0].values["d"].schema is not database.schemas["po"]


def _insert_records(directory) -> list[dict]:
    return [record for _lsn, record
            in scan_wal(directory / CHECKPOINT_NAME).records
            if record["op"] == "insert"]


def test_an_inline_schema_is_written_once_per_record(tmp_path):
    # Three documents validated against one unregistered schema: the
    # checkpoint's insert record embeds it once, the reopen decodes it
    # once, and the next checkpoint again embeds it once.
    inline = Schema("ad-hoc").declare("qty", "xs:double")
    with reopen(tmp_path) as database:
        database.create_table("t", [("doc", "XML")])
        for qty in range(3):
            database.insert("t", {"doc": f"<item><qty>{qty}</qty></item>"},
                            schema=inline)
        database.checkpoint()
    for _cycle in range(2):
        [record] = _insert_records(tmp_path)
        assert len(record["inline"]) == 1
        assert record["schemas"] == [{"doc": {"$inline": 0}}] * 3
        with reopen(tmp_path) as database:
            schemas = {id(row.values["doc"].schema)
                       for row in database.table("t").rows}
            assert len(schemas) == 1
            database.checkpoint()


def test_a_checkpoint_batches_rows_by_their_encoded_size(tmp_path,
                                                         monkeypatch):
    # Each value is 1 000 characters that JSON escaping doubles; the
    # batches are cut on those encoded bytes, so every insert record
    # stays within the frame limit and the reopen reads them all.
    monkeypatch.setattr(wal_module, "_MAX_RECORD", 8000)
    monkeypatch.setattr(checkpoint_module, "_BATCH_BYTES", 6000)
    with reopen(tmp_path) as database:
        database.create_table("t", [("k", "INTEGER"), ("v", "VARCHAR")])
        for key in range(12):
            database.insert("t", {"k": key, "v": '"\\' * 500})
        database.checkpoint()
    assert [len(record["rows"])
            for record in _insert_records(tmp_path)] == [2] * 6
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == list(range(12))


def test_a_state_too_large_to_frame_is_refused_before_it_is_written(
        tmp_path, monkeypatch):
    # A row whose insert record is over the frame limit: the checkpoint
    # is refused before it writes, so the old checkpoint and the WAL
    # stay, the database stays open, and the reopen has every row.
    with reopen(tmp_path) as database:
        database.create_table("t", [("k", "INTEGER"), ("v", "VARCHAR")])
        database.insert("t", {"k": 1, "v": "a"})
        database.checkpoint()
        before = (tmp_path / CHECKPOINT_NAME).read_bytes()
        database.insert("t", {"k": 2, "v": "b" * 5000})
        with monkeypatch.context() as patched:
            patched.setattr(wal_module, "_MAX_RECORD", 2000)
            with pytest.raises(DurabilityError, match="frame limit"):
                database.checkpoint()
        assert (tmp_path / CHECKPOINT_NAME).read_bytes() == before
        assert not (tmp_path / (CHECKPOINT_NAME + ".tmp")).exists()
        database.insert("t", {"k": 3, "v": "c"})
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 2, 3]
        assert database.last_recovery.truncated_bytes == 0


def test_a_record_too_large_to_frame_is_refused_before_it_is_logged(
        tmp_path, monkeypatch):
    # The scanner reads no frame over the limit, so the log must not
    # acknowledge one: the insert is refused and rolled back, and the
    # reopen cuts nothing.
    monkeypatch.setattr(wal_module, "_MAX_RECORD", 2000)
    with reopen(tmp_path) as database:
        database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
        with pytest.raises(DurabilityError, match="frame limit"):
            database.insert("t", {"k": 1, "d": f"<r>{'x' * 3000}</r>"})
        assert len(database.table("t").rows) == 0
        database.insert("t", {"k": 2, "d": "<r>y</r>"})
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [2]
        assert database.last_recovery.truncated_bytes == 0


def test_delete_replays_by_position(tmp_path):
    with reopen(tmp_path) as database:
        database.create_table("t", [("k", "INTEGER"),
                                    ("v", "VARCHAR(8)")])
        for key in range(6):
            database.insert("t", {"k": key, "v": f"v{key}"})
        removed = database.delete_rows(
            "t", lambda values: values["k"] % 2 == 0)
        assert removed == 3
        survivors = [row.values["k"] for row in database.table("t").rows]
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == survivors


def test_ddl_drops_replay(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        database.drop_index("o_custid")
        database.drop_table("products")
    with reopen(tmp_path) as database:
        assert "products" not in database.tables
        assert "o_custid" not in database.xml_indexes
        assert "li_price" in database.xml_indexes


def test_verify_checks_path_summaries(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        database.checkpoint()
    with reopen(tmp_path, verify=True) as database:
        report = database.last_recovery.verify
        assert report is not None and report.ok
        assert report.documents_checked == 10  # 7 orders + 3 customers


def test_crash_before_checkpoint_rename_keeps_old_checkpoint(tmp_path):
    with reopen(tmp_path) as database:
        load_paper_fixture(database)
        database.checkpoint()
        expected = all_answers(database)
        database.insert("products", {"id": "999", "name": "late"})
        database.drop_index("li_price")
    crashing = reopen(tmp_path,
                      faults=FaultInjector("checkpoint.before_rename"))
    try:
        with pytest.raises(CrashError):
            crashing.checkpoint()
    finally:
        crashing.close()
    with reopen(tmp_path) as database:
        # The old checkpoint plus the WAL tail still reconstructs
        # everything, including the post-checkpoint insert and drop.
        assert database.last_recovery.replayed == 2
        assert "li_price" not in database.xml_indexes
        result = database.sql(
            "SELECT name FROM products WHERE id = '999'")
        assert len(result.rows) == 1
        del expected[1]  # Query 1 plans differ without li_price ...
        answers = all_answers(database)
        del answers[1]
        assert answers == expected  # ... but all other answers match


def test_batch_fsync_policy_survives_clean_close(tmp_path):
    with reopen(tmp_path, fsync_policy="batch",
                group_size=512) as database:
        database.create_table("t", [("k", "INTEGER")])
        for key in range(20):
            database.insert("t", {"k": key})
    with reopen(tmp_path) as database:
        assert len(database.table("t").rows) == 20


def test_cli_answers_query1_with_zero_reingest(tmp_path):
    directory = str(tmp_path / "state")
    out = io.StringIO()
    assert cli.main(["ingest", "--data", directory], out=out) == 0
    out = io.StringIO()
    assert cli.main(["q1", "--data", directory], out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("<order><custid>1001</custid>")
    # replayed=0 proves the answer came from the checkpoint alone —
    # no WAL replay and no re-ingest of source XML.
    assert lines[-1].endswith("replayed=0")
    out = io.StringIO()
    assert cli.main(["recover", "--data", directory, "--verify"],
                    out=out) == 0
    assert "verify: 10 documents round-trip slot for slot" in out.getvalue()


# ---------------------------------------------------------------------------
# Inserts are all-or-nothing: nothing unlogged stays visible
# ---------------------------------------------------------------------------

def _documents(database) -> list[str]:
    return database.xquery("db2-fn:xmlcolumn('T.D')").serialize()


def _table_with_index(database) -> None:
    database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
    database.create_xml_index("t_v", "t", "d", "//v", "DOUBLE")
    database.insert("t", {"k": 1, "d": "<r><v>1</v></r>"})


@pytest.mark.parametrize("text", [
    "<r><v>&#xD800;</v></r>", "<r><v>\ud800</v></r>", "<r>&#0;</r>",
    "<r>&#x110000;</r>", "<r x='&#99999999;'/>", "<r>&#xZZ;</r>",
    "<e>" * (MAX_DEPTH + 1) + "</e>" * (MAX_DEPTH + 1)])
def test_malformed_documents_are_rejected_before_the_row(tmp_path, text):
    with reopen(tmp_path, fsync_policy="batch") as database:
        _table_with_index(database)
        with pytest.raises(XMLParseError):
            database.insert("t", {"k": 2, "d": text})
        assert [row.values["k"] for row in database.table("t").rows] == [1]
        assert len(database.xml_indexes["t_v"]) == 1
        database.checkpoint()
        expected = _documents(database)
    with reopen(tmp_path) as database:
        assert _documents(database) == expected
        assert len(database.table("t").rows) == 1


def test_deep_document_survives_insert_checkpoint_and_reopen(tmp_path):
    # Far past the interpreter's recursion limit: parse, serialize,
    # checkpoint and recovery neither recurse nor pay per level for the
    # levels above it.
    depth = 50_000
    text = "<e>" * depth + "<v>7</v>" + "</e>" * depth
    with reopen(tmp_path, fsync_policy="batch") as database:
        _table_with_index(database)
        database.insert("t", {"k": 2, "d": text})
        assert database.xquery(
            "count(db2-fn:xmlcolumn('T.D'))").serialize() == ["2"]
    with reopen(tmp_path) as database:  # the WAL replays the insert
        assert database.last_recovery.replayed > 0
        stored = database.table("t").rows[1].values["d"]
        assert serialize(stored.document) == text
        database.checkpoint()
    with reopen(tmp_path, verify=True) as database:
        assert database.last_recovery.replayed == 0
        assert database.last_recovery.verify.ok
        stored = database.table("t").rows[1].values["d"]
        assert serialize(stored.document) == text
        result = database.xquery(
            "db2-fn:xmlcolumn('T.D')//v[. = 7]")
        assert result.serialize() == ["<v>7</v>"]
        assert "t_v" in result.stats.indexes_used


def _deep_round_trip(directory, depth: int, name: str) -> tuple[int, int]:
    """Insert a ``depth``-deep chain of ``name`` elements, checkpoint,
    reopen with ``verify``: (checkpoint bytes, tracemalloc peak)."""
    text = f"<{name}>" * depth + "<v>7</v>" + f"</{name}>" * depth
    tracemalloc.start()
    try:
        with reopen(directory, fsync_policy="off") as database:
            database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
            database.insert("t", {"k": 1, "d": "<r/>"})
            database.insert("t", {"k": 2, "d": text})
            written = database.checkpoint().bytes_written
        with reopen(directory, verify=True) as database:
            assert database.last_recovery.verify.ok
            assert database.last_recovery.verify.documents_checked == 2
        return written, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_round_trip_scales_linearly(tmp_path):
    # Path identity is one trie node per level, so twice the depth
    # costs about twice the checkpoint bytes and memory; spelled-out
    # paths (O(depth²)) would give 4x.  Names differ per run so the
    # second does not reuse the first's interned paths.
    small = _deep_round_trip(tmp_path / "small", 20_000, "s")
    large = _deep_round_trip(tmp_path / "large", 40_000, "l")
    assert large[0] <= 2.5 * small[0]
    assert large[1] <= 2.5 * small[1]


def test_failed_wal_append_rolls_the_insert_back(tmp_path, monkeypatch):
    with reopen(tmp_path, fsync_policy="batch") as database:
        _table_with_index(database)
        failure = OSError("disk full")
        append = database._wal.append
        calls = []

        def fail_once(record, *documents):
            calls.append(record)
            if len(calls) == 1:
                raise failure
            return append(record, *documents)

        monkeypatch.setattr(database._wal, "append", fail_once)
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        assert [row.values["k"] for row in database.table("t").rows] == [1]
        assert len(database.xml_indexes["t_v"]) == 1
        assert database.xquery(
            "db2-fn:xmlcolumn('T.D')//v[. > 0]").serialize() == ["<v>1</v>"]
        database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
        database.checkpoint()
        expected = _documents(database)
        indexed = database.xquery(
            "db2-fn:xmlcolumn('T.D')//v[. > 0]").serialize()
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 3]
        assert _documents(database) == expected
        assert database.xquery(
            "db2-fn:xmlcolumn('T.D')//v[. > 0]").serialize() == indexed


def _fail_once(failure):
    calls = []

    def fail(*args):
        calls.append(args)
        if len(calls) == 1:
            raise failure
    return fail


@pytest.mark.parametrize("policy, where", [
    ("always", "fsync"), ("batch", "group write")])
def test_failure_after_the_record_is_logged_keeps_the_row(
        tmp_path, monkeypatch, policy, where):
    # The record is in wal.log when these fail, so reopening replays
    # it: the row must stay in memory too, or the two would disagree.
    with reopen(tmp_path, fsync_policy=policy) as database:
        _table_with_index(database)
        wal = database._wal
        failure = OSError(f"{where} failed")
        fsync = wal._fsync
        fail = _fail_once(failure)

        def fsync_failing_once():
            fail()
            fsync()
        monkeypatch.setattr(wal, "_fsync", fsync_failing_once)
        if where == "group write":
            monkeypatch.setattr(wal, "group_size", 1)
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 2]
        expected = ["<v>1</v>", "<v>2</v>"]
        # A failed fsync fails the log: reads refuse until reopen.
        with pytest.raises(DurabilityError, match="reopen"):
            database.xquery("db2-fn:xmlcolumn('T.D')//v[. > 0]")
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 2]
        assert database.xquery(
            "db2-fn:xmlcolumn('T.D')//v[. > 0]").serialize() == expected


def _fail_next_write(monkeypatch, wal, failure) -> None:
    """Make the WAL's next file write raise ``failure``."""
    handle = wal._handle
    fail = _fail_once(failure)

    class FailingHandle:
        def write(self, data):
            fail()
            return handle.write(data)

        def __getattr__(self, name):
            return getattr(handle, name)
    monkeypatch.setattr(wal, "_handle", FailingHandle())


def test_failed_group_write_rolls_the_insert_back(tmp_path, monkeypatch):
    with reopen(tmp_path, fsync_policy="always") as database:
        _table_with_index(database)
        failure = OSError("disk full")
        _fail_next_write(monkeypatch, database._wal, failure)
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        assert [row.values["k"] for row in database.table("t").rows] == [1]
        assert len(database.xml_indexes["t_v"]) == 1
        database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 3]


def test_a_torn_frame_mid_log_fails_the_log(tmp_path, monkeypatch):
    # The write of k=2's frame puts half of it on disk, then raises.
    # The LSN must not go to k=3: its frame would land behind the torn
    # one, and the reopen's torn-tail repair would cut an acknowledged
    # row off.  The log fails instead, so k=3 is refused.
    with reopen(tmp_path, fsync_policy="always") as database:
        _table_with_index(database)
        wal = database._wal
        handle = wal._handle
        failure = OSError("disk full")

        class HalfWritingHandle:
            torn = False

            def write(self, data):
                if self.torn:
                    return handle.write(data)
                self.torn = True
                handle.write(data[:len(data) // 2])
                handle.flush()
                raise failure

            def __getattr__(self, name):
                return getattr(handle, name)
        monkeypatch.setattr(wal, "_handle", HalfWritingHandle())
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        with pytest.raises(DurabilityError, match="reopen") as refused:
            database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
        assert refused.value.__cause__ is failure
    with reopen(tmp_path) as database:
        assert [row.values["k"] for row in database.table("t").rows] == [1]
        assert database.last_recovery.truncated_bytes > 0


def test_a_failed_write_whose_size_cannot_be_read_fails_the_log(
        tmp_path, monkeypatch):
    # The write fails and so does the stat that would show nothing
    # reached the file: unknown counts as torn, so the log fails with
    # the write's own error rather than the stat's.
    with reopen(tmp_path, fsync_policy="always") as database:
        _table_with_index(database)
        failure = OSError("write failed")
        with monkeypatch.context() as patched:
            _fail_next_write(patched, database._wal, failure)
            patched.setattr(fsio, "file_size",
                            _fail_once(OSError("stat failed")))
            with pytest.raises(OSError) as caught:
                database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        with pytest.raises(DurabilityError, match="reopen") as refused:
            database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
        assert refused.value.__cause__ is failure
    with reopen(tmp_path) as database:
        assert [row.values["k"] for row in database.table("t").rows] == [1]


def test_a_failed_flush_cannot_leave_a_frame_behind(tmp_path, monkeypatch):
    # The frame of k=2 is handed to the file handle, whose flush then
    # fails.  Bytes a buffer kept would reach the file ahead of the
    # next record, under the same LSN, and no reopen could read the
    # log.  The WAL's handle holds no buffer: the frame is on disk, so
    # the log fails and the reopen replays it.
    with reopen(tmp_path, fsync_policy="always") as database:
        _table_with_index(database)
        wal = database._wal
        handle = wal._handle
        failure = OSError("flush failed")
        fail = _fail_once(failure)

        class FailingFlushHandle:
            def flush(self):
                fail()
                return handle.flush()

            def __getattr__(self, name):
                return getattr(handle, name)
        monkeypatch.setattr(wal, "_handle", FailingFlushHandle())
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        with pytest.raises(DurabilityError, match="reopen"):
            database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 2]


# ---------------------------------------------------------------------------
# Deletes log first: the rows go iff the record reached the log
# ---------------------------------------------------------------------------

def _delete_view(database) -> tuple:
    """What a caller sees: row keys, documents, and an indexed read."""
    return ([row.values["k"] for row in database.table("t").rows],
            _documents(database),
            database.xquery("db2-fn:xmlcolumn('T.D')//v[. > 0]").serialize())


@pytest.mark.parametrize("where, kept", [
    ("file write", [1, 2]), ("fsync", [1])])
def test_failed_delete_agrees_with_a_reopen(tmp_path, monkeypatch, where,
                                            kept):
    # A failed write never logged the record: both rows stay.  A failed
    # fsync comes after the record is in wal.log, which a reopen
    # replays: the row goes in memory too.
    with reopen(tmp_path, fsync_policy="always") as database:
        _table_with_index(database)
        database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        wal = database._wal
        failure = OSError(f"{where} failed")
        if where == "file write":
            _fail_next_write(monkeypatch, wal, failure)
        else:
            fsync = wal._fsync
            fail = _fail_once(failure)

            def fsync_failing_once():
                fail()
                fsync()
            monkeypatch.setattr(wal, "_fsync", fsync_failing_once)
        with pytest.raises(OSError) as caught:
            database.delete_rows("t", lambda values: values["k"] == 2)
        assert caught.value is failure
        assert [row.values["k"]
                for row in database.table("t").rows] == kept
        assert len(database.xml_indexes["t_v"]) == len(kept)
        view = (kept, [f"<r><v>{k}</v></r>" for k in kept],
                [f"<v>{k}</v>" for k in kept])
        if where == "file write":
            assert _delete_view(database) == view
        else:
            # A failed fsync fails the log: reads refuse until reopen.
            with pytest.raises(DurabilityError, match="reopen"):
                _delete_view(database)
    with reopen(tmp_path) as database:
        assert _delete_view(database) == view


# ---------------------------------------------------------------------------
# A failed group write fails the log until reopen
# ---------------------------------------------------------------------------

def test_a_failed_group_write_fails_the_log(tmp_path, monkeypatch):
    # Batch group commit: k=2 returns with its record buffered, and the
    # group write for k=2 and k=3 fails.  Both records are lost, so no
    # later record may land behind them: every write refuses until
    # reopen, and the reopen keeps exactly what reached the file.
    with reopen(tmp_path, fsync_policy="batch", group_size=2) as database:
        _table_with_index(database)
        database.sync()
        database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        wal = database._wal
        failure = OSError("disk full")
        _fail_next_write(monkeypatch, wal, failure)
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 3, "d": "<r><v>3</v></r>"})
        assert caught.value is failure
        last_lsn = wal.last_lsn
        writes = [
            lambda: database.insert("t", {"k": 4, "d": "<r><v>4</v></r>"}),
            lambda: database.delete_rows("t", lambda values: values["k"] == 1),
            database.sync, database.checkpoint, wal.flush, wal.sync,
            lambda: wal.append({"op": "drop_table", "name": "t"})]
        for write in writes:
            with pytest.raises(DurabilityError, match="reopen") as refused:
                write()
            assert refused.value.__cause__ is failure
        assert wal.last_lsn == last_lsn
        # The refused insert is rolled back and the refused delete
        # removed nothing.
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 2, 3]
    assert wal._handle.closed
    with reopen(tmp_path) as database:
        assert _delete_view(database) == ([1], ["<r><v>1</v></r>"],
                                          ["<v>1</v>"])
        database.insert("t", {"k": 5, "d": "<r><v>5</v></r>"})
    with reopen(tmp_path) as database:
        assert [row.values["k"]
                for row in database.table("t").rows] == [1, 5]


def test_a_failed_log_refuses_ddl_and_reads(tmp_path, monkeypatch):
    # Batch group commit of 2: k=1 returns buffered, and the group write
    # for k=1 and k=2 fails, losing both.  Memory still holds the rows,
    # so from here on a DDL must not apply and a read must not answer
    # from them; the reopen has neither the refused table nor the rows.
    with reopen(tmp_path, fsync_policy="batch", group_size=2) as database:
        database.create_table("t", [("k", "INTEGER"), ("d", "XML")])
        database.sync()
        database.insert("t", {"k": 1, "d": "<r><v>1</v></r>"})
        failure = OSError("disk full")
        _fail_next_write(monkeypatch, database._wal, failure)
        with pytest.raises(OSError) as caught:
            database.insert("t", {"k": 2, "d": "<r><v>2</v></r>"})
        assert caught.value is failure
        with pytest.raises(DurabilityError, match="reopen") as refused:
            database.create_table("u", [("k", "INTEGER")])
        assert refused.value.__cause__ is failure
        assert "u" not in database.tables
        reads = [lambda: database.sql("SELECT k FROM t"),
                 lambda: database.execute_any("SELECT k FROM t"),
                 lambda: database.xquery("db2-fn:xmlcolumn('T.D')"),
                 lambda: database.explain("db2-fn:xmlcolumn('T.D')"),
                 database.snapshot]
        for read in reads:
            with pytest.raises(DurabilityError, match="reopen") as refused:
                read()
            assert refused.value.__cause__ is failure
    with reopen(tmp_path) as database:
        assert "u" not in database.tables
        assert database.sql("SELECT k FROM t").rows == []


# ---------------------------------------------------------------------------
# Definition 1: a stored tree cannot change behind its indexes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_stored_tree_cannot_be_edited_behind_its_index(tmp_path,
                                                         checkpoint):
    # An edit of a stored tree would change what a scan sees but not
    # the index entries (nor the log): the index route would answer
    # [] and the scan route the edited document, and a reopen would
    # keep the edit only after a checkpoint.  The stored tree is
    # numbered, so the edit raises and every route agrees.
    query = "db2-fn:xmlcolumn('O.D')/o[price > 50]"

    def routes(database):
        return [database.xquery(query, use_indexes=indexes).serialize()
                for indexes in (True, False)]

    with reopen(tmp_path) as database:
        database.create_table("o", [("k", "INTEGER"), ("d", "XML")])
        database.create_xml_index("o_price", "o", "d", "//price",
                                  "DOUBLE")
        database.insert("o", {"k": 1, "d": "<o><price>0</price></o>"})
        database.insert("o", {"k": 2, "d": "<o><price>75</price></o>"})
        root = database.table("o").rows[0].values["d"].document.root_element
        with pytest.raises(XQueryTypeError, match="numbered"):
            root.append_child(ElementNode(QName("", "price"),
                                          children=[TextNode("99")]))
        assert serialize(root) == "<o><price>0</price></o>"
        expected = ["<o><price>75</price></o>"]
        assert routes(database) == [expected, expected]
        assert database.xquery(query).stats.indexes_used
        if checkpoint:
            database.checkpoint()
    with reopen(tmp_path) as database:
        assert routes(database) == [expected, expected]
