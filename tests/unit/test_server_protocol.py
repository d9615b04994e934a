"""Unit tests for the server wire protocol and the query guard.

The framing layer (``repro.server.protocol``) must survive hostile
input — torn frames, oversized declared lengths, non-JSON bodies — and
the guard (``repro.xquery.guard``) must trip deadlines and budgets
from inside the evaluator's hot loops.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.errors import (ProtocolError, QueryLimitError,
                          QueryTimeoutError)
from repro.server.protocol import (HEADER, decode_payload, encode_frame,
                                   read_frame_async, read_frame_sync)
from repro.storage.catalog import Database
from repro.xquery.guard import QueryGuard, active_guard, guarded


def read_async(data: bytes, **kwargs):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader, **kwargs)
    return asyncio.run(_run())


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "query", "statement": "1 + 1", "n": [1, None]}
        frame = encode_frame(payload)
        (length,) = HEADER.unpack(frame[:4])
        assert length == len(frame) - 4
        assert read_async(frame) == payload

    def test_non_ascii_roundtrip(self):
        payload = {"statement": "<café>ü</café>"}
        assert read_async(encode_frame(payload)) == payload

    def test_clean_eof_returns_none(self):
        assert read_async(b"") is None

    def test_torn_header_is_connection_error(self):
        with pytest.raises(ConnectionError):
            read_async(b"\x00\x00")

    def test_torn_body_is_connection_error(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ConnectionError):
            read_async(frame[:-3])

    def test_oversized_frame_rejected_before_body_read(self):
        # Header declares 10MB; only the header is on the wire.  The
        # limit check must fire without waiting for (or allocating)
        # the body.
        with pytest.raises(ProtocolError) as info:
            read_async(HEADER.pack(10 * 1024 * 1024),
                       max_frame_bytes=1024)
        assert info.value.sqlstate == "08P01"

    def test_malformed_json_rejected(self):
        body = b"not json at all"
        with pytest.raises(ProtocolError):
            read_async(HEADER.pack(len(body)) + body)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")

    def test_sync_reader_matches_async(self):
        payload = {"op": "stats"}
        stream = io.BytesIO(encode_frame(payload))
        assert read_frame_sync(stream) == payload

    def test_sync_reader_torn_frame(self):
        stream = io.BytesIO(encode_frame({"op": "x"})[:-1])
        with pytest.raises(ConnectionError):
            read_frame_sync(stream)


_T = "db2-fn:xmlcolumn('T.D')"   # <r k="1"> with 600 <x>1</x>
_S = "db2-fn:xmlcolumn('S.D')"   # <r k="1"> with 200 <x>1</x>

#: (case, statement, the evaluator closure whose tick trips it).
GUARDED_LOOPS = [
    ("for", f"for $a in {_T}//x, $b in {_T}//x return $a + $b",
     "for_clause"),
    # A sequence operand keeps the predicate off the column kernel.
    ("predicate", f"{_T}/r/x[. = (1, 2)]", "predicate_filter"),
    ("column-predicate", f"{_T}/r/x[. = 1]", "nodes_where"),
    ("positional-predicate", f"{_T}/r/x[1]", "predicate_filter"),
    ("axis-step", f"{_T}/r/x/parent::r", "axis_step"),
    ("expression-step", f"{_T}//x/xs:double(.)", "expr_step"),
    # 600 inner items, one outer tuple
    ("hash-join-build",
     f"for $a in {_S}/r for $b in {_T}//x where $b = $a/@k return $b",
     "hash_join"),
    # 200 outer tuples, each matching the one inner item
    ("hash-join-probe",
     f"for $a in {_S}//x for $b in {_S}/r where $b/@k = $a return $a",
     "hash_join"),
    ("order-by", f"for $x in {_S}//x order by $x return 1", "order_by"),
    ("range", "count(1 to 2000000)", "integer_range"),
    ("quantifier", f"some $x in {_T}/r/x satisfies $x < 0", "quantify"),
]


class TestQueryGuard:
    def test_inactive_by_default(self):
        assert active_guard() is None

    def test_guarded_installs_and_restores(self):
        guard = QueryGuard()
        with guarded(guard):
            assert active_guard() is guard
        assert active_guard() is None

    def test_deadline_trips_on_tick(self):
        guard = QueryGuard(timeout_seconds=-1.0)  # already expired
        with pytest.raises(QueryTimeoutError) as info:
            guard.tick(QueryGuard.CHECK_EVERY)
        assert info.value.sqlstate == "57014"

    def test_cancel_trips_next_check(self):
        guard = QueryGuard()
        guard.cancel()
        with pytest.raises(QueryTimeoutError):
            guard.tick(QueryGuard.CHECK_EVERY)

    def test_row_budget(self):
        guard = QueryGuard(max_rows=10)
        guard.check_items(10)  # at the cap: fine
        with pytest.raises(QueryLimitError) as info:
            guard.check_items(11)
        assert info.value.sqlstate == "54000"

    def test_byte_budget_accumulates(self):
        guard = QueryGuard(max_bytes=100)
        guard.charge_bytes(60)
        with pytest.raises(QueryLimitError):
            guard.charge_bytes(60)

    def test_evaluator_honors_deadline_mid_flight(self):
        """An expired deadline aborts a FLWOR *while it runs* — the
        evaluator's own loop trips it, not a post-hoc check."""
        database = Database()
        database.create_table("t", [("d", "XML")])
        database.insert("t", {"d": "<r>" + "<x>1</x>" * 600 + "</r>"})
        guard = QueryGuard(timeout_seconds=-1.0)
        with guarded(guard):
            with pytest.raises(QueryTimeoutError):
                database.xquery(
                    "for $a in db2-fn:xmlcolumn('T.D')//x, "
                    "    $b in db2-fn:xmlcolumn('T.D')//x "
                    "return $a + $b")

    @pytest.mark.parametrize("statement, loop",
                             [case[1:] for case in GUARDED_LOOPS],
                             ids=[case[0] for case in GUARDED_LOOPS])
    def test_every_guarded_loop_trips_mid_flight(self, statement, loop):
        """One statement per ticked evaluator loop: under an expired
        deadline each aborts with 57014, and the tick that trips is the
        named loop's own (the statement keeps every other loop below
        the guard's CHECK_EVERY)."""
        database = Database()
        database.create_table("t", [("d", "XML")])
        database.insert("t", {"d": '<r k="1">' + "<x>1</x>" * 600 + "</r>"})
        database.create_table("s", [("d", "XML")])
        database.insert("s", {"d": '<r k="1">' + "<x>1</x>" * 200 + "</r>"})
        guard = QueryGuard(timeout_seconds=-1.0)
        with guarded(guard):
            with pytest.raises(QueryTimeoutError) as info:
                database.xquery(statement)
        assert info.value.sqlstate == "57014"
        frames = [entry.name for entry in info.traceback]
        assert frames[frames.index("tick") - 1] == loop

    @pytest.mark.parametrize("statement", [
        "count(1 to 2000000)",
        "some $x in (1 to 300000) satisfies $x < 0",
    ])
    def test_range_and_quantifier_honor_the_deadline(self, statement):
        """A range materializes one item per integer and a quantifier
        binds one variable per item: both tick, so neither runs to
        completion past an expired deadline."""
        guard = QueryGuard(timeout_seconds=0.0)
        with guarded(guard):
            with pytest.raises(QueryTimeoutError) as info:
                Database().xquery(statement)
        assert info.value.sqlstate == "57014"

    def test_range_ticks_one_per_integer(self):
        """``1 to 3`` accounts three ticks, far below CHECK_EVERY, so
        it never reads the clock even under an expired deadline."""
        guard = QueryGuard(timeout_seconds=-1.0)
        with guarded(guard):
            assert Database().xquery("count(1 to 3)").serialize() == ["3"]
        assert guard._ops == 3

    def test_evaluator_honors_row_budget_mid_flight(self):
        database = Database()
        database.create_table("t", [("d", "XML")])
        database.insert("t", {"d": "<r>" + "<x>1</x>" * 50 + "</r>"})
        guard = QueryGuard(max_rows=10)
        with guarded(guard):
            with pytest.raises(QueryLimitError):
                database.xquery(
                    "for $x in db2-fn:xmlcolumn('T.D')//x return $x")

    def test_unguarded_query_is_unlimited(self):
        database = Database()
        database.create_table("t", [("d", "XML")])
        database.insert("t", {"d": "<r>" + "<x>1</x>" * 50 + "</r>"})
        result = database.xquery(
            "for $x in db2-fn:xmlcolumn('T.D')//x return $x")
        assert len(result.items) == 50
