"""The crash matrix: every fault point × every torn-tail offset.

A scripted DDL+DML workload runs against a durable directory with a
crash injected at each named fault point (and, separately, with the
WAL torn at every byte offset of its final record).  After recovery,
all 30 paper queries must answer **byte-identically** to an uncrashed
in-memory oracle holding exactly the durable prefix of the workload —
and a second recovery must be a no-op.

The op ↔ LSN mapping makes the oracle exact: every workload op is one
logged record, so a recovered ``last_lsn`` of *p* means ops ``[0:p]``
survived and nothing else.
"""

import pytest

from repro import Database
from repro.durability import (WAL_NAME, CrashError, DurableDatabase,
                              FAULT_POINTS, FaultInjector)
from repro.durability.faults import torn_tail_sizes
from repro.durability.wal import scan_wal
from repro.schema.schema import Schema
from repro.workload.paperqueries import (PAPER_CUSTOMERS, PAPER_ORDERS,
                                         PAPER_PRODUCTS, PAPER_QUERIES,
                                         run_paper_query)

ORDER_SCHEMA = (Schema("ord-v1", strict=False)
                .declare("custid", "xs:double"))


def _build_ops():
    """The scripted workload: each op applies exactly one WAL record."""
    ops = [
        ("create customer", lambda db: db.create_table(
            "customer", [("cid", "INTEGER"), ("cdoc", "XML")])),
        ("create orders", lambda db: db.create_table(
            "orders", [("ordid", "INTEGER"), ("orddoc", "XML")])),
        ("create products", lambda db: db.create_table(
            "products", [("id", "VARCHAR(13)"), ("name", "VARCHAR(32)")])),
        ("register ord-v1", lambda db: db.register_schema(ORDER_SCHEMA)),
    ]
    for ordid, document in PAPER_ORDERS[:4]:
        ops.append((f"insert order {ordid}",
                    lambda db, o=ordid, d=document: db.insert(
                        "orders", {"ordid": o, "orddoc": d},
                        schema="ord-v1")))
    for cid, document in PAPER_CUSTOMERS[:2]:
        ops.append((f"insert customer {cid}",
                    lambda db, c=cid, d=document: db.insert(
                        "customer", {"cid": c, "cdoc": d})))
    ops += [
        ("create li_price", lambda db: db.create_xml_index(
            "li_price", "orders", "orddoc", "//lineitem/@price",
            "DOUBLE")),
        ("create c_custid", lambda db: db.create_xml_index(
            "c_custid", "customer", "cdoc", "/customer/id", "DOUBLE")),
        ("create p_id", lambda db: db.create_relational_index(
            "p_id", "products", "id")),
    ]
    for product_id, name in PAPER_PRODUCTS[:3]:
        ops.append((f"insert product {product_id}",
                    lambda db, i=product_id, n=name: db.insert(
                        "products", {"id": i, "name": n})))
    ops += [
        (f"insert order {PAPER_ORDERS[4][0]}",
         lambda db: db.insert("orders",
                              {"ordid": PAPER_ORDERS[4][0],
                               "orddoc": PAPER_ORDERS[4][1]})),
        # Online build: snapshot scan → catch-up → publish.  One WAL
        # record (logged at publish) keeps the op ↔ LSN invariant; the
        # plain-Database oracle runs the same method offline-equivalent.
        ("online build o_custid",
         lambda db: db.create_xml_index_online(
             "o_custid", "orders", "orddoc", "//custid", "DOUBLE")),
        ("delete even orders", lambda db: db.delete_rows(
            "orders", lambda values: values["ordid"] % 2 == 0)),
        # Final op is deliberately tiny so the torn-tail matrix stays
        # a few dozen offsets wide.
        ("drop p_id", lambda db: db.drop_index("p_id")),
    ]
    return ops


OPS = _build_ops()
CHECKPOINT_AT = 9  # checkpoint fires before OPS[9], mid-workload


def answers(database) -> dict[int, str]:
    return {number: run_paper_query(database, number)
            for number in PAPER_QUERIES}


_oracle_cache: dict[int, dict[int, str]] = {}


def oracle_answers(prefix: int) -> dict[int, str]:
    """All 30 answers from a fresh in-memory DB with ops[0:prefix]."""
    if prefix not in _oracle_cache:
        database = Database()
        for _name, op in OPS[:prefix]:
            op(database)
        _oracle_cache[prefix] = answers(database)
    return _oracle_cache[prefix]


def run_until_crash(directory, faults, **options) -> int:
    """Apply the workload; return how many ops completed pre-crash."""
    database = DurableDatabase(str(directory), faults=faults, **options)
    completed = 0
    try:
        for index, (_name, op) in enumerate(OPS):
            if index == CHECKPOINT_AT:
                database.checkpoint()
            op(database)
            completed += 1
    except CrashError:
        database._wal.abandon()  # a dead process never flushes
        return completed
    database.close()
    raise AssertionError("fault point never fired")


# Every registered point at its first firing, plus mid-workload and
# post-checkpoint crashes, plus torn partial writes that reached disk.
CRASH_SCENARIOS = [(point, 0, 0) for point in FAULT_POINTS] + [
    ("wal.append.before_write", 5, 0),
    ("wal.append.before_fsync", 5, 0),
    ("wal.append.after_fsync", 5, 0),
    ("wal.append.before_fsync", CHECKPOINT_AT + 2, 0),
    ("wal.append.before_fsync", 2, 5),
    ("wal.append.before_fsync", 7, 13),
]


@pytest.mark.parametrize(
    "point,skip,keep_bytes", CRASH_SCENARIOS,
    ids=[f"{point}+{skip}" + (f"+torn{keep}" if keep else "")
         for point, skip, keep in CRASH_SCENARIOS])
def test_crash_point_recovers_to_exact_durable_prefix(
        tmp_path, point, skip, keep_bytes):
    faults = FaultInjector(point, skip=skip, keep_bytes=keep_bytes)
    completed = run_until_crash(tmp_path, faults)
    assert faults.fired

    with DurableDatabase(str(tmp_path)) as database:
        recovery = database.last_recovery
        prefix = recovery.last_lsn
        # The crashed op's record is durable iff the crash hit after
        # its fsync; nothing beyond it can ever survive.
        assert prefix in (completed, completed + 1)
        assert answers(database) == oracle_answers(prefix)

    with DurableDatabase(str(tmp_path)) as database:
        second = database.last_recovery
        assert second.last_lsn == prefix
        assert second.truncated_bytes == 0  # first recovery repaired
        assert answers(database) == oracle_answers(prefix)


def test_a_one_byte_pool_answers_like_the_oracle(tmp_path):
    # Every document but the newest is cold, its columns only in the
    # log: the checkpoint re-points them at checkpoint.log, and a crash
    # between its rename and the re-pointing leaves the old pointers
    # readable in the crashed process and the new checkpoint for the
    # next one.
    faults = FaultInjector("checkpoint.before_repoint")
    live = tmp_path / "crashed"
    completed = run_until_crash(live, faults, buffer_pool_bytes=1)
    with DurableDatabase(str(live), buffer_pool_bytes=1) as database:
        prefix = database.last_recovery.last_lsn
        assert prefix == completed == CHECKPOINT_AT
        assert answers(database) == oracle_answers(prefix)
    with DurableDatabase(str(tmp_path / "whole"),
                         buffer_pool_bytes=1) as database:
        for index, (_name, op) in enumerate(OPS):
            if index == CHECKPOINT_AT:
                database.checkpoint()
            op(database)
        assert answers(database) == oracle_answers(len(OPS))
        assert any(stored._store is None
                   for stored in database.documents("orders", "orddoc"))
    with DurableDatabase(str(tmp_path / "whole"),
                         buffer_pool_bytes=1) as database:
        assert answers(database) == oracle_answers(len(OPS))


def test_torn_tail_matrix_recovers_at_every_offset(tmp_path):
    directory = tmp_path / "state"
    with DurableDatabase(str(directory)) as database:
        for _name, op in OPS:
            op(database)
    wal_path = directory / WAL_NAME
    whole = wal_path.read_bytes()
    scan = scan_wal(str(wal_path))
    assert scan.last_lsn == len(OPS)
    expected = oracle_answers(len(OPS) - 1)
    sizes = torn_tail_sizes(scan.last_record_start, scan.file_size)
    assert len(sizes) >= 12  # frame header alone is 12 bytes
    for size in sizes:
        wal_path.write_bytes(whole[:size])
        with DurableDatabase(str(directory)) as database:
            recovery = database.last_recovery
            assert recovery.last_lsn == len(OPS) - 1, f"cut at {size}"
            assert recovery.truncated_bytes == \
                size - scan.last_record_start
            assert answers(database) == expected, f"cut at {size}"


def test_uncrashed_workload_roundtrips(tmp_path):
    """Baseline: the full workload recovers to the full oracle."""
    with DurableDatabase(str(tmp_path)) as database:
        for index, (_name, op) in enumerate(OPS):
            if index == CHECKPOINT_AT:
                database.checkpoint()
            op(database)
        live = answers(database)
    assert live == oracle_answers(len(OPS))
    with DurableDatabase(str(tmp_path)) as database:
        assert database.last_recovery.checkpoint_lsn == CHECKPOINT_AT
        assert answers(database) == live
