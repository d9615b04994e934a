"""Format pin: checkpoint bytes, WAL frames and column segments included.

A checkpoint is a compacted log: the records the engine logs, in the
WAL's frames (``checkpoint.log``, see :mod:`repro.durability.checkpoint`),
each document one column segment (``{"$seg": bytes}``, carried raw
after the record's JSON, see :mod:`repro.storage.segment`) whose names
and namespace scopes index the header record's shared ``names`` /
``scopes`` tables.
The sha256 of ``checkpoint.log`` written by ``repro ingest`` for the
paper fixture and for a generated 30-order collection is pinned here,
so any drift in frames, record shapes, segment encoding or table order
fails loudly.  A recovered database re-checkpoints to the same bytes; a
bad frame, a leftover ``checkpoint.json`` (the older format) and a
segment that cannot be adopted (bad parent, name out of range, CRC
mismatch, truncated heap) are typed errors naming the file or the
table and row, and ``recover --verify`` round-trips every adopted
document through serialize and parse.  A ``wal.log`` or
``checkpoint.log`` of an older frame format has no reader.

A deliberate format change re-captures the hashes with
``PYTHONPATH=src python -m tests.integration.test_checkpoint_format``.
"""

import hashlib
import io
from array import array
from pathlib import Path

import pytest

from repro import cli
from repro.durability import CHECKPOINT_NAME, WAL_NAME
from repro.durability.checkpoint import frame_records
from repro.durability.wal import MAGIC, scan_wal
from repro.errors import DurabilityError
from repro.storage.columnar import KIND_TEXT
from repro.storage.segment import Segment

GOLDEN = {
    "fixture": ((),
                "ec9bddf0551ccea8a02497dff1462f35"
                "5807003a54ad4a92101e703cfbdccde9"),
    "orders-30": (("--orders", "30"),
                  "d2404f4953c2885c698df1da9be234f7"
                  "5465712321210a273656ef2881ac9e0b"),
}


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    status = cli.main(list(argv), out=out)
    return status, out.getvalue()


def ingest_digest(directory: Path, extra) -> str:
    status, _out = run("ingest", "--data", str(directory), *extra)
    assert status == 0
    return hashlib.sha256(
        (directory / CHECKPOINT_NAME).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_checkpoint_bytes_are_pinned(name, tmp_path):
    extra, digest = GOLDEN[name]
    directory = tmp_path / "state"
    assert ingest_digest(directory, extra) == digest
    # Recover from that checkpoint and write a new one: same bytes.
    status, _out = run("checkpoint", "--data", str(directory))
    assert status == 0
    assert hashlib.sha256(
        (directory / CHECKPOINT_NAME).read_bytes()).hexdigest() == digest


def test_recover_verify_detects_tampered_paths(tmp_path):
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    status, out = run("recover", "--data", str(directory), "--verify")
    assert status == 0
    assert "verify: 10 documents round-trip slot for slot" in out

    # Split the first text slot in two: a valid segment (fresh CRC),
    # but no parse yields adjacent text nodes, so it cannot round-trip.
    def split_text(segment):
        slot = list(segment.kind).index(KIND_TEXT)
        leaf = sum(1 for kind in segment.kind[:slot] if kind >= 2)
        first = segment.length[leaf] // 2
        for column, value in (("kind", KIND_TEXT),
                              ("parent", segment.parent[slot]),
                              ("name", -1), ("scope", -1)):
            getattr(segment, column).insert(slot + 1, value)
        segment.parent = array("q", (parent + (parent > slot)
                                     for parent in segment.parent))
        segment.length.insert(leaf + 1, segment.length[leaf] - first)
        segment.length[leaf] = first
    rewrite_orders_segment(directory / CHECKPOINT_NAME, split_text)
    status, out = run("recover", "--data", str(directory), "--verify")
    assert status == 1
    assert "orders row 0 column orddoc: " in out


def read_records(checkpoint: Path) -> list[dict]:
    return [record for _number, record in scan_wal(checkpoint).records]


def tampered(directory: Path, change) -> None:
    """Ingest the paper fixture, then rewrite its checkpoint with
    ``change(records)`` applied, in fresh frames."""
    ingest_digest(directory, ())
    checkpoint = directory / CHECKPOINT_NAME
    records = read_records(checkpoint)
    change(records)
    checkpoint.write_bytes(frame_records(records))


def orders_document(records) -> dict:
    """The first order's document value, in its insert record."""
    return next(record["rows"][0]["orddoc"] for record in records
                if record["op"] == "insert"
                and record["table"] == "orders")


def rewrite_segment(value: dict, change) -> None:
    """Apply ``change(segment)`` to a document value's segment (columns
    widened to 64 bits) and re-pack it with a fresh CRC."""
    segment = Segment.from_bytes(value["$seg"], "test")
    for column in ("parent", "name", "scope", "length"):
        setattr(segment, column, array("q", getattr(segment, column)))
    change(segment)
    value["$seg"] = segment.to_bytes()


def rewrite_orders_segment(checkpoint: Path, change) -> None:
    records = read_records(checkpoint)
    rewrite_segment(orders_document(records), change)
    checkpoint.write_bytes(frame_records(records))


def tampered_segment(directory: Path, change) -> None:
    """Ingest the paper fixture, then rewrite the first order's segment
    with ``change(segment)`` applied and a fresh CRC."""
    tampered(directory,
             lambda records: rewrite_segment(orders_document(records),
                                             change))


WHERE = r"checkpoint orders row 0 column orddoc: "


def test_a_format_1_checkpoint_has_no_reader(tmp_path):
    # Formats 1 to 3 were one JSON document, ``checkpoint.json``; none
    # has a reader, and a leftover one is refused, never ignored:
    # alone, or beside a checkpoint.log.
    for old in (1, 2, 3):
        directory = tmp_path / f"state-{old}"
        directory.mkdir()
        (directory / "checkpoint.json").write_text(f'{{"format": {old}}}')
        with pytest.raises(DurabilityError,
                           match=r"checkpoint\.json: a checkpoint in the "
                                 r"older JSON format"):
            run("recover", "--data", str(directory))
        (directory / "checkpoint.json").unlink()
        ingest_digest(directory, ())
        (directory / "checkpoint.json").write_text(f'{{"format": {old}}}')
        with pytest.raises(DurabilityError, match=r"checkpoint\.json"):
            run("recover", "--data", str(directory))


def test_scan_wal_reads_a_checkpoint(tmp_path):
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    scan = scan_wal(directory / CHECKPOINT_NAME)
    assert scan.torn_bytes == 0
    assert [number for number, _record in scan.records] == list(
        range(1, len(scan.records) + 1))
    header, *records = [record for _number, record in scan.records]
    assert header["op"] == "checkpoint" and header["last_lsn"] > 0
    ops = [record["op"] for record in records]
    assert ops == sorted(ops, key=["create_table", "register_schema",
                                   "insert", "create_xml_index",
                                   "create_relational_index"].index)
    assert sum(len(record["rows"]) for record in records
               if record["op"] == "insert") == 15


@pytest.mark.parametrize("damage", ["flipped crc", "truncated frame"])
def test_a_bad_checkpoint_frame_is_corruption(tmp_path, damage):
    # Unlike the WAL's torn tail, which recovery cuts off, a bad frame
    # in a renamed checkpoint is an error naming the file.
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    checkpoint = directory / CHECKPOINT_NAME
    data = bytearray(checkpoint.read_bytes())
    if damage == "flipped crc":
        data[len(MAGIC) + 8] ^= 1  # the header frame's CRC
    else:
        del data[-5:]
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(DurabilityError,
                       match=r"checkpoint\.log: corrupt checkpoint: bad "
                             r"frame at byte \d+"):
        run("recover", "--data", str(directory))
    assert checkpoint.read_bytes() == bytes(data)


def test_a_reprowal1_log_has_no_reader(tmp_path):
    # Neither REPROWAL1 (XML text) nor REPROWAL2 (an insert record's
    # one row as "values") has a reader.
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    for old in ("REPROWAL1", "REPROWAL2"):
        (directory / WAL_NAME).write_bytes(old.encode("ascii") + b"\n")
        with pytest.raises(DurabilityError,
                           match=f"unsupported WAL format '{old}'"):
            run("recover", "--data", str(directory))


@pytest.mark.parametrize("name", [WAL_NAME, CHECKPOINT_NAME])
def test_a_reprowal3_file_has_no_reader(tmp_path, name):
    # REPROWAL3 carried segments as text inside the JSON; a log or a
    # checkpoint in it is refused, naming the file.
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    path = directory / name
    path.write_bytes(b"REPROWAL3\n" + path.read_bytes()[len(MAGIC):])
    with pytest.raises(DurabilityError,
                       match=rf"{name}: unsupported WAL format "
                             rf"'REPROWAL3'"):
        run("recover", "--data", str(directory))


@pytest.mark.parametrize("parent", [3, 7, -2, 0, None])
def test_recover_rejects_a_path_row_with_a_bad_parent(tmp_path, parent):
    # Slot 3 (the first order's date text) gets a parent after it (3,
    # 7), below -1 (-2), none at all (None: a second root), or the
    # document (0), which closes the elements slot 4 belongs to.
    def change(segment):
        segment.parent[3] = -1 if parent is None else parent
    directory = tmp_path / "state"
    tampered_segment(directory, change)
    with pytest.raises(DurabilityError,
                       match=WHERE + r"slot [34]: parent -?\d+ (outside "
                             r"\[-1, 3\)|is not an open element)"):
        run("recover", "--data", str(directory))


def test_recover_rejects_a_malformed_path_row(tmp_path):
    # The header's shared name table replaces format 2's shared path
    # table.
    def change(records):
        records[0]["names"][2] = [1, "text"]
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match=r"checkpoint: malformed name or scope table"):
        run("recover", "--data", str(directory))


@pytest.mark.parametrize("path_row", [-1, 10_000, 1])
def test_recover_verify_rejects_a_paths_row_out_of_range(tmp_path,
                                                         path_row):
    # The root element's name index: negative, or ``path_row`` past the
    # end of the checkpoint's name table.
    def change(records):
        size = len(records[0]["names"])
        rewrite_segment(orders_document(records), lambda segment: (
            segment.name.__setitem__(
                1, path_row if path_row < 0 else size + path_row)))
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match=WHERE + r"slot 1: name -?\d+ outside the "
                             r"\d+ names"):
        run("recover", "--data", str(directory), "--verify")


def test_recover_verify_detects_a_swapped_path_row(tmp_path):
    # In range but naming another parent: the last text moves under
    # the document, after the root element.  The segment adopts; its
    # serialization does not parse back: a mismatch, not an error.
    def change(segment):
        segment.parent[len(segment.kind) - 1] = 0
    directory = tmp_path / "state"
    tampered_segment(directory, change)
    status, out = run("recover", "--data", str(directory), "--verify")
    assert status == 1
    assert "orders row 0 column orddoc: does not parse back" in out


def test_recover_rejects_a_segment_whose_crc_does_not_match(tmp_path):
    def change(records):
        document = orders_document(records)
        data = bytearray(document["$seg"])
        data[-1] ^= 1
        document["$seg"] = bytes(data)
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError, match=WHERE + "segment CRC"):
        run("recover", "--data", str(directory))


def test_recover_rejects_a_truncated_heap(tmp_path):
    # A fresh CRC over the cut heap: the slot lengths no longer add up.
    def change(segment):
        segment.text = segment.text[:-1]
    directory = tmp_path / "state"
    tampered_segment(directory, change)
    with pytest.raises(DurabilityError,
                       match=WHERE + r"slot lengths add up to \d+ "
                             r"characters, the text heap holds \d+"):
        run("recover", "--data", str(directory))


if __name__ == "__main__":
    import tempfile
    for name, (extra, _digest) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as scratch:
            print(name, ingest_digest(Path(scratch) / "state", extra))
