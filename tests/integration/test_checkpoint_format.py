"""Format pin: checkpoint format-v3 bytes, column segments included.

A checkpoint stores every document as one column segment
(``{"$seg": base64 bytes, "$text": heap}``, see
:mod:`repro.storage.segment`) whose names and namespace scopes index
the checkpoint's shared ``names`` / ``scopes`` tables.  The sha256 of
``checkpoint.json`` written by ``repro ingest`` for the paper fixture
and for a generated 30-order collection is pinned here, so any drift in
segment encoding, table order or row layout fails loudly instead of
silently changing format v3.  A recovered database re-checkpoints to
the same bytes; a segment that cannot be adopted (bad parent, name out
of range, CRC mismatch, truncated heap) is a typed error naming its
table and row, and ``recover --verify`` round-trips every adopted
document through serialize and parse.

A deliberate format change bumps ``FORMAT_VERSION`` and re-captures
the hashes with
``PYTHONPATH=src python -m tests.integration.test_checkpoint_format``.
"""

import base64
import hashlib
import io
import json
from array import array
from pathlib import Path

import pytest

from repro import cli
from repro.durability import CHECKPOINT_NAME, WAL_NAME
from repro.errors import DurabilityError
from repro.storage.columnar import KIND_TEXT
from repro.storage.segment import Segment

GOLDEN = {
    "fixture": ((),
                "0fa066f3a01fbad29801fced54bb69c3"
                "44de6c97cd48cd664925098be892c585"),
    "orders-30": (("--orders", "30"),
                  "81963110aaf7370a53ff86f9cb31ab0f"
                  "633e044fc5fd30a32d5c38527e59f4f8"),
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


def tampered(directory: Path, change) -> None:
    """Ingest the paper fixture, then rewrite its checkpoint with
    ``change(state)`` applied."""
    ingest_digest(directory, ())
    checkpoint = directory / CHECKPOINT_NAME
    state = json.loads(checkpoint.read_bytes())
    change(state)
    checkpoint.write_text(json.dumps(state), encoding="utf-8")


def orders_document(state) -> dict:
    orders = next(table for table in state["tables"]
                  if table["name"] == "orders")
    return orders["rows"][0]["orddoc"]


def rewrite_segment(value: dict, change) -> None:
    """Apply ``change(segment)`` to a document value's segment (columns
    widened to 64 bits) and re-pack it with a fresh CRC."""
    segment = Segment.from_bytes(base64.b64decode(value["$seg"]),
                                 value["$text"], "test")
    for column in ("parent", "name", "scope", "length"):
        setattr(segment, column, array("q", getattr(segment, column)))
    change(segment)
    value["$seg"] = base64.b64encode(segment.to_bytes()).decode("ascii")
    value["$text"] = segment.text


def rewrite_orders_segment(checkpoint: Path, change) -> None:
    state = json.loads(checkpoint.read_bytes())
    rewrite_segment(orders_document(state), change)
    checkpoint.write_text(json.dumps(state), encoding="utf-8")


def tampered_segment(directory: Path, change) -> None:
    """Ingest the paper fixture, then rewrite the first order's segment
    with ``change(segment)`` applied and a fresh CRC."""
    tampered(directory,
             lambda state: rewrite_segment(orders_document(state), change))


WHERE = r"checkpoint orders row 0 column orddoc: "


def test_a_format_1_checkpoint_has_no_reader(tmp_path):
    # Neither format 1 (XML text) nor format 2 (XML text and per-
    # document path counts) has a reader.
    for old in (1, 2):
        def change(state):
            state["format"] = old
        directory = tmp_path / f"state-{old}"
        tampered(directory, change)
        with pytest.raises(DurabilityError,
                           match=f"unsupported checkpoint format {old}"):
            run("recover", "--data", str(directory))


def test_a_reprowal1_log_has_no_reader(tmp_path):
    directory = tmp_path / "state"
    ingest_digest(directory, ())
    (directory / WAL_NAME).write_bytes(b"REPROWAL1\n")
    with pytest.raises(DurabilityError,
                       match="unsupported WAL format 'REPROWAL1'"):
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
    # The shared name table replaces format 2's shared path table.
    def change(state):
        state["names"][2] = [1, "text"]
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
    def change(state):
        size = len(state["names"])
        rewrite_segment(orders_document(state), lambda segment: (
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
    def change(state):
        document = orders_document(state)
        data = bytearray(base64.b64decode(document["$seg"]))
        data[-1] ^= 1
        document["$seg"] = base64.b64encode(bytes(data)).decode("ascii")
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
