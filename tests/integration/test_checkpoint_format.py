"""Format pin: checkpoint format-v2 bytes, paths included.

A checkpoint stores every document's canonical XML next to its path
counts (``$paths``: ``[path row, node count]`` pairs, sorted) over one
top-level path table (``paths``: parent-pointer rows in order of first
appearance).  The sha256 of ``checkpoint.json`` written by ``repro
ingest`` for the paper fixture and for a generated 30-order collection
is pinned here, so any drift in path capture, counting, ordering or
encoding fails loudly instead of silently changing format v2.  A recovered
database re-checkpoints to the same bytes, and ``recover --verify``
still checks serialize → parse → re-capture end to end.

A deliberate format change bumps ``FORMAT_VERSION`` and re-captures
the hashes with
``PYTHONPATH=src python -m tests.integration.test_checkpoint_format``.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.durability import CHECKPOINT_NAME
from repro.errors import DurabilityError

GOLDEN = {
    "fixture": ((),
                "952168cc8655cba8ba664f1eec703291"
                "6f58df7ba0a3a3d49ef8f51a0ce32609"),
    "orders-30": (("--orders", "30"),
                  "df1e99a57c3adaa2a97f9586e47bb323"
                  "91c3773a74589b9b62910b1b0b70ea1e"),
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
    assert "verify: 10 document summaries match" in out
    checkpoint = directory / CHECKPOINT_NAME
    state = json.loads(checkpoint.read_bytes())
    orders = next(table for table in state["tables"]
                  if table["name"] == "orders")
    orders["rows"][0]["orddoc"]["$paths"][0][1] += 1
    checkpoint.write_text(json.dumps(state), encoding="utf-8")
    status, out = run("recover", "--data", str(directory), "--verify")
    assert status == 1
    assert "orders row 0 column orddoc" in out


def tampered(directory: Path, change) -> None:
    """Ingest the paper fixture, then rewrite its checkpoint with
    ``change(state)`` applied."""
    ingest_digest(directory, ())
    checkpoint = directory / CHECKPOINT_NAME
    state = json.loads(checkpoint.read_bytes())
    change(state)
    checkpoint.write_text(json.dumps(state), encoding="utf-8")


def orders_paths(state) -> list:
    orders = next(table for table in state["tables"]
                  if table["name"] == "orders")
    return orders["rows"][0]["orddoc"]["$paths"]


def test_a_format_1_checkpoint_has_no_reader(tmp_path):
    def change(state):
        state["format"] = 1
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match="unsupported checkpoint format 1"):
        run("recover", "--data", str(directory))


@pytest.mark.parametrize("parent", [3, 7, -2, "0", None])
def test_recover_rejects_a_path_row_with_a_bad_parent(tmp_path, parent):
    # Row 3's parent must be a row before it, or -1 (the empty path).
    def change(state):
        state["paths"][3][0] = parent
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match=r"checkpoint path table row 3: .* is not "
                             r"\[parent index in \[-1, 3\)"):
        run("recover", "--data", str(directory))


def test_recover_rejects_a_malformed_path_row(tmp_path):
    def change(state):
        state["paths"][2] = [1, "text"]
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match=r"checkpoint path table row 2: "):
        run("recover", "--data", str(directory))


@pytest.mark.parametrize("path_row", [-1, 10_000, "1"])
def test_recover_verify_rejects_a_paths_row_out_of_range(tmp_path,
                                                         path_row):
    def change(state):
        orders_paths(state)[0][0] = path_row
    directory = tmp_path / "state"
    tampered(directory, change)
    with pytest.raises(DurabilityError,
                       match=r"checkpoint orders row 0 column orddoc: "
                             r"\$paths row .* outside the path table"):
        run("recover", "--data", str(directory), "--verify")


def test_recover_verify_detects_a_swapped_path_row(tmp_path):
    # In range but naming another path: a mismatch, not an error.
    def change(state):
        pairs = orders_paths(state)
        pairs[0][0], pairs[1][0] = pairs[1][0], pairs[0][0]
        pairs[0][1] += 1
    directory = tmp_path / "state"
    tampered(directory, change)
    status, out = run("recover", "--data", str(directory), "--verify")
    assert status == 1
    assert "orders row 0 column orddoc" in out
    assert "with differing shapes" in out


if __name__ == "__main__":
    import tempfile
    for name, (extra, _digest) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as scratch:
            print(name, ingest_digest(Path(scratch) / "state", extra))
