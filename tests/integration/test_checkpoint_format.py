"""Format pin: checkpoint format-v1 bytes, ``$paths`` included.

A checkpoint stores every document's canonical XML next to its path
table's shape (``$paths``: interned root-to-node paths with node counts,
sorted).  The sha256 of ``checkpoint.json`` written by ``repro ingest``
for the paper fixture and for a generated 30-order collection is pinned
here, so any drift in path capture, counting, ordering or encoding
fails loudly instead of silently changing format v1.  A recovered
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

GOLDEN = {
    "fixture": ((),
                "3e50cd51b49afbd4b9d6158477cb0dfe"
                "47f125e61fc4999ba9091d85fb1828ab"),
    "orders-30": (("--orders", "30"),
                  "0153733550b0fc91b0a9682149bb3e3d"
                  "3ad0cdf45d71e872cad7589210da83e5"),
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


if __name__ == "__main__":
    import tempfile
    for name, (extra, _digest) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as scratch:
            print(name, ingest_digest(Path(scratch) / "state", extra))
