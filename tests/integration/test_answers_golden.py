"""Golden answers for the paper's 30 queries.

The Definition 1 tests and the ledger oracle compare the indexed route
against the index-free route; both run the same evaluator, so a change
that alters both answers alike passes them.  This file pins the
canonical text (:func:`run_paper_query`, errors included) of every
paper query on the indexed and on the unindexed paper fixture in
``golden_answers.json``.  A deliberate semantic change re-captures the
file with ``PYTHONPATH=src python -m tests.integration.test_answers_golden``
and the diff is reviewed query by query.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database
from repro.workload.paperqueries import (PAPER_QUERIES, load_paper_fixture,
                                         run_paper_query)

GOLDEN = Path(__file__).with_name("golden_answers.json")

FIXTURES = ("indexed", "unindexed")


def paper_answers(fixture: str) -> dict[str, str]:
    database = Database()
    load_paper_fixture(database, with_indexes=fixture == "indexed")
    return {f"q{number}": run_paper_query(database, number)
            for number in sorted(PAPER_QUERIES)}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_paper_answers_match_golden(fixture):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[fixture]
    answers = paper_answers(fixture)
    assert answers.keys() == golden.keys()
    for name, expected in golden.items():
        assert answers[name] == expected, name


def test_golden_pins_the_predicted_error():
    """Query 25's XPDY0050 is part of the canonical answer."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for fixture in FIXTURES:
        assert "XPDY0050" in golden[fixture]["q25"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({fixture: paper_answers(fixture)
                                  for fixture in FIXTURES},
                                 indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
