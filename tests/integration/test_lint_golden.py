"""Golden lint output for the paper's 30 queries.

``repro lint`` is the one advice pipeline (Tips 1–12, reason codes,
tip text as suggestion).  Its findings for every paper query on the
indexed paper fixture are pinned in ``golden_lint.json``.  A
deliberate change to a rule re-captures the file with
``PYTHONPATH=src python -m tests.integration.test_lint_golden`` and the
diff is reviewed finding by finding.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Database
from repro.static import lint_statement
from repro.workload.paperqueries import PAPER_QUERIES, load_paper_fixture

GOLDEN = Path(__file__).with_name("golden_lint.json")


def paper_findings() -> dict[str, list[dict]]:
    database = Database()
    load_paper_fixture(database)
    return {f"q{number}": [finding.to_dict() for finding in
                           lint_statement(text, database=database)]
            for number, (_kind, text) in sorted(PAPER_QUERIES.items())}


@pytest.fixture(scope="module")
def findings() -> dict[str, list[dict]]:
    return paper_findings()


def test_paper_query_findings_match_golden(findings):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert findings.keys() == golden.keys()
    for name, expected in golden.items():
        assert findings[name] == expected, name


def test_paper_query_codes(findings):
    """The golden file, read as codes: the paper's predicted pitfalls."""
    codes = {name: {item["code"] for item in items}
             for name, items in findings.items() if items}
    assert codes == {
        "q3": {"SW311"},
        "q5": {"SW321"}, "q10": {"SW321"},
        "q9": {"SW322"},
        "q12": {"SW323"},
        "q14": {"SW303"},
        "q15": {"SW301", "SW303"},
        "q18": {"SW341"},
        "q19": {"SW342"},
        "q25": {"SW342", "SW305"},
        "q28": {"SE005", "SW301", "SW307"},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(paper_findings(), indent=1,
                                 ensure_ascii=False) + "\n",
                      encoding="utf-8")
