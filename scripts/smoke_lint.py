#!/usr/bin/env python
"""CI smoke test for ``repro lint``.

Builds the paper's indexed schema and feeds the lint entry point one
statement per diagnostic family, asserting each produces exactly the
reason code the paper's section predicts:

* §3.1  incomparable comparison            → SE004
* §3.1  statically-empty path              → SE005
* §3.7  namespace drift vs the index       → SW307
* §3.8  ``/text()`` misalignment           → SW308
* §3.9  attribute-axis confusion           → SW309
* Tip 1 uncast join                        → SW301
* Tip 2 select-list XMLQUERY predicate     → SW321
* Tip 3 boolean-bodied XMLEXISTS           → SW322
* Tip 4 XMLTABLE column predicate          → SW323
* Tip 6 SQL comparison join                → SW303
* Tip 7 predicate in constructor content   → SW342
* Tip 8 absolute path, constructed root    → SW305
* clean query                              → no findings, exit 0

Also checks the CLI contract: error-severity findings exit 1, JSON
output parses and carries each finding's tip text as ``suggestion``.
Run as::

    PYTHONPATH=src python scripts/smoke_lint.py
"""

from __future__ import annotations

import io
import json
import sys

from repro import Database
from repro.cli import run_lint
from repro.static import lint_statement
from repro.workload import populate_paper_schema

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"

CASES = [
    ("SE004", f"for $i in {XMLCOL}//order"
              "[xs:double(custid) = xs:date(date)] return $i"),
    ("SE005", f"for $i in {XMLCOL}//order[warehouse/code = 'X'] "
              "return $i"),
    ("SW307", "declare namespace f = 'http://fruit.example'; "
              f"for $i in {XMLCOL}//f:order[f:lineitem/@price > 100] "
              "return $i"),
    ("SW308", f"for $i in {XMLCOL}//order[custid/text() = '1001'] "
              "return $i"),
    ("SW309", f"for $i in {XMLCOL}//order[lineitem/price > 100] "
              "return $i"),
    ("SW301", 'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
              'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
              "where $i/custid = $j/id return $i"),
    ("SW321", "SELECT XMLQuery('$o//lineitem[@price > 100]' "
              'passing orddoc as "o") FROM orders'),
    ("SW322", "SELECT ordid FROM orders WHERE XMLExists("
              "'$o//lineitem/@price > 100' passing orddoc as \"o\")"),
    ("SW323", "SELECT o.ordid, t.price FROM orders o, "
              "XMLTable('$d//lineitem' passing o.orddoc as \"d\" "
              "COLUMNS price DOUBLE PATH '@price[. > 100]') AS t"),
    ("SW303", "SELECT c.cid FROM orders o, customer c "
              "WHERE XMLCast(XMLQuery('$o/order/custid' passing "
              "o.orddoc as \"o\") as DOUBLE) = XMLCast(XMLQuery("
              "'$c/customer/id' passing c.cdoc as \"c\") as DOUBLE)"),
    ("SW342", f"for $o in {XMLCOL}/order "
              "return <r>{$o/lineitem[@price > 100]}</r>"),
    ("SW305", f"let $o := <n>{{{XMLCOL}/order}}</n> "
              "return $o[//custid]"),
]

CLEAN = (f"for $i in {XMLCOL}//order[lineitem/@price > 100] "
         "return $i")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    database = Database()
    populate_paper_schema(database, orders=40, customers=8, products=10,
                          seed=7, with_indexes=True)
    database.create_xml_index("o_custid_str", "orders", "orddoc",
                              "//order/custid", "VARCHAR")

    for expected, statement in CASES:
        codes = {finding.code.code for finding in
                 lint_statement(statement, database=database)}
        if expected not in codes:
            fail(f"expected {expected} for {statement!r}, got "
                 f"{sorted(codes) or 'nothing'}")

    clean = lint_statement(CLEAN, database=database)
    if clean:
        fail(f"clean query produced findings: "
             f"{[str(finding) for finding in clean]}")

    # CLI contract: SE-severity findings exit 1 and JSON parses.
    buffer = io.StringIO()
    status = run_lint(database, CASES[0][1], as_json=True, out=buffer)
    if status != 1:
        fail("run_lint should exit 1 on a static error")
    payload = json.loads(buffer.getvalue())
    if not any(entry["code"] == "SE004" and entry["suggestion"]
               for entry in payload):
        fail(f"JSON output missing SE004 with its tip text: {payload}")
    if run_lint(database, CLEAN, out=io.StringIO()) != 0:
        fail("run_lint should exit 0 on a clean statement")

    print(f"smoke ok: {len(CASES)} diagnostic families fire, clean "
          "query is clean, CLI exit codes and JSON agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
