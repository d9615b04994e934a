"""Quickstart: store XML, index it, query it, and see why the index
was (or wasn't) used.

Run:  python examples/quickstart.py
"""

from repro import Database
from repro.planner import explain_xquery
from repro.static import lint_statement


def main() -> None:
    db = Database()

    # 1. A table with a native XML column — no schema required.
    db.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
    documents = [
        (1, "<order><custid>1001</custid>"
            "<lineitem price='150'><product><id>17</id></product>"
            "</lineitem></order>"),
        (2, "<order><custid>1002</custid>"
            "<lineitem price='99.50'><product><id>18</id></product>"
            "</lineitem></order>"),
        (3, "<order><custid>1001</custid>"
            "<lineitem price='20 USD'/></order>"),   # schema flexibility!
    ]
    for ordid, doc in documents:
        db.insert("orders", {"ordid": ordid, "orddoc": doc})

    # 2. A path-specific typed XML index (paper §2.1 DDL).
    db.execute("CREATE INDEX li_price ON orders(orddoc) "
               "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")

    # 3. Standalone XQuery — the index pre-filters the collection.
    query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
             "//order[lineitem/@price>100] return $i")
    result = db.xquery(query)
    print("== Query 1 (paper §2.2) ==")
    for item in result.serialize():
        print("  ", item)
    print("docs scanned:", result.stats.docs_scanned,
          "| indexes used:", result.stats.indexes_used)

    # 4. SQL/XML — the same data through XMLEXISTS.
    sql_result = db.sql(
        "SELECT ordid FROM orders WHERE XMLEXISTS("
        "'$o//lineitem[@price > 100]' PASSING orddoc AS \"o\")")
    print("\n== SQL/XML (Query 8 form) ==")
    print("qualifying ordids:", [row[0] for row in sql_result.rows])

    # 5. Explain eligibility — why an index is or is not usable.
    print("\n== explain ==")
    print(explain_xquery(db, query))

    # 6. The lint flags pitfalls before you hit them.
    print("\n== lint on a pitfall query (string literal, §3.1) ==")
    pitfall = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
               '//order[lineitem/@price > "100"] return $i')
    for finding in lint_statement(pitfall, database=db):
        print("  ", finding)
        print("     tip:", finding.suggestion)


if __name__ == "__main__":
    main()
