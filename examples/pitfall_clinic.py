"""The pitfall clinic: every Section 3 pitfall, shown live.

For each pitfall area this script runs the paper's *problem*
formulation and the *recommended* formulation side by side, printing
result cardinalities, index usage, and the lint's diagnosis — a
runnable version of the paper's ten sections.

Run:  python examples/pitfall_clinic.py
"""

from repro import Database
from repro.static import lint_statement
from repro.workload import OrderProfile, populate_paper_schema


def show(db: Database, title: str, queries: dict[str, str]) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))
    for label, query in queries.items():
        language = ("sql" if query.lstrip().upper().startswith(
            ("SELECT", "VALUES")) else "xquery")
        try:
            if language == "sql":
                result = db.sql(query)
                rows, stats = len(result), result.stats
            else:
                result = db.xquery(query)
                rows, stats = len(result), result.stats
            print(f"  [{label}] rows={rows} docs_scanned="
                  f"{stats.docs_scanned} indexes={stats.indexes_used}")
        except Exception as error:
            print(f"  [{label}] ERROR: {error}")
        warnings = [item for item in lint_statement(query, database=db)
                    if item.severity == "warning"]
        for item in warnings[:2]:
            print(f"      lint: {item}")
            print(f"        tip: {item.suggestion}")


def main() -> None:
    db = Database()
    populate_paper_schema(
        db, orders=120, customers=15, products=10,
        profile=OrderProfile(price_low=1, price_high=200,
                             string_price_fraction=0.05))

    show(db, "§3.1 predicate data types", {
        "pitfall: string literal":
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
            '//order[lineitem/@price > "190"] return $i',
        "fix: numeric literal":
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
            "//order[lineitem/@price > 190] return $i",
    })

    show(db, "§3.2 SQL/XML query functions", {
        "pitfall: XMLQUERY in select list (Query 5)":
            "SELECT XMLQuery('$o//lineitem[@price > 190]' "
            'passing orddoc as "o") FROM orders',
        "pitfall: boolean XMLEXISTS (Query 9)":
            "SELECT ordid FROM orders WHERE XMLExists("
            "'$o//lineitem/@price > 190' passing orddoc as \"o\")",
        "fix: XMLEXISTS with node filter (Query 8)":
            "SELECT ordid FROM orders WHERE XMLExists("
            "'$o//lineitem[@price > 190]' passing orddoc as \"o\")",
        "fix: XMLTABLE row-producer (Query 11)":
            "SELECT o.ordid, t.li FROM orders o, XMLTable("
            "'$d//lineitem[@price > 190]' passing o.orddoc as \"d\" "
            "COLUMNS li XML BY REF PATH '.') AS t",
    })

    show(db, "§3.4 let vs for", {
        "pitfall: let binding (Query 18)":
            "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
            "let $i := $d//lineitem[@price > 190] "
            "return <result>{$i}</result>",
        "fix: for binding (Query 17)":
            "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
            "for $i in $d//lineitem[@price > 190] "
            "return <result>{$i}</result>",
        "fix: let + where (Query 21)":
            "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
            "let $p := $o/lineitem/@price where $p > 190 "
            "return <result>{$o/lineitem}</result>",
    })

    show(db, "§3.4 constructors in return clauses", {
        "pitfall: predicate inside constructor (Query 19)":
            "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
            "return <result>{$o/lineitem[@price > 190]}</result>",
        "fix: bare bind-out (Query 22)":
            "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
            "return $o/lineitem[@price > 190]",
    })

    show(db, "§3.10 between predicates", {
        "ok: attribute between (single scan)":
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//lineitem[@price > 150 and @price < 190]",
        "watch: general comparisons on elements (two scans)":
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//lineitem[price > 150 and price < 190]",
    })

    print("\ndone — each 'fix' line shows indexes=['li_price'] while "
          "its pitfall twin shows indexes=[].")


if __name__ == "__main__":
    main()
