"""Schema-flexible RSS feeds — the paper's §1 "killer app" scenario.

RSS allows elements of any namespace anywhere in a document.  This
example stores extensible feeds without any schema, queries the
extension elements with namespace wildcards, and shows how namespace
handling decides index eligibility (§3.7, Tip 10).

Run:  python examples/rss_feeds.py
"""

from repro import Database
from repro.static import lint_index_pattern
from repro.workload import WorkloadGenerator


def main() -> None:
    db = Database()
    db.execute("CREATE TABLE feeds (fid INTEGER, feed XML)")
    generator = WorkloadGenerator(seed=99)
    for feed_id in range(1, 51):
        db.insert("feeds", {"fid": feed_id,
                            "feed": generator.rss_feed(feed_id, 8)})
    print(f"loaded {len(db.table('feeds'))} feeds\n")

    # Extension elements live in foreign namespaces (dc:, geo:) that the
    # feed schema never anticipated.
    creators = db.xquery(
        'declare namespace dc="http://purl.org/dc/elements/1.1/"; '
        "for $c in db2-fn:xmlcolumn('FEEDS.FEED')//item/dc:creator "
        "return $c/data(.)")
    print(f"dc:creator extensions found: {len(creators)}")

    # A namespace-wildcard index covers extensions from ANY namespace.
    db.execute("CREATE INDEX any_creator ON feeds(feed) "
               "USING XMLPATTERN '//*:creator' AS VARCHAR")
    query = ("db2-fn:xmlcolumn('FEEDS.FEED')"
             "//item[*:creator = 'author3']")
    result = db.xquery(query)
    print(f"items by author3: {len(result)} "
          f"(docs scanned: {result.stats.docs_scanned}, "
          f"indexes: {result.stats.indexes_used})")

    # Tip 10 in action: an index without namespace declarations would
    # never match the dc: elements.
    print("\nindex-pattern lint for a naive '//creator' definition:")
    for finding in lint_index_pattern("//creator"):
        print("  ", finding)

    # Dates in feeds: a DATE index on pubDate.
    db.execute("CREATE INDEX pub ON feeds(feed) "
               "USING XMLPATTERN '//item/pubDate' AS DATE")
    recent = db.xquery(
        "db2-fn:xmlcolumn('FEEDS.FEED')//item"
        "[pubDate/xs:date(.) ge xs:date('2006-09-25')]")
    print(f"\nitems on/after 2006-09-25: {len(recent)} "
          f"(indexes: {recent.stats.indexes_used})")


if __name__ == "__main__":
    main()
