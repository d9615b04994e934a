"""Integration tests: the §2.1 schema-evolution scenario.

U.S. postal codes are numeric; when the company ships to Canada the
schema changes to strings.  Both document populations live in one XML
column under different per-document schemas, and the *tolerant* index
behaviour is what keeps inserts working.
"""

import pytest

from repro import Database
from repro.workload import intl_customer_schema, us_customer_schema


@pytest.fixture()
def evolving_db() -> Database:
    database = Database()
    database.create_table("customer", [("cid", "INTEGER"),
                                       ("cdoc", "XML")])
    database.register_schema(us_customer_schema())
    database.register_schema(intl_customer_schema())
    database.execute(
        "CREATE INDEX pc_num ON customer(cdoc) "
        "USING XMLPATTERN '//postalcode' AS DOUBLE")
    database.execute(
        "CREATE INDEX pc_str ON customer(cdoc) "
        "USING XMLPATTERN '//postalcode' AS VARCHAR")
    return database


def _customer(cid: int, postal: str) -> str:
    return (f"<customer><id>{cid}</id><name>c{cid}</name>"
            f"<nation>{1 if postal.isdigit() else 2}</nation>"
            f"<address><postalcode>{postal}</postalcode></address>"
            f"</customer>")


class TestTolerantIndexes:
    def test_canadian_docs_insert_despite_numeric_index(self, evolving_db):
        evolving_db.insert("customer",
                           {"cid": 1, "cdoc": _customer(1, "95141")},
                           schema="customer-v1")
        # A non-numeric postal code must NOT block insertion even
        # though pc_num cannot index it ("tolerant" behaviour).
        evolving_db.insert("customer",
                           {"cid": 2, "cdoc": _customer(2, "K1A 0B1")},
                           schema="customer-v2")
        assert len(evolving_db.xml_indexes["pc_num"]) == 1
        assert len(evolving_db.xml_indexes["pc_str"]) == 2

    def test_numeric_query_uses_numeric_index(self, evolving_db):
        for cid, postal in [(1, "95141"), (2, "K1A 0B1"), (3, "10001")]:
            version = "customer-v1" if postal.isdigit() else "customer-v2"
            evolving_db.insert(
                "customer", {"cid": cid, "cdoc": _customer(cid, postal)},
                schema=version)
        # Over mixed typed data a bare `postalcode < 20000` raises
        # XPTY0004 against the string-typed Canadian codes; a robust
        # evolving-schema query guards with `castable` and casts.
        query = ("for $c in db2-fn:xmlcolumn('CUSTOMER.CDOC')"
                 "/customer[address/postalcode"
                 "[. castable as xs:double]/xs:double(.) < 20000] "
                 "return $c")
        result = evolving_db.xquery(query)
        assert len(result) == 1
        assert "pc_num" in result.stats.indexes_used
        baseline = evolving_db.xquery(query, use_indexes=False)
        assert result.serialize() == baseline.serialize()

    def test_bare_numeric_comparison_errors_on_typed_strings(
            self, evolving_db):
        from repro.errors import XQueryTypeError
        evolving_db.insert("customer",
                           {"cid": 2, "cdoc": _customer(2, "K1A 0B1")},
                           schema="customer-v2")
        with pytest.raises(XQueryTypeError):
            evolving_db.xquery(
                "db2-fn:xmlcolumn('CUSTOMER.CDOC')"
                "/customer[address/postalcode < 20000]",
                use_indexes=False)

    def test_string_query_uses_string_index(self, evolving_db):
        for cid, postal in [(1, "95141"), (2, "K1A 0B1")]:
            version = "customer-v1" if postal.isdigit() else "customer-v2"
            evolving_db.insert(
                "customer", {"cid": cid, "cdoc": _customer(cid, postal)},
                schema=version)
        query = ("for $c in db2-fn:xmlcolumn('CUSTOMER.CDOC')"
                 "/customer[address/postalcode/xs:string(.) = "
                 "\"K1A 0B1\"] return $c")
        result = evolving_db.xquery(query)
        assert len(result) == 1
        assert "pc_str" in result.stats.indexes_used

    def test_typed_values_differ_across_versions(self, evolving_db):
        evolving_db.insert("customer",
                           {"cid": 1, "cdoc": _customer(1, "95141")},
                           schema="customer-v1")
        evolving_db.insert("customer",
                           {"cid": 2, "cdoc": _customer(2, "10001")},
                           schema="customer-v2")
        docs = evolving_db.documents("customer", "cdoc")
        first = docs[0].document.root_element
        second = docs[1].document.root_element
        postal_v1 = first.children[-1].children[0]
        postal_v2 = second.children[-1].children[0]
        assert postal_v1.typed_value()[0].type_name == "xs:double"
        assert postal_v2.typed_value()[0].type_name == "xs:string"

    def test_unvalidated_documents_coexist(self, evolving_db):
        evolving_db.insert("customer",
                           {"cid": 1, "cdoc": _customer(1, "95141")})
        docs = evolving_db.documents("customer", "cdoc")
        assert docs[0].schema is None
        node = docs[0].document.root_element.children[-1].children[0]
        assert node.typed_value()[0].type_name == "xdt:untypedAtomic"
