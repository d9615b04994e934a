"""Integration tests: every numbered query of the paper (1–30).

Each test runs the paper's query text (modulo whitespace) against the
paper's 3-table schema, and asserts three things where applicable:

1. **semantics** — the result the paper describes (cardinalities, empty
   sequences, runtime errors);
2. **eligibility** — whether the index the paper names is used;
3. **Definition 1** — index-assisted and full-scan executions agree.

Fixture documents (see conftest): doc 3 and doc 7 are the only orders
with a lineitem price > 100 (150 and 120 respectively); doc 5 has the
§3.10 multi-price 250/50 hazard; doc 4 has the "20 USD" string price;
doc 6 has the §3.8 mixed-content price.
"""

import pytest

from repro.errors import ReproError, SQLCastError, XQueryDynamicError
from repro.obs.metrics import METRICS, enabled_metrics
from tests.conftest import assert_same_results

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


class TestSection22IndexEligibility:
    def test_query1_uses_li_price(self, indexed_db):
        query = (f"for $i in {XMLCOL}"
                 "//order[lineitem/@price>100] return $i")
        result = indexed_db.xquery(query)
        assert len(result) == 1          # only doc 3 (attr price 150)
        assert result.stats.indexes_used == ["li_price"]
        assert result.stats.docs_scanned == 1  # prefiltered
        assert_same_results(indexed_db, query)

    def test_query1_index_applies_full_path_predicate(self, indexed_db):
        # The 99.50 doc is filtered by the index scan itself.
        query = (f"for $i in {XMLCOL}"
                 "//order[lineitem/@price>100] return $i")
        result = indexed_db.xquery(query)
        assert result.stats.index_entries_scanned <= 2

    def test_query2_wildcard_cannot_use_index(self, indexed_db):
        query = (f"for $i in {XMLCOL}"
                 "//order[lineitem/@*>100] return $i")
        result = indexed_db.xquery(query)
        assert result.stats.indexes_used == []
        assert result.stats.docs_scanned == 7  # full scan
        # quantity=2 on doc 3 doesn't qualify; price 150 does.
        assert len(result) == 1
        assert_same_results(indexed_db, query)


class TestSection31Types:
    def test_query3_string_predicate_skips_double_index(self, indexed_db):
        query = (f"for $i in {XMLCOL}"
                 '//order[lineitem/@price > "100" ] return $i')
        result = indexed_db.xquery(query)
        assert result.stats.indexes_used == []
        # String comparison: "99.50" > "100" true, "150" > "100" true,
        # "20 USD" > "100" true, "90" > "100" true → docs 2, 3, 4.
        assert len(result) == 3
        assert_same_results(indexed_db, query)

    def test_query3_matches_varchar_index(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX li_price_str ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/@price' AS VARCHAR")
        query = (f"for $i in {XMLCOL}"
                 '//order[lineitem/@price > "100" ] return $i')
        result = indexed_db.xquery(query)
        assert result.stats.indexes_used == ["li_price_str"]
        assert len(result) == 3
        assert_same_results(indexed_db, query)

    def test_query4_casted_join_uses_both_indexes(self, indexed_db):
        query = (
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
            'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
            "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
            "return $i")
        result = indexed_db.xquery(query)
        # 5 orders have custid (1001, 1002, 1001, 1002... docs 3,4,5,6,7)
        assert len(result) == 5
        assert_same_results(indexed_db, query)
        from repro.core import analyze_eligibility
        report = analyze_eligibility(indexed_db, query)
        assert report.is_index_eligible("o_custid")
        assert report.is_index_eligible("c_custid")

    def test_query4_join_without_casts_no_index(self, indexed_db):
        query = (
            'for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order '
            'for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer '
            "where $i/custid = $j/id return $i")
        from repro.core import analyze_eligibility
        report = analyze_eligibility(indexed_db, query)
        assert report.eligible_indexes == []


class TestSection32SQLXMLFunctions:
    def test_query5_select_list_returns_all_rows(self, indexed_db):
        result = indexed_db.sql(
            "SELECT XMLQuery('$order//lineitem[@price > 100]' "
            'passing orddoc as "order") FROM orders')
        assert len(result) == 7           # one row per order
        rendered = [row[0] for row in result.serialize_rows()]
        assert rendered.count("") == 6    # six orders yield empty
        assert result.stats.indexes_used == []

    def test_query6_single_row_with_index(self, indexed_db):
        result = indexed_db.sql(
            "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
            "//lineitem[@price > 100] '))")
        assert len(result) == 1
        assert result.stats.indexes_used == ["li_price"]
        rendered = result.serialize_rows()[0][0]
        assert 'price="150"' in rendered

    def test_query7_standalone_row_per_lineitem(self, indexed_db):
        result = indexed_db.xquery(
            f"{XMLCOL}// lineitem[@price > 100]".replace("// ", "//"))
        assert len(result) == 1           # one qualifying attr lineitem
        assert result.stats.indexes_used == ["li_price"]

    def test_query8_xmlexists_filters(self, indexed_db):
        result = indexed_db.sql(
            "SELECT ordid, orddoc FROM orders WHERE "
            "XMLExists('$order//lineitem[@price > 100]' "
            'passing orddoc as "order")')
        assert [row[0] for row in result.rows] == [3]
        assert result.stats.indexes_used == ["li_price"]
        assert result.columns == ["ordid", "orddoc"]

    def test_query9_boolean_body_returns_everything(self, indexed_db):
        result = indexed_db.sql(
            "SELECT ordid, orddoc FROM orders WHERE "
            "XMLExists('$order//lineitem/@price > 100' "
            'passing orddoc as "order")')
        assert len(result) == 7           # the pitfall: all rows!
        assert result.stats.indexes_used == []

    def test_query10_combined_query_exists(self, indexed_db):
        result = indexed_db.sql(
            "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' "
            'passing orddoc as "order") FROM orders WHERE '
            "XMLExists('$order//lineitem[@price > 100]' "
            'passing orddoc as "order")')
        assert len(result) == 1
        assert result.rows[0][0] == 3
        assert result.stats.indexes_used == ["li_price"]

    def test_query11_xmltable_row_per_lineitem(self, indexed_db):
        result = indexed_db.sql(
            "SELECT o.ordid, t.lineitem FROM orders o, "
            "XMLTable('$order//lineitem[@price > 100]' "
            'passing o.orddoc as "order" '
            "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)")
        assert len(result) == 1
        assert result.rows[0][0] == 3
        assert result.stats.indexes_used == ["li_price"]

    def test_query11_by_ref_preserves_identity(self, indexed_db):
        result = indexed_db.sql(
            "SELECT t.lineitem FROM orders o, "
            "XMLTable('$order//lineitem[@price > 100]' "
            'passing o.orddoc as "order" '
            "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)")
        node = result.rows[0][0].items[0]
        assert node.parent is not None    # still linked to the stored doc

    def test_query12_column_predicate_yields_nulls(self, indexed_db):
        result = indexed_db.sql(
            "SELECT o.ordid, t.lineitem, t.price FROM orders o, "
            "XMLTable('$order//lineitem' passing o.orddoc as \"order\" "
            "COLUMNS \"lineitem\" XML BY REF PATH '.', "
            "\"price\" DECIMAL(6,3) PATH '@price[. > 100]') "
            "as t(lineitem, price)")
        # one row per lineitem regardless of price (8 lineitems total)
        assert len(result) == 8
        prices = [row[2] for row in result.rows]
        assert prices.count(None) == 7    # only the 150 qualifies
        assert result.stats.indexes_used == []


class TestSection33Joins:
    def test_query13_xquery_join_uses_xml_index(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX li_prod_id ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/product/id' AS VARCHAR")
        result = indexed_db.sql(
            "SELECT p.name, XMLQuery('$order//lineitem' "
            'passing orddoc as "order") '
            "FROM products p, orders o "
            "WHERE XMLExists('$order//lineitem/product[id eq $pid]' "
            'passing o.orddoc as "order", p.id as "pid")')
        # id 17 appears in docs 3 and 7; 18, 19, 20, 21 once each.
        assert len(result) == 6
        assert result.stats.indexes_used == ["li_prod_id"]

    def test_query14_sql_join_uses_relational_index(self, indexed_db):
        indexed_db.create_relational_index("prod_id_rel", "products", "id")
        # Restrict to single-lineitem orders to avoid the XMLCAST error.
        result = indexed_db.sql(
            "SELECT p.name FROM products p, orders o "
            "WHERE ordid = 4 AND p.id = XMLCast(XMLQuery("
            "'$order//lineitem/product/id' passing o.orddoc as \"order\") "
            "as VARCHAR(13))")
        assert len(result) == 1
        assert "prod_id_rel" in result.stats.indexes_used

    def test_query14_multi_id_raises_type_error(self, indexed_db):
        with pytest.raises(SQLCastError):
            indexed_db.sql(
                "SELECT p.name FROM products p, orders o "
                "WHERE ordid = 3 AND p.id = XMLCast(XMLQuery("
                "'$order//lineitem/product/id' "
                "passing o.orddoc as \"order\") as VARCHAR(13))")

    def test_query14_length_overflow_raises(self, indexed_db):
        indexed_db.insert("orders", {
            "ordid": 99,
            "orddoc": "<order><lineitem><product>"
                      "<id>longer-than-thirteen</id>"
                      "</product></lineitem></order>"})
        with pytest.raises(SQLCastError):
            indexed_db.sql(
                "SELECT p.name FROM products p, orders o "
                "WHERE ordid = 99 AND p.id = XMLCast(XMLQuery("
                "'$order//lineitem/product/id' "
                "passing o.orddoc as \"order\") as VARCHAR(13))")

    def test_query13_vs_14_comparison_semantics(self, indexed_db):
        # Trailing blanks: significant in XQuery, ignored in SQL.
        indexed_db.insert("orders", {
            "ordid": 90,
            "orddoc": "<order><lineitem><product><id>17 </id>"
                      "</product></lineitem></order>"})
        xquery_join = indexed_db.sql(
            "SELECT p.name FROM products p, orders o WHERE ordid = 90 "
            "AND XMLExists('$order//lineitem/product[id eq $pid]' "
            'passing o.orddoc as "order", p.id as "pid")')
        assert len(xquery_join) == 0      # '17 ' ne '17' in XQuery
        sql_join = indexed_db.sql(
            "SELECT p.name FROM products p, orders o WHERE ordid = 90 "
            "AND p.id = XMLCast(XMLQuery('$order//lineitem/product/id' "
            "passing o.orddoc as \"order\") as VARCHAR(13))")
        assert len(sql_join) == 1         # '17 ' = '17' in SQL

    def test_query15_sql_comparison_no_index(self, indexed_db):
        result = indexed_db.sql(
            "SELECT c.cid, XMLQuery('$order//lineitem' "
            'passing o.orddoc as "order") '
            "FROM orders o, customer c, "
            "WHERE XMLCast(XMLQuery('$order/order/custid' "
            'passing o.orddoc as "order") as DOUBLE) = '
            "XMLCast(XMLQuery('$cust/customer/id' "
            'passing c.cdoc as "cust") as DOUBLE)')
        assert len(result) == 5
        assert result.stats.indexes_used == []

    def test_query16_xmlexists_join_uses_o_custid(self, indexed_db):
        result = indexed_db.sql(
            "SELECT c.cid, XMLQuery('$order//lineitem' "
            'passing o.orddoc as "order") '
            "FROM customer c, orders o "
            "WHERE XMLExists('$order/order[custid/xs:double(.) = "
            "$cust/customer/id/xs:double(.)]' "
            'passing o.orddoc as "order", c.cdoc as "cust")')
        assert len(result) == 5
        assert result.stats.indexes_used == ["o_custid"]

    def test_query15_16_same_answers(self, indexed_db):
        q15 = indexed_db.sql(
            "SELECT c.cid FROM orders o, customer c, "
            "WHERE XMLCast(XMLQuery('$order/order/custid' "
            'passing o.orddoc as "order") as DOUBLE) = '
            "XMLCast(XMLQuery('$cust/customer/id' "
            'passing c.cdoc as "cust") as DOUBLE) ORDER BY c.cid')
        q16 = indexed_db.sql(
            "SELECT c.cid FROM customer c, orders o "
            "WHERE XMLExists('$order/order[custid/xs:double(.) = "
            "$cust/customer/id/xs:double(.)]' "
            'passing o.orddoc as "order", c.cdoc as "cust") '
            "ORDER BY c.cid")
        assert sorted(q15.rows) == sorted(q16.rows)


class TestSection34LetClauses:
    def test_query17_for_uses_index(self, indexed_db):
        query = (f"for $doc in {XMLCOL} "
                 "for $item in $doc//lineitem[@price > 100] "
                 "return <result>{$item}</result>")
        result = indexed_db.xquery(query)
        assert len(result) == 1           # one result per lineitem
        assert result.stats.indexes_used == ["li_price"]
        assert_same_results(indexed_db, query)

    def test_query18_let_no_index_and_more_rows(self, indexed_db):
        query = (f"for $doc in {XMLCOL} "
                 "let $item:= $doc//lineitem[@price > 100] "
                 "return <result>{$item}</result>")
        result = indexed_db.xquery(query)
        assert len(result) == 7           # one result per document!
        assert result.stats.indexes_used == []
        empties = [text for text in result.serialize()
                   if text == "<result/>"]
        assert len(empties) == 6
        assert_same_results(indexed_db, query)

    def test_query19_constructor_outer_join(self, indexed_db):
        query = (f"for $ord in {XMLCOL}/order "
                 "return <result>{$ord/lineitem[@price > 100]}</result>")
        result = indexed_db.xquery(query)
        assert len(result) == 7
        assert result.stats.indexes_used == []
        assert_same_results(indexed_db, query)

    def test_query20_21_equivalent_and_indexed(self, indexed_db):
        q20 = (f"for $ord in {XMLCOL}/order "
               "where $ord/lineitem/@price > 100 "
               "return <result>{$ord/lineitem}</result>")
        q21 = (f"for $ord in {XMLCOL}/order "
               "let $price := $ord/lineitem/@price "
               "where $price > 100 "
               "return <result>{$ord/lineitem}</result>")
        r20 = indexed_db.xquery(q20)
        r21 = indexed_db.xquery(q21)
        assert r20.serialize() == r21.serialize()
        assert len(r20) == 1
        assert r20.stats.indexes_used == ["li_price"]
        assert r21.stats.indexes_used == ["li_price"]
        assert_same_results(indexed_db, q20)
        assert_same_results(indexed_db, q21)

    def test_query22_bindout_uses_index(self, indexed_db):
        query = (f"for $ord in {XMLCOL}/order "
                 "return $ord/lineitem[@price > 100]")
        result = indexed_db.xquery(query)
        assert len(result) == 1           # empties vanish at bind-out
        assert result.stats.indexes_used == ["li_price"]
        assert_same_results(indexed_db, query)


class TestSection35DocumentNodes:
    def test_query23_document_navigation(self, indexed_db):
        result = indexed_db.xquery(f"{XMLCOL}/order/lineitem")
        assert len(result) == 8           # all lineitems

    def test_query24_renamed_constructor_returns_empty(self, indexed_db):
        query = (f"for $ord in (for $o in {XMLCOL}/order "
                 "return <my_order>{$o/*}</my_order>) "
                 "return $ord/my_order")
        result = indexed_db.xquery(query)
        assert len(result) == 0           # navigates below my_order

    def test_query24_children_reachable(self, indexed_db):
        query = (f"for $ord in (for $o in {XMLCOL}/order "
                 "return <my_order>{$o/*}</my_order>) "
                 "return $ord/lineitem")
        result = indexed_db.xquery(query)
        assert len(result) == 8

    def test_query25_absolute_path_type_error(self, indexed_db):
        query = ("let $order := <neworder>{"
                 f"{XMLCOL}/order[custid > 1001]"
                 "}</neworder> return $order[//customer/name]")
        with pytest.raises(XQueryDynamicError) as error:
            indexed_db.xquery(query)
        assert "XPDY0050" in str(error.value)


class TestSection36Construction:
    VIEW = ("let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "/order/lineitem return <item>{ $i/@quantity, "
            "<pid>{ $i/product/id/data(.) }</pid> }</item> ")

    def test_query26_view_filter_runs(self, indexed_db):
        query = (self.VIEW +
                 "for $j in $view where $j/pid = '17' return $j")
        result = indexed_db.xquery(query)
        assert len(result) == 2           # docs 3 and 7 order id 17

    def test_query26_untyped_pid_comparable_to_string(self, indexed_db):
        # After construction the pid value is untypedAtomic: the string
        # comparison succeeds even though ids could be numeric.
        query = (self.VIEW +
                 "for $j in $view where $j/pid = '17' "
                 "return $j/pid/data(.)")
        values = indexed_db.xquery(query).items
        assert all(value.type_name == "xdt:untypedAtomic"
                   for value in values)

    def test_query26_multiple_ids_concatenate(self, indexed_db):
        indexed_db.insert("orders", {"ordid": 50, "orddoc":
            "<order><lineitem><product><id>p1</id><id>p2</id></product>"
            "</lineitem></order>"})
        query = (self.VIEW +
                 "for $j in $view where $j/pid = 'p1 p2' return $j")
        assert len(indexed_db.xquery(query)) == 1
        # The flattened form (Query 27) finds nothing for 'p1 p2'.
        flat = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                "/order/lineitem "
                "where $i/product/id/data(.) = 'p1 p2' return $i")
        assert len(indexed_db.xquery(flat)) == 0
        # And conversely for the individual id.
        query_p2 = (self.VIEW +
                    "for $j in $view where $j/pid = 'p2' return $j")
        assert len(indexed_db.xquery(query_p2)) == 0
        flat_p2 = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                   "/order/lineitem "
                   "where $i/product/id/data(.) = 'p2' return $i")
        assert len(indexed_db.xquery(flat_p2)) == 1

    def test_query26_duplicate_attribute_error(self, indexed_db):
        indexed_db.insert("orders", {"ordid": 51, "orddoc":
            "<order><lineitem><product price='1'/><product price='2'/>"
            "</lineitem></order>"})
        query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order/lineitem[count(product/@price) > 1] "
                 "return <item>{$i/product/@price}</item>")
        with pytest.raises(XQueryDynamicError) as error:
            indexed_db.xquery(query)
        assert "XQDY0025" in str(error.value)

    def test_query26_except_preserves_view_nodes(self, indexed_db):
        # §3.6 item 5: $view/@quantity except base/@quantity is NOT
        # empty because the view copies have fresh identities.
        query = (self.VIEW +
                 "return count($view/@quantity except "
                 "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order/lineitem/@quantity)")
        result = indexed_db.xquery(query)
        assert result.items[0].value == 1  # the view's copy survives

    def test_query27_pushdown_form_uses_index(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX li_pid ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/product/id' AS VARCHAR")
        query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order/lineitem "
                 "where $i/product/id = '17' "
                 "return $i/@price")
        result = indexed_db.xquery(query)
        assert result.stats.indexes_used == ["li_pid"]
        assert_same_results(indexed_db, query)


class TestSection37Namespaces:
    ORDER_NS = "http://ournamespaces.com/order"
    CUSTOMER_NS = "http://ournamespaces.com/customer"

    @pytest.fixture()
    def ns_db(self, db):
        db.create_table("orders", [("orddoc", "XML")])
        db.create_table("customer", [("cdoc", "XML")])
        db.insert("orders", {"orddoc":
            f'<order xmlns="{self.ORDER_NS}"><custid>1001</custid>'
            '<lineitem price="1500"/></order>'})
        db.insert("orders", {"orddoc":
            f'<order xmlns="{self.ORDER_NS}"><custid>1002</custid>'
            '<lineitem price="10"/></order>'})
        db.insert("customer", {"cdoc":
            f'<customer xmlns="{self.CUSTOMER_NS}"><id>1001</id>'
            "<nation>1</nation></customer>"})
        db.insert("customer", {"cdoc":
            f'<customer xmlns="{self.CUSTOMER_NS}"><id>1002</id>'
            "<nation>2</nation></customer>"})
        return db

    # The paper's Query 28, verbatim.  Note a subtlety in the paper's
    # own text: in `where $ord/custid = $cust/id`, the unprefixed `id`
    # resolves in the *order* default namespace, so the join arm is
    # empty under standard XQuery namespace resolution.  We test the
    # verbatim query for its eligibility behaviour, and a join-corrected
    # variant (with c:id) for end-to-end answers.
    QUERY28 = (
        'declare default element namespace '
        '"http://ournamespaces.com/order"; '
        'declare namespace c="http://ournamespaces.com/customer"; '
        'for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
        "/order[lineitem/@price > 1000] "
        'for $cust in db2-fn:xmlcolumn("CUSTOMER.CDOC")'
        "/c:customer[c:nation = 1] "
        "where $ord/custid = $cust/id return $ord")

    QUERY28_JOINABLE = QUERY28.replace("$cust/id", "$cust/c:id/data(.)")

    def test_query28_verbatim_join_arm_is_empty(self, ns_db):
        result = ns_db.xquery(self.QUERY28)
        assert len(result) == 0

    def test_query28_corrected_answers(self, ns_db):
        result = ns_db.xquery(self.QUERY28_JOINABLE)
        assert len(result) == 1

    def test_ns_less_indexes_ineligible(self, ns_db):
        ns_db.execute("CREATE INDEX li_price ON orders(orddoc) "
                      "USING XMLPATTERN '//lineitem/@price' AS DOUBLE")
        ns_db.execute("CREATE INDEX c_nation ON customer(cdoc) "
                      "USING XMLPATTERN '//nation' AS DOUBLE")
        # Both definitions restrict element steps to the empty
        # namespace: they store nothing from this data and the analyzer
        # must not use them.
        assert len(ns_db.xml_indexes["li_price"]) == 0
        assert len(ns_db.xml_indexes["c_nation"]) == 0
        result = ns_db.xquery(self.QUERY28_JOINABLE)
        assert "c_nation" not in result.stats.indexes_used
        assert "li_price" not in result.stats.indexes_used
        assert len(result) == 1

    @pytest.mark.parametrize("ddl,name", [
        ("CREATE INDEX c_nation_ns1 ON customer(cdoc) USING XMLPATTERN "
         "'declare default element namespace "
         "\"http://ournamespaces.com/customer\"; //nation' AS double",
         "c_nation_ns1"),
        ("CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN "
         "'//*:nation' AS double", "c_nation_ns2"),
    ])
    def test_namespace_aware_nation_indexes_eligible(self, ns_db, ddl,
                                                     name):
        ns_db.execute(ddl)
        result = ns_db.xquery(self.QUERY28_JOINABLE)
        assert name in result.stats.indexes_used
        assert len(result) == 1

    def test_li_price_ns_attribute_wildcard_eligible(self, ns_db):
        ns_db.execute("CREATE INDEX li_price_ns ON orders(orddoc) "
                      "USING XMLPATTERN '//@price' AS DOUBLE")
        result = ns_db.xquery(self.QUERY28_JOINABLE)
        assert "li_price_ns" in result.stats.indexes_used
        assert len(result) == 1

    def test_paper_note_corrected_index_ddl(self, ns_db):
        # The paper's c_nation_ns1 uses the *order* namespace in its
        # declaration; matching the customer data requires the customer
        # namespace (we follow the paper's evident intent).
        ns_db.execute(
            "CREATE INDEX c_nation_paper ON customer(cdoc) "
            "USING XMLPATTERN 'declare default element namespace "
            "\"http://ournamespaces.com/order\"; //nation' AS double")
        result = ns_db.xquery(self.QUERY28)
        assert "c_nation_paper" not in result.stats.indexes_used


class TestSection38TextNodes:
    def test_query29_text_index_misalignment(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX price_text ON orders(orddoc) "
            "USING XMLPATTERN '//price' AS VARCHAR")
        query = ('for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
                 '/order[lineitem/price/text() = "99.50"] return $ord')
        result = indexed_db.xquery(query)
        # Doc 6 has text() "99.50" inside mixed content: it matches the
        # query but its element indexes as "99.50USD".
        assert len(result) == 1
        assert "price_text" not in result.stats.indexes_used
        assert_same_results(indexed_db, query)

    def test_aligned_text_index_eligible(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX price_text2 ON orders(orddoc) "
            "USING XMLPATTERN '//price/text()' AS VARCHAR")
        query = ('for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")'
                 '/order[lineitem/price/text() = "99.50"] return $ord')
        result = indexed_db.xquery(query)
        assert "price_text2" in result.stats.indexes_used
        assert len(result) == 1
        assert_same_results(indexed_db, query)


class TestSection39Attributes:
    def test_star_index_contains_no_attributes(self, db):
        db.create_table("t", [("d", "XML")])
        db.insert("t", {"d": "<a x='1'><b y='2'>3</b></a>"})
        star = db.create_xml_index("star", "t", "d", "//*", "VARCHAR")
        node = db.create_xml_index("nodes", "t", "d", "//node()",
                                   "VARCHAR")
        attrs = db.create_xml_index("attrs", "t", "d", "//@*", "VARCHAR")
        full = db.create_xml_index(
            "full_notation", "t", "d",
            "/descendant-or-self::node()/attribute::*", "VARCHAR")
        star_kinds = {entry.path.kind for _key, entry in star.tree.items()}
        node_kinds = {entry.path.kind for _key, entry in node.tree.items()}
        assert "attribute" not in star_kinds
        assert "attribute" not in node_kinds
        assert len(attrs) == 2
        assert len(full) == 2


class TestSection310Between:
    def test_query30_single_range_scan(self, indexed_db):
        query = (f"for $i in {XMLCOL}"
                 "//order[lineitem[@price>100 and @price<200]] return $i")
        result = indexed_db.xquery(query)
        assert len(result) == 1           # doc 3 (150); 120 is element
        assert result.stats.index_scans == 1   # collapsed to one scan
        assert result.stats.indexes_used == ["li_price"]
        assert_same_results(indexed_db, query)

    def test_existential_pair_two_scans(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX e_price ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/price' AS DOUBLE")
        query = (f"{XMLCOL}//lineitem[price > 100 and price < 200]")
        result = indexed_db.xquery(query)
        # Doc 5 (250/50) satisfies existentially; doc 7 (120) directly.
        assert len(result) == 2
        assert result.stats.index_scans == 2
        assert_same_results(indexed_db, query)

    def test_multi_price_semantics(self, indexed_db):
        # The 250/50 order satisfies the existential pair even though
        # no single price is between 100 and 200.
        existential = indexed_db.xquery(
            f"{XMLCOL}//lineitem[price > 100 and price < 200]",
            use_indexes=False)
        self_axis = indexed_db.xquery(
            f"{XMLCOL}//lineitem[price/data()[. > 100 and . < 200]]",
            use_indexes=False)
        assert len(existential) == 2
        assert len(self_axis) == 1        # only the true 120

    def test_self_axis_single_scan(self, indexed_db):
        indexed_db.execute(
            "CREATE INDEX e_price ON orders(orddoc) "
            "USING XMLPATTERN '//lineitem/price' AS DOUBLE")
        query = (f"{XMLCOL}//lineitem[price/data()"
                 "[. > 100 and . < 200]]")
        result = indexed_db.xquery(query)
        assert result.stats.index_scans == 1
        assert len(result) == 1
        assert_same_results(indexed_db, query)

    def test_value_comparison_single_scan(self, indexed_db):
        # The merged scan admits doc 4, whose "20 USD" price makes `gt`
        # raise FORG0001, as the full scan does.
        query = (f"{XMLCOL}//lineitem"
                 "[@price gt 100.0 and @price lt 200.0]")
        for use_indexes in (False, True):
            with enabled_metrics():
                with pytest.raises(ReproError) as raised:
                    indexed_db.xquery(query, use_indexes=use_indexes)
                assert raised.value.code == "FORG0001"
                assert METRICS.counter("index.probes") == int(use_indexes)


class TestOnePrefilterPlanner:
    """The XQuery twins of the SQL route matrix's planner statements
    (``tests/property/test_sql_routes.py``, ``PLANNER_TEMPLATES``), and
    a disjunction over two columns: each answers, or raises, as the full
    scan does."""

    CUSTOMERS = "db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer"

    @pytest.mark.parametrize("query", [
        f"{XMLCOL}/order[custid = 1001 or custid = 1002]",
        f"{XMLCOL}/order[custid = 1003 or lineitem/@price = 150]",
        f"{XMLCOL}/order[(custid = 1001 or custid = 1002) "
        f"and lineitem/@price = 150]",
        f"for $c in {CUSTOMERS}, $o in {XMLCOL}/order where $o/custid = "
        f"$c/id or $o/lineitem/@price = 150 return <r>{{$c/id, $o}}</r>",
        f"{XMLCOL}//lineitem[@price gt 100.0 and @price lt 200.0]",
        f"{XMLCOL}/order[lineitem/@price eq 99.5]",
        f"{XMLCOL}//lineitem[between(@price, 100, 200)]",
        f"for $o in {XMLCOL}/order, $c in {CUSTOMERS} where $o/custid = "
        f"1001 or $c/id = 1003 return <r>{{$o/custid, $c/id}}</r>",
    ])
    def test_answers_as_the_full_scan(self, indexed_db, query):
        def outcome(use_indexes):
            try:
                return indexed_db.xquery(
                    query, use_indexes=use_indexes).serialize()
            except ReproError as error:
                return error.code
        assert outcome(True) == outcome(False)
