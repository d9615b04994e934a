"""Property: mid-mutation index failures never skew observable state.

For a failure injected at *any* index-insert site — each xml index,
then the relational index — during an insert, the database afterwards
is indistinguishable from one that never attempted the insert:
catalog row counts, xml-index and rel-index contents, and per-document
path tables all match, and every one of the paper's 30 queries is
byte-identical to the never-failed oracle.  When the injection point
lies beyond the last site the insert succeeds, and the state must
instead match an oracle that performed the same insert.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.catalog import Database
from repro.storage.table import StoredDocument
from repro.workload.paperqueries import (PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)


class Boom(RuntimeError):
    pass


class Injector:
    """Raises at the ``fail_at``-th index-insert call, counts the rest."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0

    def wrap(self, bound_method):
        def inner(*args, **kwargs):
            site = self.calls
            self.calls += 1
            if site == self.fail_at:
                raise Boom(f"injected failure at index site {site}")
            return bound_method(*args, **kwargs)
        return inner


def build_database() -> Database:
    database = Database()
    load_paper_fixture(database)          # 3 xml indexes via DDL
    database.create_relational_index("idx_ordid", "orders", "ordid")
    return database


def order_xml(prices: list[str], custid: int | None) -> str:
    parts = ["<order>"]
    if custid is not None:
        parts.append(f"<custid>{custid}</custid>")
    for price in prices:
        parts.append(f"<lineitem price=\"{price}\">"
                     f"<product><id>x</id></product></lineitem>")
    parts.append("</order>")
    return "".join(parts)


def observable_state(database: Database) -> dict:
    state = {
        "rows": {name: len(table.rows)
                 for name, table in database.tables.items()},
        "xml_indexes": {name: len(index)
                        for name, index in database.xml_indexes.items()},
        "rel_indexes": {name: len(index)
                        for name, index in database.rel_indexes.items()},
    }
    summaries = []
    for row in database.table("orders").rows:
        stored = row.values["orddoc"]
        assert isinstance(stored, StoredDocument)
        summaries.append(sorted(
            (tuple(str(component) for component in path), count)
            for path, count in stored.columns.path_counts().items()))
    state["summaries"] = sorted(map(tuple, summaries))
    return state


#: The generated order documents: lineitem prices (castable to DOUBLE
#: or not) and an optional customer id.
PRICES = st.lists(
    st.sampled_from(["99.50", "150", "20 USD", "0", "7.25"]), max_size=3)
CUSTIDS = st.one_of(st.none(), st.integers(min_value=1001, max_value=1003))


# An insert into orders touches three index sites in order:
# li_price, o_custid (xml), then idx_ordid (rel).  fail_at == 3 is
# past the last site: the insert succeeds.
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fail_at=st.integers(min_value=0, max_value=3),
       prices=PRICES, custid=CUSTIDS)
def test_injected_failure_leaves_state_consistent(fail_at, prices, custid):
    subject = build_database()
    oracle = build_database()
    extra = {"ordid": 99, "orddoc": order_xml(prices, custid)}

    injector = Injector(fail_at)
    li_price = subject.xml_indexes["li_price"]
    o_custid = subject.xml_indexes["o_custid"]
    idx_ordid = subject.rel_indexes["idx_ordid"]
    patched = [(li_price, "index_document"),
               (o_custid, "index_document"),
               (idx_ordid, "insert_row")]
    originals = [getattr(obj, name) for obj, name in patched]
    for (obj, name), original in zip(patched, originals):
        setattr(obj, name, injector.wrap(original))
    try:
        subject.insert("orders", extra)
        succeeded = True
    except Boom:
        succeeded = False
    finally:
        for (obj, name), original in zip(patched, originals):
            setattr(obj, name, original)

    assert succeeded == (fail_at >= 3)
    if succeeded:
        oracle.insert("orders", extra)

    assert observable_state(subject) == observable_state(oracle)
    for number in PAPER_QUERIES:
        assert (run_paper_query(subject, number)
                == run_paper_query(oracle, number)), (
            f"query {number} diverged after injection at site {fail_at}")
