"""The four workloads: data, statement lists, builders and oracles.

Every workload is a fixed statement list replayed over seed-generated
documents of the paper's customer/orders/products schema.  One pass
over the list is a *sweep*; every sweep of a run is identical work, so
per-sweep counts repeat exactly and the median sweep is a stable
statistic.

Two choices keep different seeds comparable (the driver judges spread
across seeds, not across repeats of one seed):

* the *shape* of the data is fixed — each quarter of the orders has 1,
  2, 3 and 4 lineitems and customers receive orders round-robin — while
  the seed chooses prices, products, dates and which order gets what;
* statement constants are read off the generated data at fixed ranks
  (the 12th-highest price, a customer with the median order count), so
  a template selects the same number of nodes under every seed.

Answers are canonical text (``run_paper_query``'s format) and are
compared byte-for-byte with an oracle computed at set-up on an
index-free in-memory twin with ``use_indexes=False`` — the paper's
Definition 1: an index may never change an answer.
"""

from __future__ import annotations

import gc
import random
import re
import shutil
from dataclasses import dataclass

from repro import Database, DurableDatabase
from repro.workload import WorkloadGenerator
from repro.xmlio.serializer import serialize

#: name -> (orders, customers, products).  ``write_recover`` keeps
#: ``orders`` documents live and rotates blocks of ``orders // 2``.
SIZES = {
    "probe": (2000, 130, 60),
    "scan": (500, 40, 20),
    "join": (100, 20, 10),
    "write_recover": (100, 20, 10),
}
FSYNC_POLICY = "batch"

_TABLES = (("customer", [("cid", "INTEGER"), ("cdoc", "XML")]),
           ("orders", [("ordid", "INTEGER"), ("orddoc", "XML")]),
           ("products", [("id", "VARCHAR(13)"), ("name", "VARCHAR(32)")]))
_INDEXES = (("li_price", "orders", "orddoc", "//lineitem/@price", "DOUBLE"),
            ("o_custid", "orders", "orddoc", "//custid", "DOUBLE"),
            ("c_custid", "customer", "cdoc", "/customer/id", "DOUBLE"),
            ("li_prod_id", "orders", "orddoc", "//lineitem/product/id",
             "VARCHAR"))
_ORDERS = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
_CUSTOMERS = "db2-fn:xmlcolumn('CUSTOMER.CDOC')"
_PASSING = 'passing orddoc as "order"'


@dataclass(frozen=True)
class Statement:
    template: str      # p1..p8, s1..s8, j1..j4, w-read
    kind: str          # "xquery" | "sql"
    text: str


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    orders: list[tuple[int, str]]
    customers: list[tuple[int, str]]
    products: list[tuple[str, str]]

    def user_bytes(self) -> int:
        return (sum(len(text) for _id, text in self.orders)
                + sum(len(text) for _id, text in self.customers))


def generate(seed: int, orders: int, customers: int, products: int,
             first_order_id: int = 1) -> Corpus:
    """Seeded corpus with a seed-independent shape (module docstring)."""
    generator = WorkloadGenerator(seed)
    rng = generator.random
    product_rows = generator.product_rows(products)
    product_ids = [product_id for product_id, _name in product_rows]
    customer_docs = [(cid, generator.customer_document(cid))
                     for cid in range(1, customers + 1)]
    lineitem_counts = [1 + position % 4 for position in range(orders)]
    owners = [1 + position % customers for position in range(orders)]
    rng.shuffle(lineitem_counts)
    rng.shuffle(owners)
    order_docs = []
    for position in range(orders):
        order_id = first_order_id + position
        # The generator draws the lineitem count itself; redraw until it
        # is the one this position was dealt.
        while True:
            text = generator.order_document(order_id, owners[position],
                                            product_ids)
            if text.count("<lineitem ") == lineitem_counts[position]:
                break
        order_docs.append((order_id, text))
    return Corpus(order_docs, customer_docs, product_rows)


def _prices(corpus: Corpus) -> list[float]:
    """The distinct lineitem prices, ascending."""
    return sorted({float(price) for _id, text in corpus.orders
                   for price in re.findall(r'price="([0-9.]+)"', text)})


def _typical(counts: dict, how_many: int, rng: random.Random) -> list:
    """``how_many`` keys whose count is closest to the median count,
    seed-chosen among ties, so a template costs the same per seed."""
    ordered = sorted(counts.values())
    median = ordered[len(ordered) // 2]
    keys = sorted(counts)
    rng.shuffle(keys)
    keys.sort(key=lambda key: abs(counts[key] - median))
    return keys[:how_many]


def _order_counts(corpus: Corpus, pattern: str) -> dict[str, int]:
    """value -> number of orders containing it (regex group 1)."""
    counts: dict[str, int] = {}
    for _id, text in corpus.orders:
        for value in set(re.findall(pattern, text)):
            counts[value] = counts.get(value, 0) + 1
    return counts


def _cut(prices: list[float], position: int) -> str:
    """A constant strictly between ``prices[position - 1]`` and
    ``prices[position]``.

    Prices have two decimals, so the three-decimal midpoint equals no
    stored value.  That is deliberate: on ``@price > 149.87`` against a
    stored ``149.87`` the index path and the scan path disagree at the
    parent commit (float vs Decimal at the boundary), and a workload
    must contain no operation that fails."""
    position = min(max(position, 1), len(prices) - 1)
    return f"{(prices[position - 1] + prices[position]) / 2:.3f}"


def _above(prices: list[float], rank: int) -> str:
    """A constant that ``rank`` distinct prices exceed."""
    return _cut(prices, len(prices) - rank)


def _between(prices: list[float], rng: random.Random, width: int
             ) -> tuple[str, str]:
    """Exclusive bounds around ``width`` consecutive distinct prices."""
    position = rng.randrange(len(prices) // 4, len(prices) // 2)
    return _cut(prices, position), _cut(prices, position + width)


# ---------------------------------------------------------------------------
# Statement lists
# ---------------------------------------------------------------------------

def probe_statements(corpus: Corpus, rng: random.Random,
                     repeats: int = 3) -> list[Statement]:
    """Eight index-eligible templates, ``repeats`` constants each, every
    statement selecting at most ~1 % of the orders."""
    prices = _prices(corpus)
    # Ranks scale with the collection so selectivity, not result size,
    # is what --scale preserves.
    unit = max(1, len(corpus.orders) // 250)
    customers = _typical(_order_counts(corpus, r"<custid>(\d+)</custid>"),
                         repeats, rng)
    products = _typical(_order_counts(corpus, r"<id>(P\d+)</id>"),
                        repeats, rng)
    statements = []
    for repeat in range(repeats):
        bound = _above(prices, unit * (1 + repeat))
        low, high = _between(prices, rng, unit * (1 + repeat))
        exists = (f"XMLExists('$order//lineitem[@price > {bound}]' "
                  f"{_PASSING})")
        statements += [
            Statement("p1", "xquery",
                      f"for $i in {_ORDERS}//order[lineitem/@price > "
                      f"{bound}] return $i"),
            Statement("p2", "xquery",
                      f"for $i in {_ORDERS}//order[lineitem[@price>{low} "
                      f"and @price<{high}]] return $i"),
            Statement("p3", "xquery",
                      f"{_ORDERS}//lineitem[@price > {bound}]"),
            Statement("p4", "xquery",
                      f"{_ORDERS}/order[custid = {customers[repeat]}]"),
            Statement("p5", "xquery",
                      f"for $i in {_ORDERS}/order/lineitem where "
                      f"$i/product/id = '{products[repeat]}' "
                      f"return $i/@price"),
            Statement("p6", "sql",
                      f"SELECT ordid, orddoc FROM orders WHERE {exists}"),
            Statement("p7", "sql",
                      f"SELECT ordid, XMLQuery('$order//lineitem[@price > "
                      f"{bound}]' {_PASSING}) FROM orders WHERE {exists}"),
            Statement("p8", "sql",
                      f"SELECT o.ordid, t.lineitem FROM orders o, "
                      f"XMLTable('$order//lineitem[@price > {bound}]' "
                      f'passing o.orddoc as "order" COLUMNS "lineitem" '
                      f"XML BY REF PATH '.') as t(lineitem)"),
        ]
    return statements


def scan_statements(corpus: Corpus, rng: random.Random) -> list[Statement]:
    """The paper's ineligible forms plus pure navigation/construction:
    every statement evaluates the whole collection."""
    prices = _prices(corpus)
    rank = max(1, len(prices) // 20)
    bound = _above(prices, rank)
    text_bound = f"{rng.randrange(90, 99)}"
    return [
        Statement("s1", "xquery",
                  f"for $i in {_ORDERS}//order[lineitem/@* > {bound}] "
                  f"return $i"),
        Statement("s2", "xquery",
                  f'for $i in {_ORDERS}//order[lineitem/@price > '
                  f'"{text_bound}"] return $i/custid'),
        Statement("s3", "xquery",
                  f"for $doc in {_ORDERS} let $item := "
                  f"$doc//lineitem[@price > {bound}] "
                  f"return <result>{{$item}}</result>"),
        Statement("s4", "xquery",
                  f"for $ord in {_ORDERS}/order return "
                  f"<result>{{$ord/lineitem[@price > {bound}]}}</result>"),
        Statement("s5", "xquery", f"{_ORDERS}/order/lineitem/product/id"),
        Statement("s6", "xquery", f"count({_ORDERS}//lineitem)"),
        Statement("s7", "sql",
                  f"SELECT XMLQuery('$order//lineitem[@price > {bound}]' "
                  f"{_PASSING}) FROM orders"),
        Statement("s8", "sql",
                  f"SELECT o.ordid, t.lineitem, t.price FROM orders o, "
                  f"XMLTable('$order//lineitem' passing o.orddoc as "
                  f'"order" COLUMNS "lineitem" XML BY REF PATH \'.\', '
                  f"\"price\" DECIMAL(6,3) PATH '@price[. > {bound}]') "
                  f"as t(lineitem, price)"),
    ]


def join_statements(_corpus: Corpus, _rng: random.Random
                    ) -> list[Statement]:
    """Q4, Q13, Q15, Q16: the data, not a constant, sets the work."""
    lineitems = "XMLQuery('$order//lineitem' passing o.orddoc as \"order\")"
    return [
        Statement("j1", "xquery",
                  f"for $i in {_ORDERS}/order for $j in "
                  f"{_CUSTOMERS}/customer where $i/custid/xs:double(.) = "
                  f"$j/id/xs:double(.) return $i"),
        Statement("j2", "sql",
                  f"SELECT p.name, {lineitems} FROM products p, orders o "
                  f"WHERE XMLExists('$order//lineitem/product[id eq $pid]' "
                  f'passing o.orddoc as "order", p.id as "pid")'),
        Statement("j3", "sql",
                  f"SELECT c.cid, {lineitems} FROM orders o, customer c "
                  f"WHERE XMLCast(XMLQuery('$order/order/custid' passing "
                  f'o.orddoc as "order") as DOUBLE) = XMLCast(XMLQuery('
                  f"'$cust/customer/id' passing c.cdoc as \"cust\") "
                  f"as DOUBLE)"),
        Statement("j4", "sql",
                  f"SELECT c.cid, {lineitems} FROM customer c, orders o "
                  f"WHERE XMLExists('$order/order[custid/xs:double(.) = "
                  f"$cust/customer/id/xs:double(.)]' passing o.orddoc as "
                  f'"order", c.cdoc as "cust")'),
    ]


def write_read_statements(corpus: Corpus, rng: random.Random
                          ) -> list[Statement]:
    """Four probe forms that return whole orders, so an answer shows
    which order ids are live — a lost or resurrected write changes it."""
    prices = _prices(corpus)
    bound = _above(prices, max(1, len(prices) // 40))
    customer = _typical(_order_counts(corpus, r"<custid>(\d+)</custid>"),
                        1, rng)[0]
    exists = (f"XMLExists('$order//lineitem[@price > {bound}]' "
              f"{_PASSING})")
    return [
        Statement("w-read", "xquery",
                  f"for $i in {_ORDERS}//order[lineitem/@price > {bound}] "
                  f"return $i"),
        Statement("w-read", "xquery",
                  f"{_ORDERS}/order[custid = {customer}]"),
        Statement("w-read", "sql",
                  f"SELECT ordid, orddoc FROM orders WHERE {exists}"),
        Statement("w-read", "sql",
                  f"SELECT ordid, XMLQuery('$order//lineitem[@price > "
                  f"{bound}]' {_PASSING}) FROM orders WHERE {exists}"),
    ]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def answer(database, statement: Statement, use_indexes: bool = True,
           tracer=None) -> tuple[str, object]:
    """Canonical answer text and the execution stats.  ``tracer`` is the
    engine's own per-statement tracer argument (off in every timed
    phase; one observability probe turns it on)."""
    if statement.kind == "sql":
        result = database.sql(statement.text, use_indexes=use_indexes,
                              tracer=tracer)
        lines = ["\t".join(result.columns)]
        for row in result.serialize_rows():
            lines.append("\t".join("NULL" if value is None else str(value)
                                   for value in row))
        return "\n".join(lines), result.stats
    result = database.xquery(statement.text, use_indexes=use_indexes,
                             tracer=tracer)
    return render_items(result.items), result.stats


def render_items(items) -> str:
    """One serialized item per line.  A function of its own so the
    traced run can time the serializer once per statement instead of
    once per item (5400 spans a ``scan`` sweep otherwise)."""
    return "\n".join([serialize(item) for item in items])


def create_schema(database, with_indexes: bool) -> None:
    for name, columns in _TABLES:
        database.create_table(name, columns)
    if with_indexes:
        create_indexes(database)


def create_indexes(database) -> None:
    for index in _INDEXES:
        database.create_xml_index(*index)


def memory_database(corpus: Corpus, tick=None, indexes: bool = True,
                    **options) -> Database:
    """An in-memory database ingested first and indexed afterwards
    (bulk index builds), or left index-free for an oracle."""
    database = Database(**options)
    create_schema(database, with_indexes=False)
    load(database, corpus, tick)
    if indexes:
        create_indexes(database)
    return database


def load(database, corpus: Corpus, tick=None) -> None:
    for cid, text in corpus.customers:
        database.insert("customer", {"cid": cid, "cdoc": text})
    for product_id, name in corpus.products:
        database.insert("products", {"id": product_id, "name": name})
    for ordid, text in corpus.orders:
        database.insert("orders", {"ordid": ordid, "orddoc": text})
        if tick is not None:
            tick()


class ReadWorkload:
    """probe / scan / join: a statement list over an in-memory
    database."""

    def __init__(self, name: str, seed: int, scale: float = 1.0):
        self.name = name
        orders, customers, products = _scaled(name, scale)
        self.corpus = generate(seed, orders, customers, products)
        rng = random.Random(seed * 7919 + 13)
        self.statements = _STATEMENTS[name](self.corpus, rng)
        self.database = None
        self.oracle: list[str] = []
        #: Engine counters of the latest sweep (exact, seed-determined).
        self.counts: dict[str, int] = {}

    @property
    def read_statements(self) -> list[Statement]:
        return self.statements

    def build(self, tick=None):
        return memory_database(self.corpus, tick)

    def build_oracle(self) -> None:
        twin = memory_database(self.corpus, indexes=False)
        self.oracle = [answer(twin, statement, use_indexes=False)[0]
                       for statement in self.statements]

    def adopt(self, database) -> None:
        self.database = database

    def discard(self, database) -> None:
        pass

    def reads_database(self):
        return self.database

    def sweep(self, op) -> None:
        database = self.database
        counts = _zero_counts()
        for statement, expected in zip(self.statements, self.oracle):
            def run(statement=statement, expected=expected):
                text, stats = answer(database, statement)
                _count(counts, text, stats)
                return text == expected
            op(statement.template, run)
        self.counts = counts

    def close(self) -> None:
        self.database = None


class WriteRecoverWorkload:
    """The storage and index layers used for writes.

    Three blocks of orders rotate through a durable database that keeps
    two of them live.  The blocks are the same documents under
    different order ids, so every sweep writes, logs, checkpoints and
    replays byte-for-byte the same amount of work, while the ids in the
    read answers prove which block is live."""

    name = "write_recover"

    def __init__(self, seed: int, scale: float = 1.0, *, scratch):
        live, customers, products = _scaled(self.name, scale)
        self.block_size = max(2, live // 2)
        base = generate(seed, self.block_size, customers, products,
                        first_order_id=1000)
        self.blocks = [[(ordid + shift, text.replace(
            f'id="{ordid}"', f'id="{ordid + shift}"', 1))
            for ordid, text in base.orders]
            for shift in (0, self.block_size, 2 * self.block_size)]
        self.corpus = Corpus(self.blocks[0] + self.blocks[1],
                             base.customers, base.products)
        rng = random.Random(seed * 7919 + 17)
        self.read_statements = write_read_statements(self.corpus, rng)
        self.scratch = scratch
        self._builds = 0
        self.directory = None
        self.database = None
        self.cycle = 0
        #: oracle[phase][statement index]
        self.oracle: list[list[str]] = []
        self.counts: dict[str, int] = {}

    # -- set-up ---------------------------------------------------------

    def build(self, tick=None):
        """A fresh durable directory holding blocks 0 and 1, indexes
        created first so every insert maintains them."""
        self._builds += 1
        directory = self.scratch / f"durable-{self._builds}"
        database = DurableDatabase(directory, fsync_policy=FSYNC_POLICY)
        create_schema(database, with_indexes=True)
        load(database, self.corpus, tick)
        return database

    def build_oracle(self) -> None:
        """Answers after each of the three rotations; the third restores
        the initial live set, so ``oracle[2]`` also answers a fresh
        ``memory_database(self.corpus)``."""
        twin = memory_database(self.corpus, indexes=False)
        self.oracle = []
        for cycle in range(3):
            self._rotate(twin, cycle, lambda _id, fn: fn())
            self.oracle.append(
                [answer(twin, statement, use_indexes=False)[0]
                 for statement in self.read_statements])

    def adopt(self, database) -> None:
        self.database = database
        self.directory = database.directory
        self.cycle = 0

    def discard(self, database) -> None:
        database.close()
        shutil.rmtree(database.directory, ignore_errors=True)

    def reads_database(self):
        """An in-memory database with the initial live set, for the
        traced run's read-side probes (server, pool, buffer pool)."""
        return memory_database(self.corpus)

    # -- the sweep ------------------------------------------------------

    def _rotate(self, database, cycle: int, op) -> None:
        """Insert the next block, then delete the oldest, one row per
        ``delete_rows`` call."""
        for ordid, text in self.blocks[(cycle + 2) % 3]:
            op("w-insert", lambda: database.insert(
                "orders", {"ordid": ordid, "orddoc": text}) is not None)
        for ordid, _text in self.blocks[cycle % 3]:
            op("w-delete", lambda: database.delete_rows(
                "orders", lambda values: values["ordid"] == ordid) == 1)

    def _reads(self, op, expected: list[str], counts: dict) -> None:
        for statement, wanted in zip(self.read_statements, expected):
            def run(statement=statement, wanted=wanted):
                text, stats = answer(self.database, statement)
                _count(counts, text, stats)
                return text == wanted
            op("w-read", run)

    def sweep(self, op) -> None:
        counts = _zero_counts()
        expected = self.oracle[self.cycle % 3]
        op("w-checkpoint",
           lambda: self.database.checkpoint().last_lsn >= 0)
        self._rotate(self.database, self.cycle, op)
        self._reads(op, expected, counts)
        op("w-recover", self._reopen)
        self._reads(op, expected, counts)
        self.cycle += 1
        self.counts = counts

    def _reopen(self) -> bool:
        """close() + reopen, then one full collection inside the timing.

        Every sweep replaces the whole database object graph, and the
        old one is cyclic garbage (parent pointers).  CPython's
        generational trigger reclaims it on roughly every other sweep
        (~30 ms a pass), which makes the sweep distribution bimodal and
        its median a coin toss; collecting here charges every sweep the
        same, as the timed builds do."""
        self.database.close()
        self.database = DurableDatabase(self.directory,
                                        fsync_policy=FSYNC_POLICY)
        gc.collect()
        recovery = self.database.last_recovery
        return (recovery.replayed == 2 * self.block_size
                and recovery.truncated_bytes == 0)

    def close(self) -> None:
        if self.database is not None:
            self.database.close()
            self.database = None


def _scaled(name: str, scale: float) -> tuple[int, int, int]:
    orders, customers, products = SIZES[name]
    return (max(8, round(orders * scale)), max(4, round(customers * scale)),
            max(3, round(products * scale)))


def _zero_counts() -> dict[str, int]:
    return {"docs_scanned": 0, "rows_scanned": 0, "index_scans": 0,
            "index_entries_scanned": 0, "summary_lookups": 0,
            "result_bytes": 0, "result_items": 0}


def _count(counts: dict, text: str, stats) -> None:
    counts["docs_scanned"] += stats.docs_scanned
    counts["rows_scanned"] += stats.rows_scanned
    counts["index_scans"] += stats.index_scans
    counts["index_entries_scanned"] += stats.index_entries_scanned
    counts["summary_lookups"] += stats.summary_lookups
    counts["result_bytes"] += len(text)
    counts["result_items"] += (text.count("\n") + 1) if text else 0


_STATEMENTS = {"probe": probe_statements, "scan": scan_statements,
               "join": join_statements}


def make(name: str, seed: int, scale: float, scratch):
    if name == "write_recover":
        return WriteRecoverWorkload(seed, scale, scratch=scratch)
    return ReadWorkload(name, seed, scale)
