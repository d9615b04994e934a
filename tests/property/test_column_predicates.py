"""Property: value predicates decided on the columns answer as the
generic route does.

A summary lookup whose last step carries one ``[rel op operand]``
predicate over untyped stores decides it on the path partitions
(``ColumnStore.nodes_where``).  The reference is a generic twin the
kernel never takes: ``(//a)[pred]`` filters the lookup's nodes one by
one, in document order — the order the predicate ran in before, so the
first error is the same one too (a twin spelling ``//`` out as
``/descendant-or-self::node()[position() >= 1]/`` visits nested
candidates in another order and may raise another of two errors).
Answers, and errors by class and code, must be equal for
``= != < >= eq ne``; for
literal operands and for variables (``let``-bound and SQL ``PASSING``,
empty, two atoms, typed); for values with blanks, ``-0``, ``NaN``,
``INF``, ``1e3``, empty and non-numeric text; for ``@*``, a namespaced
attribute, a child with several values, a two-step ``rel`` and ``.``;
in memory, after a checkpoint reopen, after a WAL-only reopen and under
a 1-byte buffer pool.  Schema-typed stores keep the generic route, a
deadline interrupts the kernel, and racing readers filling cold value
caches get the generic answers.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.durability import DurableDatabase
from repro.errors import CastError, QueryTimeoutError, ReproError
from repro.obs.metrics import METRICS, enabled_metrics
from repro.schema.schema import Schema
from repro.storage.catalog import Database
from repro.storage.columnar import ColumnStore
from repro.xdm.atomic import parse_double
from repro.xmlio import parse_document
from repro.xquery.guard import QueryGuard, guarded

COLUMN = "db2-fn:xmlcolumn('T.DOC')"
PROLOG = "declare namespace p='urn:p'; "
#: Attribute and element values: numeric, blank-padded, special
#: doubles, empty and uncastable.
VALUES = (" 12 ", "12", "-0", "0", "NaN", "INF", "1e3", "", "20 USD",
          "5.5", "abc")
#: (step the lookup ends on, rel): ``@*`` and ``b`` give candidates
#: several values, ``a/b`` is a two-step rel, ``.`` compares the
#: candidate itself.
FORMS = (("a", "@x"), ("a", "@*"), ("a", "@p:x"), ("a", "b"),
         ("a", "a/b"), ("a", "."), ("b", "."), ("@x", "."),
         ("r", "a/@x"))
OPS = ("=", "!=", "<", ">=", "eq", "ne")
LITERALS = ("12", "-0", "0", "1e3", "5.5", "'12'", "' 12 '", "''",
            "'20 USD'", "'NaN'")
#: ``let $v := …`` operands: none, two atoms, typed, untyped, doubles.
VARIABLES = ("()", "(1, 12)", "xs:date('2006-01-01')", "true()", "'12'",
             "12", "xs:untypedAtomic(' 12 ')", "xs:double('NaN')",
             "xs:double('-0')")


@st.composite
def a_specs(draw, depth=0):
    """(attributes, b values, nested a specs) of one ``a`` element."""
    attributes = draw(st.dictionaries(st.sampled_from(("x", "y", "p:x")),
                                      st.sampled_from(VALUES), max_size=3))
    b_values = draw(st.lists(st.sampled_from(VALUES), max_size=2))
    nested = (draw(st.lists(a_specs(depth=depth + 1), max_size=2))
              if depth < 2 else [])
    return attributes, b_values, nested


DOCUMENTS = st.lists(st.lists(a_specs(), max_size=3), min_size=1,
                     max_size=4)
PREDICATES = st.tuples(st.sampled_from(FORMS), st.sampled_from(OPS),
                       st.one_of(st.sampled_from(LITERALS),
                                 st.sampled_from(VARIABLES).map(
                                     lambda value: ("let", value))),
                       st.booleans())


def xml(a_list) -> str:
    return f"<r xmlns:p='urn:p'>{''.join(map(_a, a_list))}</r>"


def _a(spec) -> str:
    attributes, b_values, nested = spec
    attributes = "".join(f" {name}='{value}'"
                         for name, value in attributes.items())
    bs = "".join(f"<b>{value}</b>" for value in b_values)
    return f"<a{attributes}>{bs}{''.join(map(_a, nested))}</a>"


def queries(predicate, source: str = COLUMN) -> tuple[str, str]:
    """The summary form and its generic twin of one drawn predicate,
    over ``source`` (the column, or ``$d`` for one row's document)."""
    (step, rel), op, operand, mirrored = predicate
    prefix = PROLOG
    if isinstance(operand, tuple):
        prefix += f"let $v := {operand[1]} return "
        operand = "$v"
    test = (f"{operand} {op} {rel}" if mirrored
            else f"{rel} {op} {operand}")
    return (f"{prefix}{source}//{step}[{test}]",
            f"{prefix}({source}//{step})[{test}]")


def outcome(run):
    """The answer of ``run()``, or its error's class and code."""
    try:
        return run()
    except ReproError as error:
        return type(error).__name__, getattr(error, "code", None)


def answer(database, query: str, per_row: bool):
    """:func:`outcome` of ``query`` over the column, or ``per_row``
    once per row of ``t`` as SQL, with ``$d`` the row's document."""
    if not per_row:
        return outcome(lambda: database.xquery(query).serialize())
    escaped = query.replace("'", "''")
    statement = (f"SELECT id, XMLQuery('{escaped}' passing doc as "
                 f"\"d\") FROM t")
    return outcome(lambda: list(database.sql(statement).serialize_rows()))


def assert_routes_agree(database, predicates, per_row: bool = False
                        ) -> int:
    """Every predicate answers (or fails) on the summary route as on
    its generic twin; returns how many lookups the kernel decided."""
    total = 0
    source = "$d" if per_row else COLUMN
    with enabled_metrics():
        for predicate in predicates:
            summary, generic = queries(predicate, source)
            expected = answer(database, generic, per_row)
            assert METRICS.counter("pathsummary.column_predicates") == 0
            assert answer(database, summary, per_row) == expected, summary
            total += METRICS.counter("pathsummary.column_predicates")
            METRICS.reset()
    return total


#: A document every table starts with, so ``//a/@x`` is never
#: statically empty (a pruned branch makes no lookup at all).
ANCHOR = [({"x": "12"}, ["12"], [])]


def insert_all(database, documents) -> None:
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    for number, a_list in enumerate([ANCHOR] + documents):
        database.insert("t", {"id": number, "doc": xml(a_list)})


#: Every op with a literal, ``eq`` errors included, so each example
#: drives the kernel whatever the drawn predicates are.
FIXED = [(("a", "@x"), op, "12", False) for op in OPS] + [
    (("a", "b"), "eq", "12", False), (("a", "@x"), "eq", "'12'", True)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=12))
def test_column_kernel_equals_generic_route(documents, predicates):
    database = Database()
    insert_all(database, documents)
    assert assert_routes_agree(database, FIXED + predicates) > 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS, op=st.sampled_from(OPS),
       rel=st.sampled_from(("@x", "b", "@*")))
def test_sql_passing_variables(documents, op, rel):
    """One lookup per SQL row, with the operand passed from a VARCHAR,
    a DOUBLE (NULL is the empty sequence) or an XMLQuery of two atoms."""
    database = Database()
    insert_all(database, documents)
    database.execute("CREATE TABLE v (k INTEGER, s VARCHAR(20), d DOUBLE)")
    for k, s, d in ((1, "12", 12.0), (2, " 12 ", -0.0), (3, None, None),
                    (4, "20 USD", 1000.0), (5, "", 0.5)):
        database.insert("v", {"k": k, "s": s, "d": d})
    with enabled_metrics():
        for operand in ("v.s", "v.d", "XMLQuery('(1, 12)')"):
            results = []
            for path in ("$d//a", "($d//a)"):
                statement = (
                    f"SELECT t.id, v.k FROM t, v WHERE XMLExists("
                    f"'{path}[{rel} {op} $s]' passing t.doc as \"d\", "
                    f"{operand} as \"s\")")
                results.append(outcome(
                    lambda: list(database.sql(statement).serialize_rows())))
            assert results[0] == results[1], (operand, op, rel)
        assert METRICS.counter("pathsummary.column_predicates") > 0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=8))
def test_under_a_one_byte_buffer_pool(documents, predicates):
    """Only the newest document stays materialized, so a column-wide
    lookup finds evicted trees and never reaches the summary; a per-row
    one decides each reloaded document on its columns."""
    database = Database(buffer_pool_bytes=1)
    insert_all(database, documents)
    assert assert_routes_agree(database, FIXED + predicates,
                               per_row=True) > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents=DOCUMENTS,
       predicates=st.lists(PREDICATES, min_size=1, max_size=8),
       checkpoint=st.booleans())
def test_after_a_reopen(documents, predicates, checkpoint):
    """Columns adopted from a checkpoint, or replayed from the WAL
    alone, decide as the parsed ones did."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        with DurableDatabase(directory) as database:
            insert_all(database, documents)
            if checkpoint:
                database.checkpoint()
        with DurableDatabase(directory) as reopened:
            assert assert_routes_agree(reopened, FIXED + predicates) > 0
            assert_routes_agree(reopened, predicates, per_row=True)


def test_typed_stores_keep_the_generic_route():
    """One column holds validated and unvalidated documents: a lookup
    spanning both runs node by node (typed ``@x`` strings raise against
    a number), per-document lookups decide the untyped ones on the
    columns, and both answer and fail as the generic twin."""
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.register_schema(Schema("typed").declare("a/@x", "xs:string"))
    texts = ["<r><a x='12'/><a x='20 USD'/></r>", "<r><a x='5'/></r>",
             "<r><a x=' 12 '><b>12</b></a></r>"]
    for number, text in enumerate(texts):
        database.insert("t", {"id": number, "doc": text},
                        schema="typed" if number == 1 else None)
    stores = [stored.columns for stored in database.documents("t", "doc")]
    assert [store.untyped for store in stores] == [True, False, True]
    predicates = [(("a", "@x"), op, operand, False)
                  for op in OPS for operand in ("12", "'12'", "' 12 '")]
    with enabled_metrics():
        for predicate in predicates:
            summary, generic = queries(predicate)
            assert outcome(lambda: database.xquery(summary).serialize()) \
                == outcome(lambda: database.xquery(generic).serialize())
        assert METRICS.counter("pathsummary.column_predicates") == 0
        for op in OPS:
            rows = []
            for path in ("$d//a", "($d//a)"):
                statement = (f"SELECT id, XMLQuery('{path}[@x {op} "
                             f"\"12\"]' passing doc as \"d\") FROM t")
                rows.append(outcome(
                    lambda: list(database.sql(statement).serialize_rows())))
            assert rows[0] == rows[1]
        assert METRICS.counter("pathsummary.column_predicates") == 2 * 6
    assert outcome(lambda: database.xquery(
        f"{COLUMN}//a[@x < 20]").serialize())[1] == "XPTY0004"


def test_a_store_stops_being_untyped_where_annotations_attach():
    schema = Schema("typed").declare("a/@x", "xs:double")
    text = "<r><a x='1'/></r>"
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    database.register_schema(schema)
    database.insert("t", {"id": 1, "doc": text}, schema="typed")
    database.insert("t", {"id": 2, "doc": text})
    validated, plain = database.documents("t", "doc")
    assert not validated.columns.untyped and plain.columns.untyped
    # A reload validates again; the flag never comes back.
    reloaded = ColumnStore.from_document(parse_document(text))
    assert reloaded.untyped
    reloaded.materialize(schema)
    assert not reloaded.untyped
    # A captured tree that carries annotations is typed.
    copied = database.xquery("declare construction preserve; "
                             f"document {{ {COLUMN}[1]/r }}").items[0]
    assert not ColumnStore.from_document(copied).untyped


class _RecordingGuard(QueryGuard):
    __slots__ = ("work",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.work: list[int] = []

    def tick(self, work: int = 1) -> None:
        self.work.append(work)
        super().tick(work)


def test_a_deadline_interrupts_the_kernel():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    body = "".join(f"<a x='{n}'/>" for n in range(20_000))
    database.insert("t", {"id": 1, "doc": f"<r>{body}</r>"})
    query = f"{COLUMN}//a[@x > 0]"
    with enabled_metrics():
        guard = _RecordingGuard(timeout_seconds=60.0)
        with guarded(guard):
            assert len(database.xquery(query)) == 19_999
        assert METRICS.counter("pathsummary.column_predicates") == 1
    assert 20_001 in guard.work   # one tick for the @x partition
    expired = _RecordingGuard(timeout_seconds=0.0)
    with guarded(expired):
        try:
            database.xquery(query)
        except QueryTimeoutError:
            pass
        else:
            raise AssertionError("the deadline did not interrupt")
    assert expired.work[-1] == 20_001   # the partition's tick raised


def test_racing_readers_fill_cold_value_caches():
    """Eight threads at a 1 µs switch interval decide predicates over
    stores whose value caches are cold: every answer is the generic
    one, and every cache entry is the partition's values."""
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, doc XML)")
    for number in range(40):
        values = [VALUES[(number + k) % len(VALUES)] for k in range(4)]
        database.insert("t", {"id": number, "doc": xml([
            ({"x": values[0], "y": values[1]}, [values[2], values[3]],
             [({"x": values[3]}, [values[0]], [])])])})
    predicates = [(("a", "@x"), ">", "3", False),
                  (("a", "b"), "<", "12", False),
                  (("a", "@*"), ">=", "0", False),
                  (("a", "a/b"), "!=", "5", False),
                  (("r", "a/@x"), "=", "12", False)]
    expected = [database.xquery(queries(predicate)[1]).serialize()
                for predicate in predicates]
    stores = [stored.columns for stored in database.documents("t", "doc")]
    assert all(store.value_cache == () for store in stores)
    answers: list = [None] * 8
    barrier = threading.Barrier(8)

    def read(reader):
        barrier.wait()
        order = predicates[reader % 5:] + predicates[:reader % 5]
        answers[reader] = {predicate: database.xquery(
            queries(predicate)[0]).serialize() for predicate in order}

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(reader,))
                   for reader in range(8)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join()
    finally:
        sys.setswitchinterval(previous)
    for answer in answers:
        assert [answer[predicate] for predicate in predicates] == expected
    for store in stores:
        assert store.value_cache
        cache = store.value_cache
        for path_id, packed, uncastable in zip(cache[::3], cache[1::3],
                                               cache[2::3]):
            doubles = memoryview(packed).cast("d")
            texts = [store.text_of(slot)
                     for slot in store.partitions[path_id]]
            assert len(doubles) == len(texts)
            for position, text in enumerate(texts):
                try:
                    value = parse_double(text)
                except CastError:
                    assert position in uncastable
                    continue
                assert position not in uncastable
                assert value == doubles[position] or value != value
