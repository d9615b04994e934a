"""Property: autopilot DDL never changes answers.

For a randomized interleaving of DML (inserts and deletes against the
paper tables) with workload observation and autopilot ``apply`` calls,
all 30 paper queries must answer **byte-identically** to a database
that saw the same DML but never built an index — indexes are an access
path, not a semantics change (Definition 1), and the autopilot must
preserve that under any schedule.

Second property: every index the autopilot recommends passes
:func:`repro.core.eligibility.check_index` against at least one
predicate of the statement that motivated it — it never recommends DDL
the planner would refuse to use — and no such motivating predicate
carries a :func:`repro.core.eligibility.predicate_obstacles` reason, the
same reasons ``repro lint`` reports: the autopilot and the lint cannot
disagree about a predicate.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.eligibility import (check_index, predicate_obstacles,
                                    statement_candidates)
from repro.storage.catalog import Database
from repro.storage.xmlindex import XmlIndex
from repro.workload.paperqueries import (PAPER_ORDERS, PAPER_QUERIES,
                                         load_paper_fixture,
                                         run_paper_query)

QUERY_NUMBERS = sorted(PAPER_QUERIES)

EXTRA_ORDERS = [
    (9000 + position,
     f"<order><custid>{7000 + position}</custid>"
     f"<lineitem price=\"{25 * (position + 1)}\" "
     f"quantity=\"{position + 1}\"><product><id>x{position}</id>"
     f"</product></lineitem></order>")
    for position in range(4)
]

#: Step vocabulary for the randomized schedule.
#: ('insert', k) / ('delete', ordid) / ('observe', query#) / ('apply',)
STEPS = (
    [("insert", position) for position in range(len(EXTRA_ORDERS))] +
    [("delete", ordid) for ordid, _doc in PAPER_ORDERS[:3]] +
    [("observe", number) for number in (1, 2, 3, 4, 11, 13, 21)] +
    [("apply",)] * 3
)


def answers(database) -> dict[int, str]:
    return {number: run_paper_query(database, number)
            for number in QUERY_NUMBERS}


def run_schedule(database, schedule, pilot=None):
    """Apply DML steps; observe/apply only when a pilot is attached."""
    for step in schedule:
        if step[0] == "insert":
            ordid, document = EXTRA_ORDERS[step[1]]
            database.insert("orders",
                            {"ordid": ordid, "orddoc": document})
        elif step[0] == "delete":
            target = step[1]
            database.delete_rows(
                "orders", lambda values: values["ordid"] == target)
        elif step[0] == "observe":
            if pilot is not None:
                run_paper_query(database, step[1])
        elif pilot is not None:     # 'apply'
            pilot.apply(limit=2)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=st.permutations(STEPS))
def test_autopilot_ddl_never_changes_answers(schedule):
    piloted = Database()
    load_paper_fixture(piloted, with_indexes=False)
    plain = Database()
    load_paper_fixture(plain, with_indexes=False)

    run_schedule(piloted, schedule, pilot=piloted.autopilot())
    run_schedule(plain, schedule, pilot=None)

    assert answers(piloted) == answers(plain)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(numbers=st.sets(st.sampled_from(QUERY_NUMBERS),
                       min_size=1, max_size=8))
def test_advisor_never_recommends_an_ineligible_index(numbers):
    database = Database()
    load_paper_fixture(database, with_indexes=False)
    pilot = database.autopilot()
    for number in sorted(numbers):
        run_paper_query(database, number)
    for candidate in pilot.advise():
        index = XmlIndex(candidate.name, candidate.table,
                         candidate.column, candidate.pattern,
                         candidate.index_type)
        eligible_somewhere = False
        for profile in pilot.profiler.statements():
            if profile.fingerprint not in candidate.statements:
                continue
            _language, _module, predicates = statement_candidates(
                database, profile.exemplar, profile.language)
            for predicate in predicates:
                if check_index(index, predicate).eligible:
                    eligible_somewhere = True
                    assert predicate_obstacles(predicate) == [], \
                        f"{candidate.ddl} serves an obstructed " \
                        f"predicate {predicate.description}"
        assert eligible_somewhere, \
            f"autopilot recommended unusable DDL: {candidate.ddl}"
