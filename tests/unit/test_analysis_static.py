"""The static half of the concurrency sanitizer (``repro check``).

Each SA4xx pass is exercised on a seeded fixture tree (the violation
fires, with the right reason code) and on the fixed form of the same
code (silent) — the contract the issue calls "fire on seeded
violations, stay quiet on the fixed tree".  The final tests pin the
real package: ``run_checks()`` over ``src/repro`` must be clean, which
is what CI's ``repro check`` gate enforces.
"""

from __future__ import annotations

import io
import json
import textwrap

from repro.analysis.diagnostics import SACode, SAFinding, suppressed
from repro.analysis.runner import main as check_main
from repro.analysis.runner import run_checks


def _run(tmp_path, files: dict) -> list:
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_checks(root=tmp_path)


def _codes(findings) -> set:
    return {finding.code.code for finding in findings}


# -- SA401: lock-order inversion ---------------------------------------


LOCK_ORDER_BAD = """
    import threading

    class Engine:
        def __init__(self):
            self._alock = threading.Lock()
            self._block = threading.Lock()

        def forward(self):
            with self._alock:
                with self._block:
                    pass

        def backward(self):
            with self._block:
                with self._alock:
                    pass
"""


def test_lock_order_inversion_fires(tmp_path):
    findings = _run(tmp_path, {"engine.py": LOCK_ORDER_BAD})
    assert "SA401" in _codes(findings)
    inversion = next(f for f in findings if f.code is SACode.LOCK_ORDER)
    # Both witnesses are reported: the finding anchors one order and
    # `related` carries the opposite one.
    assert "Engine._alock" in inversion.message
    assert "Engine._block" in inversion.message
    assert inversion.related


def test_lock_order_consistent_is_silent(tmp_path):
    fixed = LOCK_ORDER_BAD.replace(
        "with self._block:\n                with self._alock:",
        "with self._alock:\n                with self._block:")
    findings = _run(tmp_path, {"engine.py": fixed})
    assert "SA401" not in _codes(findings)


def test_lock_order_through_a_callee(tmp_path):
    # The inversion is only visible interprocedurally: one side takes
    # B inside a helper while holding A.
    findings = _run(tmp_path, {"engine.py": """
        import threading

        class Engine:
            def __init__(self):
                self._alock = threading.Lock()
                self._block = threading.Lock()

            def _touch_b(self):
                with self._block:
                    pass

            def forward(self):
                with self._alock:
                    self._touch_b()

            def backward(self):
                with self._block:
                    with self._alock:
                        pass
    """})
    assert "SA401" in _codes(findings)


# -- SA402: read->write upgrade ----------------------------------------


def test_upgrade_attempt_fires(tmp_path):
    findings = _run(tmp_path, {"store.py": """
        class Store:
            def __init__(self):
                self._rwlock = RWLock()

            def bad(self):
                with self._rwlock.read():
                    with self._rwlock.write():
                        pass
    """})
    assert "SA402" in _codes(findings)


def test_write_implies_read_is_legal(tmp_path):
    findings = _run(tmp_path, {"store.py": """
        class Store:
            def __init__(self):
                self._rwlock = RWLock()

            def fine(self):
                with self._rwlock.write():
                    with self._rwlock.read():
                        pass

            def also_fine(self):
                with self._rwlock.read():
                    with self._rwlock.read():
                        pass
    """})
    assert "SA402" not in _codes(findings)
    assert "SA401" not in _codes(findings)


# -- SA403: blocking under a write lock --------------------------------


def test_direct_blocking_under_write_lock_fires(tmp_path):
    findings = _run(tmp_path, {"engine.py": """
        import os

        class Engine:
            def __init__(self):
                self._rwlock = RWLock()

            def flush(self):
                with self._rwlock.write():
                    os.fsync(3)
    """})
    assert "SA403" in _codes(findings)


def test_blocking_reached_through_callee_fires(tmp_path):
    findings = _run(tmp_path, {"engine.py": """
        import os

        def _sync(fd):
            os.fsync(fd)

        class Engine:
            def __init__(self):
                self._rwlock = RWLock()

            def flush(self):
                with self._rwlock.write():
                    _sync(3)
    """})
    assert "SA403" in _codes(findings)


def test_blocking_under_read_lock_is_silent(tmp_path):
    # Readers share the lock; blocking there stalls no writer queue
    # the pass models — only the exclusive side is flagged.
    findings = _run(tmp_path, {"engine.py": """
        import os

        class Engine:
            def __init__(self):
                self._rwlock = RWLock()

            def flush(self):
                with self._rwlock.read():
                    os.fsync(3)
    """})
    assert "SA403" not in _codes(findings)


def test_callee_def_pragma_covers_every_call_site(tmp_path):
    # The WAL pattern: eight writers reach one fsync helper by
    # design.  One pragma on the helper's def suppresses them all.
    findings = _run(tmp_path, {"engine.py": """
        import os

        # sa: ok(SA403: group-commit fsync inside the writer section)
        def _sync(fd):
            os.fsync(fd)

        class Engine:
            def __init__(self):
                self._rwlock = RWLock()

            def flush(self):
                with self._rwlock.write():
                    _sync(3)

            def close(self):
                with self._rwlock.write():
                    _sync(4)
    """})
    assert "SA403" not in _codes(findings)


# -- SA404: blocking calls inside server coroutines --------------------


def test_sync_sleep_in_server_coroutine_fires(tmp_path):
    findings = _run(tmp_path, {"server/app.py": """
        import time

        async def handle():
            time.sleep(1)
    """})
    assert "SA404" in _codes(findings)


def test_awaited_and_deferred_calls_are_silent(tmp_path):
    findings = _run(tmp_path, {"server/app.py": """
        import asyncio

        async def handle(executor, pool):
            await asyncio.sleep(0)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: pool.shutdown(wait=True))
    """})
    assert "SA404" not in _codes(findings)


def test_blocking_outside_server_tree_not_sa404(tmp_path):
    findings = _run(tmp_path, {"tools/app.py": """
        import time

        async def handle():
            time.sleep(1)
    """})
    assert "SA404" not in _codes(findings)


# -- SA405: fork with held state ---------------------------------------


def test_fork_under_lock_fires(tmp_path):
    findings = _run(tmp_path, {"pool.py": """
        import multiprocessing
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def spawn(self):
                with self._lock:
                    process = multiprocessing.Process(target=print)
                    process.start()
    """})
    assert "SA405" in _codes(findings)


def test_fork_after_release_is_silent(tmp_path):
    findings = _run(tmp_path, {"pool.py": """
        import multiprocessing
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def spawn(self):
                with self._lock:
                    state = {}
                process = multiprocessing.Process(target=print,
                                                  args=(state,))
                process.start()
    """})
    assert "SA405" not in _codes(findings)


def test_fork_inside_open_block_fires(tmp_path):
    findings = _run(tmp_path, {"pool.py": """
        import multiprocessing

        def spawn(path):
            with open(path) as handle:
                process = multiprocessing.Process(target=print)
                process.start()
    """})
    assert "SA405" in _codes(findings)


def test_fork_while_caller_holds_lock_fires(tmp_path):
    # The held set propagates into callees: the caller holds the lock,
    # the callee forks.
    findings = _run(tmp_path, {"pool.py": """
        import multiprocessing
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def _spawn(self):
                process = multiprocessing.Process(target=print)
                process.start()

            def bootstrap(self):
                with self._lock:
                    self._spawn()
    """})
    assert "SA405" in _codes(findings)


# -- SA406: guard-tick discipline --------------------------------------


UNTICKED_SQL = """
    def scan(rows):
        total = 0
        for row in rows:
            total += 1
        return total
"""


def test_unticked_sql_loop_fires(tmp_path):
    findings = _run(tmp_path, {"sql/executor.py": UNTICKED_SQL})
    assert "SA406" in _codes(findings)


def test_pre_fix_aggregate_shape_fires(tmp_path):
    # The shape sql/executor.py had before this change: aggregation
    # over group rows with no tick anywhere in the function.  The
    # regression half of the satellite bugfix — the pass must keep
    # firing if the ticks are ever removed again.
    findings = _run(tmp_path, {"sql/executor.py": """
        def _eval_aggregate(expr, group_envs):
            values = []
            for env in group_envs:
                values.append(env)
            return values
    """})
    assert "SA406" in _codes(findings)


def test_ticked_sql_loop_is_silent(tmp_path):
    findings = _run(tmp_path, {"sql/executor.py": """
        def scan(rows, guard):
            if guard is not None:
                guard.tick(len(rows) + 1)
            total = 0
            for row in rows:
                total += 1
            return total
    """})
    assert "SA406" not in _codes(findings)


def test_same_loop_outside_executor_modules_is_silent(tmp_path):
    findings = _run(tmp_path, {"util.py": UNTICKED_SQL})
    assert "SA406" not in _codes(findings)


def test_evaluator_items_loop_fires_but_not_dict_items(tmp_path):
    findings = _run(tmp_path, {"xquery/evaluator.py": """
        def walk(items, expr, mapping):
            out = []
            for item in items:
                out.append(item)
            for item_expr in expr.items:
                out.append(item_expr)
            for key, value in mapping.items():
                out.append(key)
            return out
    """})
    sa406 = [f for f in findings if f.code is SACode.GUARD_TICK]
    # Only the bare context sequence, on line 4 — ``expr.items`` and
    # ``mapping.items()`` are query-sized, not data-sized.
    assert [f.line for f in sa406] == [4]


def test_sibling_closure_tick_does_not_excuse_a_loop(tmp_path):
    # The lowering evaluator's shape: a method that runs at compile
    # time and returns closures.  A tick in one closure, or in the
    # lowering method itself, guards nothing inside another closure.
    findings = _run(tmp_path, {"xquery/evaluator.py": """
        class _Lowering:
            def _step(self, guard):
                guard.tick()

                def ticked(items, guard):
                    guard.tick(len(items) + 1)
                    for item in items:
                        pass

                def unticked(items, guard):
                    for item in items:
                        pass
                return ticked, unticked
    """})
    sa406 = [f for f in findings if f.code is SACode.GUARD_TICK]
    # Only the loop of ``unticked``, on line 12.
    assert [f.line for f in sa406] == [12]


def test_pragma_silences_a_qualifying_loop(tmp_path):
    findings = _run(tmp_path, {"sql/executor.py": """
        def scan(rows):
            total = 0
            # sa: ok(SA406: bounded by an already-guarded producer)
            for row in rows:
                total += 1
            return total
    """})
    assert "SA406" not in _codes(findings)


# -- SA407-SA410: the migrated lexical rules ---------------------------


def test_lock_discipline_fires_and_fixed_form_passes(tmp_path):
    findings = _run(tmp_path, {"storage/catalog.py": """
        class Database:
            def __init__(self):
                self._rwlock = RWLock()
                self.tables = {}

            def bad(self):
                self.tables = {}

            def good(self):
                with self._rwlock.write():
                    self.tables = {}
    """})
    sa407 = [f for f in findings if f.code is SACode.LOCK_DISCIPLINE]
    assert len(sa407) == 1
    assert "bad()" in sa407[0].message


def test_broad_except_fires_reraise_and_pragma_pass(tmp_path):
    findings = _run(tmp_path, {"mod.py": """
        def bad():
            try:
                work()
            except Exception:
                return None

        def reraises():
            try:
                work()
            except Exception:
                cleanup()
                raise

        def excused():
            try:
                work()
            except Exception:  # sa: ok(SA408: boundary)
                return None
    """})
    sa408 = [f for f in findings if f.code is SACode.BROAD_EXCEPT]
    assert len(sa408) == 1
    assert sa408[0].line == 5


def test_metrics_gating_fires_and_guarded_form_passes(tmp_path):
    findings = _run(tmp_path, {"mod.py": """
        from .obs.metrics import METRICS

        def bad():
            METRICS.inc("x")

        def good():
            if METRICS.enabled:
                METRICS.inc("x")
    """})
    sa409 = [f for f in findings if f.code is SACode.METRICS_GATING]
    assert len(sa409) == 1
    assert sa409[0].line == 5


def test_fsync_discipline_fires_outside_fsio_only(tmp_path):
    files = {
        "durability/store.py": """
            import os

            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
                os.rename(path, path + ".done")
        """,
        "durability/fsio.py": """
            import os

            def fsync_file(path):
                fd = os.open(path, os.O_RDONLY)
                os.fsync(fd)
                os.close(fd)
        """,
    }
    findings = _run(tmp_path, files)
    sa410 = [f for f in findings if f.code is SACode.FSYNC_DISCIPLINE]
    assert sa410
    assert all(f.path.endswith("store.py") for f in sa410)


def test_tracer_fork_fires_outside_obs_trace_only(tmp_path):
    findings = _run(tmp_path, {
        "planner/plan.py": """
            def twins(tracer=None):
                if tracer is not None:
                    with tracer.span("plan"):
                        work()
                else:
                    work()

            class Executor:
                def step(self):
                    return None if self.tracer is None else 1

            def single(tracer=None):
                tracer = tracer or NULL_TRACER
                with tracer.span("plan") as span:
                    if span:
                        span.set(cost=estimate())
                    work()
        """,
        "obs/trace.py": """
            def normalise(tracer):
                return NULL_TRACER if tracer is None else tracer
        """,
    })
    sa411 = [f for f in findings if f.code is SACode.TRACER_FORK]
    assert [(f.path, f.line) for f in sa411] == [
        ("planner/plan.py", 3), ("planner/plan.py", 11)]


# -- suppression machinery ---------------------------------------------


def test_multiline_pragma_comment_block_is_honoured():
    lines = [
        "# sa: ok(SA403: the fsync here is the group-commit",
        "# design; see the engine docstring)",
        "def _log(self, record):",
    ]
    assert suppressed(lines, 3, SACode.BLOCKING_UNDER_LOCK)
    assert not suppressed(lines, 3, SACode.GUARD_TICK)


def test_finding_renders_with_code_and_related():
    finding = SAFinding(SACode.LOCK_ORDER, "a.py", 7, "msg",
                        related="b.py:9: other")
    assert str(finding) == "a.py:7: SA401 — msg [b.py:9: other]"
    payload = finding.to_dict()
    assert payload["code"] == "SA401"
    assert payload["related"] == "b.py:9: other"


# -- the real tree ------------------------------------------------------


def test_repo_tree_is_clean():
    # The acceptance gate: `repro check` exits 0 on the fixed tree.
    assert run_checks() == []


def test_runner_json_output_and_exit_codes(tmp_path):
    out = io.StringIO()
    assert check_main(["--json"], out=out) == 0
    assert json.loads(out.getvalue()) == []
