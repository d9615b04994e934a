"""The lexical self-lint rules (SA407–SA411).

Single-file AST checks that emit reason-coded
:class:`~repro.analysis.diagnostics.SAFinding` objects through the
same runner, pragma machinery and CLI as the interprocedural passes.

* **SA407 lock discipline** (``storage/catalog.py``): in a class that
  owns ``self._rwlock``, attribute mutations and ``Table`` mutator
  calls outside ``__init__`` must sit inside
  ``with self._rwlock.write():``.
* **SA408 exception hygiene** (everywhere): no bare ``except:`` / no
  ``except Exception:`` unless the handler re-raises or carries a
  ``# sa: ok(SA408: reason)`` pragma.
* **SA409 obs gating** (everywhere but ``obs/``): ``METRICS.inc`` /
  ``METRICS.observe`` must be inside ``if METRICS.enabled:``.
* **SA410 fsync discipline** (``durability/`` except ``fsio.py``): no
  builtin ``open()``, no ``os.*`` / ``shutil.*``, no pathlib I/O
  methods — those live only in ``fsio.py``.
* **SA411 one tracing path** (everywhere but ``obs/trace.py``): no
  ``is`` / ``is not`` test of a ``tracer`` against ``None`` — entry
  points substitute ``NULL_TRACER`` once, so no call is written twice.
"""

from __future__ import annotations

import ast

from .callgraph import Project
from .diagnostics import SACode, SAFinding

__all__ = ["check_lexical_rules"]

_TABLE_MUTATORS = frozenset({"new_row", "remove_rows"})
_RAW_IO_MODULES = frozenset({"os", "shutil"})
_PATHLIB_IO_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes",
    "rename", "replace", "unlink", "touch", "rmdir", "mkdir"})


def check_lexical_rules(project: Project) -> list:
    findings: list = []
    for info in project.modules.values():
        relpath = project.relpath(info.path)
        parts = info.path.parts
        findings.extend(_broad_excepts(relpath, info.tree))
        if info.path.name == "catalog.py":
            findings.extend(_lock_discipline(relpath, info.tree))
        if "obs" not in parts:
            findings.extend(_metrics_gating(relpath, info.tree))
        if "durability" in parts and info.path.name != "fsio.py":
            findings.extend(_fsync_discipline(relpath, info.tree))
        if parts[-2:] != ("obs", "trace.py"):
            findings.extend(_tracer_forks(relpath, info.tree))
    return findings


# -- SA407: catalog mutations only under the write lock ----------------


def _is_write_lock_with(node: ast.With) -> bool:
    for item in node.items:
        call = item.context_expr
        if (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "write"
                and isinstance(call.func.value, ast.Attribute)
                and call.func.value.attr == "_rwlock"):
            return True
    return False


def _owns_rwlock(class_node: ast.ClassDef) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Attribute)
                and target.attr == "_rwlock"
                for target in node.targets)
        for node in ast.walk(class_node))


def _lock_discipline(relpath: str, tree: ast.Module) -> list:
    findings: list = []
    for class_node in (node for node in tree.body
                       if isinstance(node, ast.ClassDef)):
        if not _owns_rwlock(class_node):
            continue
        for method in (node for node in class_node.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))):
            if method.name in ("__init__", "__post_init__"):
                continue
            _check_method(relpath, method, findings)
    return findings


def _check_method(relpath: str, method, findings: list) -> None:
    def visit(node, locked: bool) -> None:
        if isinstance(node, ast.With) and _is_write_lock_with(node):
            locked = True
        if not locked:
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr != "_rwlock"):
                        findings.append(SAFinding(
                            SACode.LOCK_DISCIPLINE, relpath,
                            node.lineno,
                            f"self.{target.attr} mutated in "
                            f"{method.name}() outside "
                            f"'with self._rwlock.write()'"))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TABLE_MUTATORS):
                findings.append(SAFinding(
                    SACode.LOCK_DISCIPLINE, relpath, node.lineno,
                    f"table mutator .{node.func.attr}() called in "
                    f"{method.name}() outside "
                    f"'with self._rwlock.write()'"))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for child in ast.iter_child_nodes(method):
        visit(child, False)


# -- SA408: no unexcused broad excepts ---------------------------------


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    return (isinstance(handler.type, ast.Name)
            and handler.type.id in ("Exception", "BaseException"))


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) and node.exc is None
               for node in ast.walk(handler))


def _broad_excepts(relpath: str, tree: ast.Module) -> list:
    findings: list = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or \
                not _is_broad(node):
            continue
        if _reraises(node):
            continue
        what = ("bare except:" if node.type is None
                else f"except {node.type.id}:")
        findings.append(SAFinding(
            SACode.BROAD_EXCEPT, relpath, node.lineno,
            f"{what} swallows engine errors; catch ReproError (or a "
            f"subclass), re-raise, or annotate "
            f"'# sa: ok(SA408: reason)'"))
    return findings


# -- SA409: METRICS calls stay behind the enabled guard ----------------


def _mentions_metrics_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "METRICS"
        for node in ast.walk(test))


def _metrics_gating(relpath: str, tree: ast.Module) -> list:
    findings: list = []

    def visit(node, guarded: bool) -> None:
        if isinstance(node, ast.If) and \
                _mentions_metrics_enabled(node.test):
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, guarded)
            return
        if (not guarded and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inc", "observe")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "METRICS"):
            findings.append(SAFinding(
                SACode.METRICS_GATING, relpath, node.lineno,
                f"METRICS.{node.func.attr}() outside an "
                f"'if METRICS.enabled:' guard: the disabled path "
                f"pays for bookkeeping"))
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for child in tree.body:
        visit(child, False)
    return findings


# -- SA410: raw file primitives only inside durability/fsio.py ---------


def _fsync_discipline(relpath: str, tree: ast.Module) -> list:
    findings: list = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            findings.append(SAFinding(
                SACode.FSYNC_DISCIPLINE, relpath, node.lineno,
                "builtin open() in durability code; all file I/O "
                "goes through durability/fsio.py, where the "
                "write→fsync→rename protocol and fault points live"))
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in _RAW_IO_MODULES):
                findings.append(SAFinding(
                    SACode.FSYNC_DISCIPLINE, relpath, node.lineno,
                    f"{func.value.id}.{func.attr}() bypasses the "
                    f"fsync discipline; use the durability/fsio.py "
                    f"helper"))
            elif (func.attr in _PATHLIB_IO_METHODS
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id == "fsio")):
                findings.append(SAFinding(
                    SACode.FSYNC_DISCIPLINE, relpath, node.lineno,
                    f".{func.attr}() on a path bypasses the fsync "
                    f"discipline; use the durability/fsio.py helper"))
    return findings


# -- SA411: one tracing path, no traced/untraced twins ------------------


def _is_tracer(node: ast.expr) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "tracer")
            or (isinstance(node, ast.Attribute)
                and node.attr == "tracer"))


def _tracer_forks(relpath: str, tree: ast.Module) -> list:
    findings: list = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and _is_tracer(node.left)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            findings.append(SAFinding(
                SACode.TRACER_FORK, relpath, node.lineno,
                "tracer compared against None forks the pipeline into "
                "traced and untraced twins; normalise once with "
                "'tracer = tracer or NULL_TRACER' and guard "
                "trace-only work with 'if span:'"))
    return findings
