"""A module-level call graph over ``src/repro/`` for the SA passes.

Pure ``ast`` — no imports of the engine itself, so the analyzer can
run on a tree that does not import cleanly.  The graph is deliberately
*under*-approximate: a call is resolved only when the target is
provable from local structure (``self.method`` through the class and
its bases, ``self._attr.method`` through a ``self._attr = Class(...)``
assignment, plain names through module defs and ``import`` statements,
``Class(...)`` to ``__init__``).  Dynamic dispatch (``getattr``,
callables passed as values) stays unresolved, which keeps the
interprocedural passes free of phantom paths at the cost of missing
some real ones — the right trade for a lint that must exit 0 on a
healthy tree.

Lock model
----------

A lock acquisition is a ``with`` item of the shape

* ``with <expr>.read():`` / ``with <expr>.write():`` — reader-writer
  acquisition in the named mode, or
* ``with <expr>:`` where the final attribute looks like a lock
  (``*lock*`` or ``_cond``) — a plain mutex.

Lock *identity* is ``Owner.attr`` where ``Owner`` is the class whose
method bodies assign ``self.attr = …`` (walking base classes, so
``DurableDatabase`` and ``Database`` agree on ``Database._rwlock``).
A non-``self`` expression falls back to the unique owning class when
exactly one class in the package defines the attribute, else to its
dotted source text — coarse, but every lock in this codebase has a
distinct attribute name per owner.

Each function records its direct acquisitions and every call site,
both annotated with the ordered set of locks lexically held at that
point; the passes in :mod:`repro.analysis.locks` & friends propagate
those facts over the resolved edges.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field

__all__ = ["CallGraph", "FunctionInfo", "CallSite", "LockOp",
           "build_graph", "Project", "load_project"]

_LOCKISH = ("lock", "_cond")


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` rendered, or None for anything not a name chain."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _looks_like_lock(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return "lock" in last.lower() or last == "_cond"


@dataclass
class LockOp:
    """One lexical lock acquisition inside a function body."""

    lock: str                 # canonical identity, e.g. Database._rwlock
    mode: str                 # "read" | "write" | "lock"
    lineno: int
    held: tuple               # ((lock, mode), ...) held before this one


@dataclass
class CallSite:
    """One call expression and what it could statically resolve to."""

    lineno: int
    text: str                 # rendered callee for messages
    targets: tuple            # resolved FunctionInfo keys (may be empty)
    held: tuple               # ((lock, mode), ...) held at the call


@dataclass
class FunctionInfo:
    key: str                  # "module:Class.method" | "module:func"
    module: str
    path: pathlib.Path
    relpath: str              # repo-relative, for findings
    name: str
    cls: str | None
    node: object              # the ast.FunctionDef / AsyncFunctionDef
    is_async: bool
    lineno: int
    acquires: list = field(default_factory=list)   # [LockOp]
    calls: list = field(default_factory=list)      # [CallSite]


@dataclass
class _ClassInfo:
    name: str
    module: str
    bases: list               # base-class source names
    methods: dict             # name -> FunctionInfo key
    self_attrs: set           # attrs assigned as self.attr = ...
    attr_types: dict          # attr -> class source name from self.a = C()


@dataclass
class _ModuleInfo:
    module: str
    path: pathlib.Path
    tree: ast.Module
    source_lines: list
    functions: dict = field(default_factory=dict)   # name -> key
    classes: dict = field(default_factory=dict)     # name -> _ClassInfo
    imports: dict = field(default_factory=dict)     # name -> dotted module
    imported_names: dict = field(default_factory=dict)  # name -> (mod, attr)


@dataclass
class Project:
    """Parsed sources: the shared input of every pass."""

    root: pathlib.Path              # the package dir (src/repro)
    repo: pathlib.Path              # repo root, for relative paths
    modules: dict = field(default_factory=dict)     # module -> _ModuleInfo

    def relpath(self, path: pathlib.Path) -> str:
        try:
            return str(path.relative_to(self.repo))
        except ValueError:
            return str(path)

    def source_lines(self, relpath: str) -> list:
        for info in self.modules.values():
            if self.relpath(info.path) == relpath:
                return info.source_lines
        return []


def load_project(root: pathlib.Path,
                 files: list[pathlib.Path] | None = None) -> Project:
    root = pathlib.Path(root).resolve()
    repo = root.parent.parent if root.parent.name == "src" else root
    project = Project(root=root, repo=repo)
    paths = (sorted(files) if files is not None
             else sorted(root.rglob("*.py")))
    for path in paths:
        path = pathlib.Path(path).resolve()
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        try:
            relative = path.relative_to(root)
            module = ".".join(relative.with_suffix("").parts)
            if module.endswith("__init__"):
                module = module[: -len(".__init__")] or "__init__"
        except ValueError:
            module = path.stem
        project.modules[module] = _ModuleInfo(
            module=module, path=path, tree=tree,
            source_lines=source.splitlines())
    return project


class CallGraph:
    """Resolved functions, classes and lock facts for one project."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassInfo] = {}     # "module:Class"
        self._attr_owners: dict[str, list] = {}      # attr -> [_ClassInfo]
        self._index()
        self._analyze_bodies()

    # -- indexing -------------------------------------------------------

    def _index(self) -> None:
        for info in self.project.modules.values():
            self._index_imports(info)
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._add_function(info, node, None)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(info, node)
        for cls in self.classes.values():
            for attr in cls.self_attrs:
                self._attr_owners.setdefault(attr, []).append(cls)

    def _index_imports(self, info: _ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom):
                target = self._resolve_import(info.module, node)
                if target is None:
                    continue
                for alias in node.names:
                    info.imported_names[alias.asname or alias.name] = (
                        target, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = alias.name

    def _resolve_import(self, module: str,
                        node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            name = node.module or ""
            if name == "repro" or name.startswith("repro."):
                return name[len("repro."):] or ""
            return None
        parts = module.split(".")
        # level 1 = this module's package, 2 = its parent, ...
        base = parts[: len(parts) - node.level] if len(parts) >= \
            node.level else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _index_class(self, info: _ModuleInfo, node: ast.ClassDef) -> None:
        cls = _ClassInfo(
            name=node.name, module=info.module,
            bases=[rendered for base in node.bases
                   if (rendered := _dotted(base)) is not None],
            methods={}, self_attrs=set(), attr_types={})
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = self._add_function(info, item, node.name)
                cls.methods[item.name] = function.key
                self._collect_self_attrs(item, cls)
        info.classes[node.name] = cls
        self.classes[f"{info.module}:{node.name}"] = cls

    def _collect_self_attrs(self, method, cls: _ClassInfo) -> None:
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls.self_attrs.add(target.attr)
                    if (isinstance(node.value, ast.Call)
                            and (callee := _dotted(node.value.func))
                            is not None):
                        leaf = callee.rsplit(".", 1)[-1]
                        if leaf[:1].isupper():
                            cls.attr_types[target.attr] = leaf

    def _add_function(self, info: _ModuleInfo, node,
                      cls: str | None) -> FunctionInfo:
        name = f"{cls}.{node.name}" if cls else node.name
        key = f"{info.module}:{name}"
        function = FunctionInfo(
            key=key, module=info.module, path=info.path,
            relpath=self.project.relpath(info.path),
            name=node.name, cls=cls, node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            lineno=node.lineno)
        self.functions[key] = function
        if cls is None:
            info.functions[node.name] = key
        return function

    # -- class / lock resolution ----------------------------------------

    def _class_by_name(self, module: str, name: str) -> _ClassInfo | None:
        info = self.project.modules.get(module)
        if info is not None:
            if name in info.classes:
                return info.classes[name]
            if name in info.imported_names:
                target_module, attr = info.imported_names[name]
                target = self.project.modules.get(target_module)
                if target is not None and attr in target.classes:
                    return target.classes[attr]
        for cls in self.classes.values():
            if cls.name == name:
                return cls
        return None

    def _mro(self, cls: _ClassInfo) -> list:
        """The class plus resolvable bases, nearest first."""
        out, queue, seen = [], [cls], set()
        while queue:
            current = queue.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            out.append(current)
            for base in current.bases:
                resolved = self._class_by_name(current.module,
                                               base.rsplit(".", 1)[-1])
                if resolved is not None:
                    queue.append(resolved)
        return out

    def _lock_owner(self, cls: _ClassInfo | None, attr: str) -> str | None:
        if cls is not None:
            for candidate in reversed(self._mro(cls)):
                if attr in candidate.self_attrs:
                    return candidate.name
            return cls.name
        owners = self._attr_owners.get(attr, [])
        roots = {self._lock_owner(owner, attr) for owner in owners}
        if len(roots) == 1:
            return roots.pop()
        return None

    def lock_identity(self, dotted: str, module: str,
                      cls_name: str | None) -> str:
        attr = dotted.rsplit(".", 1)[-1]
        if dotted.startswith("self.") and dotted.count(".") == 1:
            cls = (self._class_by_name(module, cls_name)
                   if cls_name else None)
            owner = self._lock_owner(cls, attr)
            if owner:
                return f"{owner}.{attr}"
        else:
            owner = self._lock_owner(None, attr)
            if owner:
                return f"{owner}.{attr}"
        return dotted

    # -- body analysis --------------------------------------------------

    def _analyze_bodies(self) -> None:
        for function in self.functions.values():
            self._walk_body(function)

    def _lock_in_with_item(self, item: ast.withitem, function
                           ) -> tuple[str, str] | None:
        expr = item.context_expr
        if (isinstance(expr, ast.Call) and not expr.args
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("read", "write")):
            base = _dotted(expr.func.value)
            if base is not None and _looks_like_lock(base):
                return (self.lock_identity(base, function.module,
                                           function.cls),
                        expr.func.attr)
        dotted = _dotted(expr)
        if dotted is not None and _looks_like_lock(dotted):
            return (self.lock_identity(dotted, function.module,
                                       function.cls), "lock")
        return None

    def _walk_body(self, function: FunctionInfo) -> None:
        def visit(node, held: tuple) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                return  # nested defs execute later, not here
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held
                for item in node.items:
                    lock = self._lock_in_with_item(item, function)
                    if lock is not None:
                        function.acquires.append(LockOp(
                            lock=lock[0], mode=lock[1],
                            lineno=node.lineno, held=inner))
                        inner = inner + (lock,)
                    else:
                        visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if isinstance(node, ast.Call):
                self._record_call(function, node, held)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for child in function.node.body:
            visit(child, ())

    def _record_call(self, function: FunctionInfo, node: ast.Call,
                     held: tuple) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if (dotted.endswith((".read", ".write"))
                and _looks_like_lock(dotted.rsplit(".", 1)[0])):
            return  # modeled as a lock acquisition, not a call
        targets = tuple(self.resolve_call(function, dotted))
        function.calls.append(CallSite(
            lineno=node.lineno, text=dotted, targets=targets, held=held))

    def resolve_call(self, function: FunctionInfo, dotted: str) -> list:
        """FunctionInfo keys ``dotted`` could reach from ``function``."""
        info = self.project.modules.get(function.module)
        if info is None:
            return []
        parts = dotted.split(".")
        if parts[0] == "self" and function.cls is not None:
            cls = self._class_by_name(function.module, function.cls)
            if cls is None:
                return []
            if len(parts) == 2:
                return self._method_key(cls, parts[1])
            if len(parts) == 3:
                type_name = None
                for candidate in self._mro(cls):
                    if parts[1] in candidate.attr_types:
                        type_name = candidate.attr_types[parts[1]]
                        break
                if type_name is None:
                    return []
                target = self._class_by_name(function.module, type_name)
                if target is None:
                    return []
                return self._method_key(target, parts[2])
            return []
        if len(parts) == 1:
            name = parts[0]
            if name in info.functions:
                return [info.functions[name]]
            if name in info.classes:
                return self._method_key(info.classes[name], "__init__")
            if name in info.imported_names:
                module, attr = info.imported_names[name]
                target = self.project.modules.get(module)
                if target is None:
                    return []
                if attr in target.functions:
                    return [target.functions[attr]]
                if attr in target.classes:
                    return self._method_key(target.classes[attr],
                                            "__init__")
            return []
        if len(parts) == 2 and parts[0] in info.imported_names:
            module, attr = info.imported_names[parts[0]]
            submodule = self.project.modules.get(
                f"{module}.{attr}" if attr else module)
            if submodule is not None and parts[1] in submodule.functions:
                return [submodule.functions[parts[1]]]
        return []

    def _method_key(self, cls: _ClassInfo, method: str) -> list:
        for candidate in self._mro(cls):
            if method in candidate.methods:
                return [candidate.methods[method]]
        return []


def build_graph(project: Project) -> CallGraph:
    return CallGraph(project)
