"""Orchestration for ``repro check``: parse once, run every pass.

``run_checks`` loads the package sources into one :class:`Project`,
builds the call graph, runs the four interprocedural passes plus the
lexical rules, drops findings silenced by ``# sa: ok(SA4xx)``
pragmas, and returns the rest sorted by location.  ``main`` is the
process entry point behind the ``repro check`` subcommand: prints
findings (text or JSON), exits 1 when any remain.
"""

from __future__ import annotations

import json
import pathlib
import sys

from .blocking import check_blocking
from .callgraph import build_graph, load_project
from .diagnostics import suppressed
from .forksafety import check_fork_safety
from .guardticks import check_guard_ticks
from .lexical import check_lexical_rules
from .locks import check_lock_order

__all__ = ["run_checks", "main"]

#: The package directory this module ships in — the default target.
PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_checks(root: pathlib.Path | str | None = None,
               files: list | None = None) -> list:
    """Every SA finding on ``root`` (default: the installed package)."""
    project = load_project(
        pathlib.Path(root) if root is not None else PACKAGE_ROOT,
        files=files)
    graph = build_graph(project)
    findings = []
    findings.extend(check_lock_order(graph))
    findings.extend(check_blocking(graph))
    findings.extend(check_fork_safety(graph))
    findings.extend(check_guard_ticks(graph))
    findings.extend(check_lexical_rules(project))
    kept = []
    for finding in findings:
        lines = project.source_lines(finding.path)
        if lines and suppressed(lines, finding.line, finding.code):
            continue
        if finding.suppress_at is not None:
            other = project.source_lines(finding.suppress_at[0])
            if other and suppressed(other, finding.suppress_at[1],
                                    finding.code):
                continue
        kept.append(finding)
    kept.sort(key=lambda finding: (finding.path, finding.line,
                                   finding.code.code))
    return kept


def main(argv: list | None = None, out=sys.stdout) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in arguments
    paths = [pathlib.Path(argument) for argument in arguments
             if argument != "--json"]
    findings = run_checks(files=[path.resolve() for path in paths]
                          or None)
    if as_json:
        print(json.dumps([finding.to_dict() for finding in findings],
                         indent=2), file=out)
    else:
        for finding in findings:
            print(finding, file=out)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not as_json:
        file_count = len(load_project(PACKAGE_ROOT).modules)
        print(f"repro check: {file_count} files clean", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
