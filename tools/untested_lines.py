"""List the statements of src/platefft that the tier-1 test run never executes.

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Run from anywhere inside the repository.  The script runs pytest (on the
repository's testpaths, or on PYTEST_ARGS) in its own process under a line
tracer (sys.settrace and threading.settrace) that records only frames whose
code lies under src/platefft.  It then prints, grouped by module, each
statement (found with ast) on none of whose head lines a line event fired.
A statement's head runs from its first line (a decorator's, if any) to the
line before its body, or to its last line for a simple statement.  Constant
expressions such as docstrings, `try:`, `global` and `nonlocal` emit no line
event and are not listed.

Only this process is traced.  Code run in a subprocess, such as the tests
that start `python -m platefft.cli` and fieldio's split writer, is never
seen, so a statement listed here may still run in such a test: confirm one
before writing a test for it.  coverage.py is not needed: the tracer and the
statement lister use the standard library only.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "platefft")


def statement_heads(source: str) -> dict[int, range]:
    """The head lines of each statement that emits a line event, keyed by its first line."""
    heads = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        heads[first] = range(first, max(first, last) + 1)
    return heads


def untested(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements of source none of whose head lines is in executed."""
    return sorted(first for first, head in statement_heads(source).items() if executed.isdisjoint(head))


class LineTracer:
    """A sys.settrace function that records, per file under `package`, the lines on which a line event fired."""

    def __init__(self, package: str):
        self.package = package + os.sep
        self.executed: dict[str, set[int]] = defaultdict(set)
        self._paths: dict[str, str | None] = {}  # co_filename -> its absolute path, or None outside the package

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._paths:
            path = os.path.abspath(filename)
            self._paths[filename] = path if path.startswith(self.package) else None
        if self._paths[filename] is None:
            return None
        lines = self.executed[self._paths[filename]]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def main(argv: list[str]) -> int:
    tracer = LineTracer(PACKAGE)
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        missed = untested(source, tracer.executed[path])
        if missed:
            print(f"\n{os.path.relpath(path, ROOT)}: {len(missed)} statements never executed")
        lines = source.splitlines()
        for lineno in missed:
            print(f"  {lineno}: {lines[lineno - 1].strip()}")
        total += len(missed)
    print(f"\n{total} statements never executed in this process (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
