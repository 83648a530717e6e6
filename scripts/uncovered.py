"""Statements and branches of src/wordproblem that tier-1 never exercises.

    python3 scripts/uncovered.py

Run from the root of a checkout.  It runs tier-1 (``pytest -q`` over
``tests``) in this process under ``sys.settrace`` and then prints, one
per line as ``file:line: kind: source``:

- ``never ran``: a statement of ``src/wordproblem`` that no test ran;
- ``always true`` / ``always false``: an ``if`` or ``while`` whose
  condition was tested and always went the same way (constant
  conditions such as ``while True`` are left out).

A condition went the true way when the next line its frame runs lies in
the first statement of its body, and the false way when the frame runs
another line or returns; a test that raises counts as neither.  Only
this process is traced: CLI tests that start ``wordproblem`` in a
subprocess add nothing, so code that only those children run shows up
here.  An exception raised inside a trace function, such as a
``RecursionError`` from a test that overflows the stack in-process,
makes Python drop the tracer; every later test would run untraced and
its lines would read ``never ran``.  So each test whose call leaves no
tracer behind fails, named in pytest's summary, and the run fails.
Tracing slows tier-1 down about threefold; the whole run takes about
2.5 minutes on a 2-core x86-64 machine with Python 3.11.  Needs the
standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wordproblem"
NO_CODE = (ast.Global, ast.Nonlocal, ast.Try, ast.FunctionDef, ast.ClassDef)


class Recorder:
    """The lines each frame of the package runs, and the line that
    follows each one in the same frame (None where the frame returns)."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.ran = defaultdict(set)  # file -> lines
        self.after = defaultdict(set)  # file -> {(line, next line or None)}
        self.wanted = {}  # code object -> traced?

    def trace(self, frame, event, arg):
        code = frame.f_code
        wanted = self.wanted.get(code)
        if wanted is None:
            wanted = self.wanted[code] = code.co_filename.startswith(self.prefix)
        if not wanted:
            return None
        ran, after = self.ran[code.co_filename], self.after[code.co_filename]
        prev = None

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                if prev is not None:
                    after.add((prev, line))
                prev = line
            elif event == "return":
                if prev is not None:
                    after.add((prev, None))
            elif event == "exception":
                prev = None
            return local

        return local


class TracerCheck:
    """A pytest plugin that fails the test after whose call
    ``sys.gettrace()`` is no longer ``trace``."""

    def __init__(self, trace):
        self.trace = trace

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = yield
        if call.when == "call" and sys.gettrace() is not self.trace:
            report.outcome = "failed"
            report.longrepr = (f"{item.nodeid} cleared the tracer: the tests after it "
                               "run untraced, so the report below is incomplete")
        return report


def run_tier1(recorder: Recorder) -> int:
    if any(name == "wordproblem" or name.startswith("wordproblem.") for name in sys.modules):
        raise SystemExit("wordproblem was imported before tracing began")
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the CLI tests' children import the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trace = recorder.trace
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                           plugins=[TracerCheck(trace)])
    finally:
        sys.settrace(None)
        threading.settrace(None)


def statements(tree: ast.AST):
    """Every statement that compiles to code, docstrings left out."""
    scopes = (ast.Module, ast.FunctionDef, ast.ClassDef)
    docstrings = {id(n.body[0]) for n in ast.walk(tree)
                  if isinstance(n, scopes) and ast.get_docstring(n, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, NO_CODE) \
                and id(node) not in docstrings:
            yield node


def head(node: ast.stmt) -> range:
    """The lines that run when the statement itself runs: a compound
    statement's header, a simple statement's whole span."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def report(recorder: Recorder) -> list:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran, after = recorder.ran[str(path)], recorder.after[str(path)]
        name = path.relative_to(ROOT)
        for node in sorted(statements(ast.parse(source)), key=lambda n: n.lineno):
            text = lines[node.lineno - 1].strip()
            if not ran.intersection(head(node)):
                out.append(f"{name}:{node.lineno}: never ran: {text}")
                continue
            if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
                continue
            test = range(node.test.lineno, node.test.end_lineno + 1)
            body = range(node.body[0].lineno, node.body[0].end_lineno + 1)
            ways = {nxt in body for line, nxt in after
                    if line in test and (nxt is None or nxt not in test)}
            if ways == {True}:
                out.append(f"{name}:{node.lineno}: always true: {text}")
            elif ways == {False}:
                out.append(f"{name}:{node.lineno}: always false: {text}")
    return out


def main() -> int:
    recorder = Recorder()
    status = run_tier1(recorder)
    print()
    for line in report(recorder):
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
