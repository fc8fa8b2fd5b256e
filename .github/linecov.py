"""A pytest plugin that fails the run when a statement of src/eaqmds never runs.

    PYTHONPATH=src:.github python -m pytest -p linecov

A stdlib line tracer (``sys.settrace``), installed before the conftest
files load and so before any test module imports the package, records
the lines each frame of src/eaqmds runs.  A statement counts as run when one
of its lines ran: any line of a simple statement, or a line of a compound
statement's header (its decorators down to the line before its body).
Exempt are docstrings, ``raise AssertionError`` statements (the "cannot
happen" guards) and the body of ``if __name__ == "__main__":``.  At the
end of the session the terminal summary names each statement that never
ran as file:line, and the run fails if there is one.  Meant for the whole
suite: a subset of the tests leaves statements unrun by design.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eaqmds"

_ran = {str(path): set() for path in SRC.glob("*.py")}  # file -> lines run
_files = {}                                              # co_filename -> set or None
_unrun = []


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        _files[name] = _ran.get(os.path.realpath(name))
    lines = _files[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def _exempt(node):
    if isinstance(node, ast.Expr):                       # a docstring
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return False


def _statements(body):
    """(first line, lines that show it ran) for each statement of ``body``
    and of the blocks nested in it, but the exempt ones."""
    for node in body:
        if _exempt(node):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        inner = getattr(node, "body", None)
        last = inner[0].lineno - 1 if inner else node.end_lineno
        yield first, range(first, max(first, last) + 1)
        if _is_main_guard(node):
            continue
        blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
        blocks += [handler.body for handler in getattr(node, "handlers", [])]
        for block in blocks:
            yield from _statements(block)


def unrun_statements():
    """``file:line`` of each statement of src/eaqmds that never ran."""
    out = []
    for path, lines in sorted(_ran.items()):
        tree = ast.parse(Path(path).read_text(), path)
        out += [f"{Path(path).name}:{first}" for first, span in _statements(tree.body)
                if lines.isdisjoint(span)]
    return out


def pytest_load_initial_conftests():
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _unrun[:] = unrun_statements()
    if _unrun and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statements of src/eaqmds never run")
    for name in _unrun:
        terminalreporter.write_line(name)
    terminalreporter.write_line(f"{len(_unrun)} statements never run")
