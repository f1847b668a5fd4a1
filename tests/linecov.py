"""An opt-in line-coverage report: a pytest plugin that lists each line of a
function under ``src/sleepscan`` that no collected test ran.

It loads only when named:

    PYTHONPATH=src:tests python -m pytest -p linecov

The plain suite neither collects nor loads it. A ``sys.settrace`` tracer
follows only frames whose code lies under the package, from before
``conftest.py`` loads, so imports and collection count, to the end of the
session. Work done in a subprocess
(a ``--jobs`` worker, a fresh interpreter) is not seen. A function line is a
line that a function's, lambda's or comprehension's own bytecode sits on;
module and class bodies run on import and are not listed.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

import sleepscan

_PACKAGE = Path(sleepscan.__file__).parent
_PREFIX = f"{_PACKAGE}{os.sep}"
_ran: dict[str, set[int]] = {}  # file -> lines a 'call' or 'line' event reached


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    lines = _ran.setdefault(filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local


def _function_lines(code) -> set[int]:
    """The lines of every function, lambda and comprehension nested in
    ``code``: the code objects with ``CO_OPTIMIZED``, which a module or class
    body lacks."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _function_lines(const)
    return lines


def _unrun() -> list[str]:
    missed = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        code = compile(path.read_bytes(), str(path), "exec")
        ran = _ran.get(str(path), set())
        missed += [f"{path.relative_to(_PACKAGE.parents[1])}:{line}"
                   for line in sorted(_function_lines(code) - ran)]
    return missed


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before conftest.py imports the package's modules: a module-level
    # comprehension runs once, on import
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = _unrun()
    terminalreporter.section("function lines no test ran")
    for line in missed:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(missed)} line(s)")
