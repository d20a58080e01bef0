"""Statement gate: every statement under src/laurentfft/ must run in tier-1.

Run from the repository root:

    python tests/statements.py

The script runs the tier-1 tests in this process, with a tracer set by
sys.settrace and threading.settrace that records each line executed in a file
under src/laurentfft/.  It takes the first line of each statement in those
files from ast and names every statement whose first line never ran.  The
exit status is nonzero if a test fails or if any statement never ran.  The
tracer uses only the standard library; the tests run under pytest, as tier-1
does.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laurentfft"


def _statements(path: Path):
    """(first line, its source text) of each statement in path that compiles
    to code: a bare constant, such as a docstring, compiles to none."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        yield node.lineno, lines[node.lineno - 1].strip()


def _trace_tests(files) -> tuple[int, set]:
    """pytest's exit status on tests/, and the (file, line) pairs it ran in files."""
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    status, ran = _trace_tests(files)
    missed = [f"{path.relative_to(ROOT)}:{lineno}: {text}"
              for name, path in files.items()
              for lineno, text in sorted(_statements(path)) if (name, lineno) not in ran]
    for where in missed:
        print(f"NEVER RUN: {where}")
    print(f"{len(missed)} statements never ran; tests exit {status}")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main())
