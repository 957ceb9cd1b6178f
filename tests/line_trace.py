"""List the statements of `src/ctxkit` that no tier-1 test executes.

Run from anywhere with `python tests/line_trace.py`; extra arguments go to
pytest (for example a test file, to trace that file alone). It runs the
tier-1 suite in this process under a `sys.settrace` line tracer that traces
only frames of `src/ctxkit` files, then prints each statement that never ran
as `file:line: text`, and a count. The standard library suffices, which is
why it exists: `coverage` is not a dependency.

Statements are found with `ast`. A statement ran when a line event fell on
one of its own lines: a simple statement's lines, or a compound statement's
header up to its body. Docstrings, other bare constants, `def` and `class`
lines, `global`/`nonlocal` and annotations without a value are left out, as
the interpreter runs no code for them or runs them at import. Code that runs
only in child processes, such as `cli.main` and the `__main__` block, which
the tests reach through `subprocess`, is listed too: the tracer sees this
process alone. Timing assertions may fail under the tracer; the listing
holds whatever the suite's outcome, whose exit code is printed with it.
Not collected by pytest, and not part of tier-1.
"""

from __future__ import annotations

import ast
import collections
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctxkit"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, range]:
    """Each traced statement's first line -> the lines a line event for it
    may fall on."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or `...`
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return out


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in process with args; (its exit code, file -> lines run)."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # the suite's rootdir, so its testpaths and pythonpath apply
    code, seen = trace_suite(argv)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, span in sorted(statements(path).items()):
            if ran.isdisjoint(span):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(*missed, sep="\n")
    print(f"{len(missed)} statements not executed in process; pytest exit code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
