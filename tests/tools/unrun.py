"""List the statements of src/gossip_learning that the tier-1 suite never runs.

Run from anywhere as

    python tests/tools/unrun.py [extra pytest arguments]

It installs a line tracer (sys.settrace and threading.settrace) before the
package is first imported, runs the tier-1 suite in this process with
pytest.main, and prints `file:line: statement` for each statement of the
package that no traced line reached. A statement counts as run when any line
it spans was traced, so a compound statement counts once its header or any
statement inside it ran. Docstrings are not statements here, and a decorated
definition is reported at its first decorator's line. Code that only a
subprocess runs cannot be traced; the four such lines are allowed below.

Exits 1 if a statement outside the allowlist is unrun, with pytest's own
status if the suite did not pass, and 0 otherwise. Its name has no test_
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "gossip_learning"

# tier-1's pytest arguments (ROADMAP.md)
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]

# (file, statement) pairs that only a subprocess runs: `python -m
# gossip_learning` and the gossip-learn console script
ALLOWED = {
    ("__main__.py", "from .cli import entry"),
    ("__main__.py", "entry()"),
    ("cli.py", "sys.exit(main())"),
    ("cli.py", "entry()"),
}

_ran: set[tuple[str, int]] = set()
_files = {str(p) for p in PACKAGE.glob("*.py")}


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Trace the lines of the package's frames only."""
    return _trace_lines(frame, event, arg) if frame.f_code.co_filename in _files else None


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(tree: ast.Module):
    """(first line, last line) of each statement in tree, docstrings left
    out; a decorated definition starts at its first decorator."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, [])
            if not isinstance(block, list):
                continue  # the body of a lambda or a conditional expression
            for k, stmt in enumerate(block):
                if isinstance(stmt, ast.ExceptHandler):
                    continue  # its body is walked as a block of its own
                if k == 0 and field == "body" and _is_docstring(stmt) and isinstance(
                        node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                yield first, stmt.end_lineno


def unrun() -> list[tuple[Path, int, str]]:
    """(file, line, statement text) of each statement no traced line reached."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for first, last in sorted(set(statements(ast.parse(text, str(path))))):
            if not any((str(path), ln) in _ran for ln in range(first, last + 1)):
                found.append((path, first, lines[first - 1].strip()))
    return found


def main(argv: list[str]) -> int:
    # the suite's subprocesses import from src, as under tier-1's PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    import pytest

    try:
        status = int(pytest.main(TIER1_ARGS + argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = unrun()
    for path, line, stmt in found:
        print(f"{path.relative_to(ROOT)}:{line}: {stmt}")
    left = [f for f in found if (f[0].name, f[2]) not in ALLOWED]
    print(f"{len(found)} unrun statement(s), {len(left)} outside the allowlist")
    return status or (1 if left else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
