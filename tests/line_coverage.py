"""List the lines of src/satwiretap that the tier-1 tests never execute.

coverage.py is not a dependency, so this script runs the tier-1 suite
in-process under a line tracer (sys.settrace, and threading.settrace for
pool threads) that records only frames whose code lives in
src/satwiretap/*.py. A module's executable lines are the line numbers that
co_lines() reports for its code object and every code object nested in it.
Every executable line that never ran is printed as path:line.

Exit status: 1 if any line outside an `if __name__ == "__main__":` body
never ran, else 0, whatever the tests themselves report (the suite has one
test that fails by design). Extra arguments go to pytest.

Run from anywhere: python3 tests/line_coverage.py [pytest args]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "satwiretap"


def executable_lines(path: Path) -> set:
    """Line numbers that the compiled module's code objects can execute."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main_guard_lines(path: Path) -> set:
    """Lines inside a module-level `if __name__ == "__main__":` body."""
    lines = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        # ast.unparse writes the string with single quotes however it was typed
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main(argv: list) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}
    seen = {}  # code object -> its file's hit set, or None outside the package

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen[code] = hits.get(os.path.realpath(code.co_filename))
        lines = seen[code]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)  # some tests read repository files by relative path
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    failing = False
    for name, path in files.items():
        guard = main_guard_lines(path)
        for line in sorted(executable_lines(path) - hits[name]):
            note = "  (__main__ guard)" if line in guard else ""
            print(f"{path.relative_to(ROOT)}:{line}{note}")
            failing |= line not in guard
    print(f"pytest exit status {int(status)}; unexecuted lines outside the __main__ guard: "
          f"{'yes' if failing else 'none'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
