"""Line coverage of the lamsym package by a pytest run, with the standard
library alone: prints each statement of src/lamsym that the run never
executes, as `path:line: source`, then a count.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

With no arguments it runs the whole suite (tier 1).  The tracer holds the
frames it sees, so the two tests that count reference cycles with the
collector fail under it; they are deselected, and the run says so.  The
statements are the lines of the package's compiled code objects, so a
docstring, a comment or a line that continues a statement is never listed.
"""

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lamsym"

# they assert that gc.collect() finds no cycle, and traced frames make one
CYCLE_TESTS = (
    "tests/test_expr.py::test_compiling_leaves_no_reference_cycle",
    "tests/test_numeric.py::test_generated_functions_leave_no_reference_cycle",
)


def statements(path: Path) -> set:
    """The line numbers of every code object compiled from path."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a RESUME
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    hit = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)   # the call event: a def line or a lambda's

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    root = Path(__file__).resolve().parents[1]
    args = argv or [str(root / "tests")]
    args += ["-q", "-p", "no:cacheprovider"] + [f"--deselect={t}" for t in CYCLE_TESTS]
    print(f"deselected under tracing: {', '.join(CYCLE_TESTS)}")
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path) - hit[name]):
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
