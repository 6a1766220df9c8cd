"""List the lines of src/roundsurgery that a pytest run never executes.

The standard library's sys.settrace is the only tracer used, so nothing
needs installing: the script traces every frame of the package's modules
(threads included), runs pytest in this process with the arguments given,
and then lists, per module, each line that compiles to code but never ran,
with its text.  A module's lines are read off its compiled code objects
(co_lines), so blank lines, comments and docstrings are never listed.  A
traced run takes several times as long as an untraced one.

    PYTHONPATH=src python tests/line_coverage.py [--report=FILE] [PYTEST_ARGS...]

The list goes to standard output after pytest's, or is appended to FILE as
markdown.  The script exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roundsurgery"


def _code_lines(path: Path) -> set[int]:
    """The line numbers that path's compiled code objects run."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _tracer(executed: dict[str, set[int]]):
    """A global trace function that records, in executed, the lines run by
    frames of the package's modules, keyed by absolute path; frames of any
    other file are not traced line by line."""
    package = str(PACKAGE) + os.sep
    files: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = executed.setdefault(path, set()) if path.startswith(package) else None
        lines = files[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def _report(executed: dict[str, set[int]]) -> str:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(_code_lines(path) - executed.get(str(path), set()))
        text = path.read_text().splitlines()
        out.append(f"{path.relative_to(PACKAGE.parent.parent)}: {len(missing)} lines not run")
        out += [f"  {n}: {text[n - 1].strip()}" for n in missing]
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    report = None
    if argv and argv[0].startswith("--report="):
        report, argv = argv[0].partition("=")[2], argv[1:]
    executed: dict[str, set[int]] = {}
    trace = _tracer(executed)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if report is None:
        print(_report(executed), end="")
    else:
        with open(report, "a") as f:
            f.write("unexecuted src lines under the tier-1 tests:\n\n```\n" + _report(executed) + "```\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
