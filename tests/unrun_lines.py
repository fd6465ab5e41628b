"""List the executable lines of ``src/heterosim`` that the test suite never runs.

Run from the repository root, with any pytest arguments after the name:

    python tests/unrun_lines.py [-q] [pytest args]

It installs ``sys.settrace`` and ``threading.settrace`` before heterosim is
imported, runs the suite in this process through ``pytest.main``, then
prints each file's unrun lines and the total as ``unrun: N of M executable
lines``. A line is executable when a code object compiled from the file maps
an instruction to it (``co_lines()``). Code that only a child process runs
counts as unrun. The exit status is pytest's; the listing gates nothing.
Only the standard library and pytest are used, and tracing makes the suite
several times slower.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "heterosim"


def executable_lines(path: Path) -> set[int]:
    """Every line an instruction of the file's code objects maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = os.path.realpath(filename).startswith(prefix)
            ran.setdefault(filename, set())
        if not ours[filename]:
            return None
        ran[filename].add(frame.f_lineno)  # a module frame starts at line 0
        return local

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        import pytest

        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    seen: dict[str, set[int]] = {}
    for filename, lines in ran.items():
        if ours[filename]:
            seen.setdefault(os.path.realpath(filename), set()).update(lines)
    unrun_total = executable_total = 0
    for path in sorted(SRC.glob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - seen.get(os.path.realpath(path), set()))
        executable_total += len(executable)
        unrun_total += len(unrun)
        if unrun:
            print(f"{path.name}: {', '.join(map(str, unrun))}")
    print(f"unrun: {unrun_total} of {executable_total} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
