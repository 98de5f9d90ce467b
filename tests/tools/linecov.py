"""List the executable lines of src/hamholes that the tests never run.

Run from the repository root:

    PYTHONPATH=src python tests/tools/linecov.py [pytest args]

It runs pytest in this process (by default on all of tests/) under a
``sys.settrace`` tracer that records line events only in files under
src/hamholes, then prints ``path:line: source`` for each line that has
bytecode but never ran.  Lines run in worker processes are not seen.  It
needs nothing beyond the standard library and pytest, and takes minutes,
so it is a tool, not a test.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "hamholes"
ran: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.abspath(name).startswith(str(SRC) + os.sep)
    if not _ours[name]:
        return None
    ran.add((name, frame.f_lineno))  # the def line, on a call
    return _local


def _lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _lines(const)
    return lines


def main(args: list[str]) -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran_abs = {(os.path.abspath(name), line) for name, line in ran}
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        # Line 0 holds the module's start-up instruction, never a line event.
        for line in sorted(_lines(compile(text, str(path), "exec")) - {0}):
            if (str(path), line) not in ran_abs:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
                missed += 1
    print(f"{missed} executable lines never ran", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
