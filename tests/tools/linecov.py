"""List the executable lines of src/hamholes that the tests, or the
benchmark's workloads, never run.

Run from the repository root:

    PYTHONPATH=src python tests/tools/linecov.py [pytest args]
    PYTHONPATH=src python tests/tools/linecov.py --bench

It runs its traffic in this process under a ``sys.settrace`` tracer that
records line events only in files under src/hamholes, then prints
``path:line: source`` for each line that has bytecode but never ran.

- By default the traffic is pytest, on all of tests/ unless pytest args are
  given.  It takes minutes, so it is a tool, not a test.
- With ``--bench`` it is each workload of perfbench/workloads.py at seed 3,
  run through ``hamholes.cli.main`` in a temporary directory: ``setup()``,
  the warm-up ``analyze`` of ``write_warmup_graph`` and one ``session()``.
  Each exit code must be one the op allows.  Tracing starts before
  ``hamholes`` is imported, so module-level lines count.

Lines run in worker processes are not seen.  It needs nothing beyond the
standard library and pytest.
"""

import io
import os
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "hamholes"
BENCH_SEED = 3
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


def _bench() -> int:
    """Run every benchmark workload once; 1 if an op exits outside its
    allowed codes."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from hamholes.cli import main as cli_main

    status = 0
    cwd = os.getcwd()
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            os.chdir(work)
            try:
                wl = cls(BENCH_SEED, work, workloads.Graphs())
                wl.setup()
                warm = ["analyze", str(workloads.write_warmup_graph(work))]
                ops = [(warm, {0})] + [(op.argv, op.exits) for op in wl.session("s0")]
                for argv, exits in ops:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        code = cli_main(list(argv))
                    if code not in exits:
                        print(f"{name}: {' '.join(argv)} exited {code}, expected one of "
                              f"{sorted(exits)}", file=sys.stderr)
                        status = 1
            finally:
                os.chdir(cwd)
    return status


def main(args: list[str]) -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        if args == ["--bench"]:
            status = _bench()
        else:
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
