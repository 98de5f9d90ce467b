"""The golden CLI corpus: CLI calls whose outcomes are pinned by sha256.

``cli_corpus.json`` lists entries.  Each has a ``name``, the ``argv`` given
to ``hamholes.cli.main`` and its recorded outcome ``expect``, and may have:

- ``files``: input files, by name, as literal text;
- ``setup``: CLI calls run first in the same directory, which build inputs
  (``gen ... --out g.txt``, ``hamilton g.txt``); each must exit 0 or 2;
- ``stdin``: literal text for standard input.

The outcome is the exit code and the sha256 of stdout, stderr and every
file the call writes or rewrites.  ``tests/test_cli_corpus.py`` checks each
entry; ``tests/tools/regen_cli_corpus.py`` rewrites every ``expect``.

The ``experiment-n10-*`` and ``experiment-n12-*`` entries are the
benchmark's exact-workload experiments, with the default budget and with
``--budget`` 40 and 200, which turn most oracle cells into NA.  Their CSV
digests were recorded before the experiment's alpha-tilde column became a
threshold test, so they pin the NA cells of the exact scan.

The ``analyze-exact-cocktail20-*`` entries give the 20-vertex cocktail-party
graph budgets of 161 and 162: alpha and alpha-tilde pass under both, and the
connectivity search needs exactly 162 augmenting-path searches, so the first
trips its budget and the second prints kappa.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hamholes.cli import main

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _digests(root: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in root.iterdir()}


def run_entry(entry: dict) -> dict:
    """The outcome of one entry, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            for name, text in entry.get("files", {}).items():
                (root / name).write_text(text)
            for argv in entry.get("setup", ()):
                code, _, err = _call(argv, "")
                if code not in (0, 2):
                    raise RuntimeError(f"setup {argv} exited {code}: {err}")
            before = _digests(root)
            code, out, err = _call(entry["argv"], entry.get("stdin", ""))
            written = {
                name: sha
                for name, sha in sorted(_digests(root).items())
                if before.get(name) != sha
            }
        finally:
            os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _sha(out.encode()),
        "stderr": _sha(err.encode()),
        "files": written,
    }
