"""Re-run the mutation checks catalogued in tests/mutants.json.

Run from the repository root:

    python tests/tools/mutants.py [NAME ...]

Each entry names a file under src/, an exact text in it, the text that
replaces it, the tests expected to catch the change and, for a mutation
that no test can catch, a ``survivor`` reason.  For each entry (or only
the named ones) the script copies src/ to a temporary directory, applies
the replacement there and runs pytest on the entry's tests plus
tests/test_cli_corpus.py, with that copy first on PYTHONPATH.  A mutation
is caught when pytest exits 1 (a test failed) or 2 (collection failed), or
when the run outlasts TIMEOUT_S (a mutation that lifts a guard can make a
call run for many minutes; pytest and every process it started are then
killed); any other nonzero exit stops the script with the entry's name.
The working tree is never edited.

It prints one line per entry and a count of caught and surviving
mutations, and exits 1 when a mutation survives without a reason or one
with a reason is caught.  Each entry takes a few seconds to a minute.  It
needs nothing beyond the standard library and pytest.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = ROOT / "tests" / "mutants.json"
CORPUS_TEST = "tests/test_cli_corpus.py"
# The slowest entry's run takes about a minute.
TIMEOUT_S = 300


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text())


def verdict(entry: dict) -> str:
    """The entry's outcome: "caught" when pytest fails on its tests with the
    mutation applied, "caught (timeout)" when the run outlasts TIMEOUT_S,
    else "SURVIVED"."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
        )
        target = Path(tmp) / entry["file"]
        text = target.read_text()
        if text.count(entry["old"]) != 1:
            raise SystemExit(f"{entry['name']}: old text not once in {entry['file']}")
        target.write_text(text.replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        tests = [str(ROOT / t) for t in [*entry["tests"], CORPUS_TEST]]
        # Run from the temporary directory, so hypothesis keeps its example
        # database there and not in the working tree.  pytest leads its own
        # session, so a timeout kills every process a test started with it.
        with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--rootdir", str(ROOT), *tests],
            cwd=tmp,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as run:
            try:
                stdout, stderr = run.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                return "caught (timeout)"
    # 1: a test failed; 2: collection failed, say on a broken import.  Any
    # other nonzero code (4, a usage error such as a test id that no longer
    # exists; 5, no tests collected) says nothing about the mutation.
    if run.returncode not in (0, 1, 2):
        print(stdout[-2000:], stderr[-2000:], sep="\n")
        raise SystemExit(f"{entry['name']}: pytest exited {run.returncode}")
    return "SURVIVED" if run.returncode == 0 else "caught"


def main(names: list[str]) -> int:
    entries = [e for e in load() if not names or e["name"] in names]
    counts = {"caught": 0, "survived": 0}
    unexpected = []
    for entry in entries:
        how = verdict(entry)
        hit = how != "SURVIVED"
        counts["caught" if hit else "survived"] += 1
        expected = "survivor" not in entry
        if hit != expected:
            unexpected.append(entry["name"])
        note = "" if hit == expected else "  (unexpected)"
        print(f"{how:8} {entry['name']}{note}", flush=True)
    print(f"{counts['caught']} caught, {counts['survived']} survived")
    if unexpected:
        print("unexpected:", " ".join(unexpected))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
