"""Rewrite every recorded outcome in tests/cli_corpus.json.

Run from the repository root:

    PYTHONPATH=src python tests/tools/regen_cli_corpus.py

It runs each entry as tests/test_cli_corpus.py does, stores the outcome as
the entry's ``expect`` and prints the name of every entry whose outcome
changed.  A change that claims byte-identical output changes none.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from clicorpus import CORPUS, load, run_entry  # noqa: E402


def main() -> int:
    entries = load()
    for entry in entries:
        got = run_entry(entry)
        if entry.get("expect") != got:
            print(entry["name"])
        entry["expect"] = got
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
