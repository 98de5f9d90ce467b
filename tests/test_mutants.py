"""The mutation catalogue stays applicable: every entry's text is in its file
exactly once, so tests/tools/mutants.py can still make the mutation."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_names_are_unique():
    names = [e["name"] for e in ENTRIES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_mutant_applies_once(entry):
    assert (ROOT / entry["file"]).read_text().count(entry["old"]) == 1
    assert entry["new"] != entry["old"]
    for test in entry["tests"]:
        assert (ROOT / test.split("::")[0]).is_file(), test
