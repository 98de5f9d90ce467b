"""The mutation catalogue stays applicable: every entry's text is in its file
exactly once, so tests/tools/mutants.py can still make the mutation, and
every test an entry names by ``path::name`` is still defined in that file.
README's list of expected survivors names exactly the entries that carry a
``survivor`` reason."""

import json
import re
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
        path, *names = test.split("::")
        assert (ROOT / path).is_file(), test
        for name in names:
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


def test_readme_lists_the_survivors():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"carry a `survivor` reason\s*\(([^)]*)\)", readme)
    assert listed, "README no longer lists the survivors"
    names = set(re.findall(r"`([^`]+)`", listed.group(1)))
    assert names == {e["name"] for e in ENTRIES if "survivor" in e}
