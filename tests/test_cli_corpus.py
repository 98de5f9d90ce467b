"""Every golden CLI call still gives its recorded exit code, stdout, stderr
and output files (see clicorpus.py for the entry format)."""

import pytest

from clicorpus import load, run_entry

ENTRIES = load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_call_matches_its_golden_outcome(entry):
    assert run_entry(entry) == entry["expect"]
