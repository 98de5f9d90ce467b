"""Every golden CLI call still gives its recorded exit code, stdout, stderr
and output files (see clicorpus.py for the entry format), under this Python
and under every other supported one that starts here."""

import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import hamholes
from clicorpus import load, run_entry

ENTRIES = load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_cli_call_matches_its_golden_outcome(entry):
    assert run_entry(entry) == entry["expect"]


# Prints "major minor executable"; 2.7 and 3.x alike can run it.
PROBE = (
    "import sys; sys.stdout.write('%d %d %s' % "
    "(sys.version_info[0], sys.version_info[1], sys.executable))"
)
# Prints the name of each entry whose outcome differs.
MISMATCHES = (
    "import clicorpus\n"
    "for e in clicorpus.load():\n"
    "    if clicorpus.run_entry(e) != e['expect']:\n"
    "        print(e['name'])\n"
)


def _probe(exe: str) -> str:
    try:
        out = subprocess.run(
            [exe, "-c", PROBE], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return "" if out.returncode else out.stdout


def _other_pythons() -> dict[tuple[int, int], str]:
    """One interpreter per minor version >= 3.10, other than the running
    one's: ``python3.X`` on PATH first, then pyenv's installed versions.
    A candidate counts only if it starts and reports its version (a pyenv
    shim with no version selected exits nonzero); it is then named by its
    own ``sys.executable``."""
    candidates = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(folder):
            candidates += [
                os.path.join(folder, name)
                for name in sorted(os.listdir(folder))
                if re.fullmatch(r"python3\.\d+", name)
            ]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True)
        versions = Path(root.stdout.strip(), "versions")
        if root.returncode == 0 and versions.is_dir():
            candidates += sorted(str(p) for p in versions.glob("*/bin/python"))
    candidates = list(dict.fromkeys(map(os.path.realpath, candidates)))
    found = {}
    with ThreadPoolExecutor(4) as pool:
        for out in pool.map(_probe, candidates):
            m = re.fullmatch(r"(\d+) (\d+) (.+)", out)
            if m:
                version = (int(m[1]), int(m[2]))
                if version >= (3, 10) and version != sys.version_info[:2]:
                    found.setdefault(version, m[3])
    return found


def test_corpus_under_every_other_supported_python():
    # The package promises Python >= 3.10.  Each other interpreter runs the
    # whole corpus in its own process, with the standard library only (-S
    # skips site-packages; clicorpus.py needs nothing else).
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no Python >= 3.10 other than this one starts here")
    tests = Path(__file__).resolve().parent
    src = Path(hamholes.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tests}")

    def run(exe):
        return subprocess.run(
            [exe, "-B", "-S", "-c", MISMATCHES],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    with ThreadPoolExecutor(len(pythons)) as pool:
        runs = dict(zip(pythons, pool.map(run, pythons.values())))
    for version, out in runs.items():
        where = f"Python {version[0]}.{version[1]} ({pythons[version]})"
        assert out.returncode == 0, f"{where}: {out.stderr}"
        assert out.stdout == "", f"{where} mismatches: {out.stdout.split()}"
