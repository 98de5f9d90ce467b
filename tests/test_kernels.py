"""The pure kernels' search order, pinned, and the compiled kernels against
the pure ones, bit for bit: the session builds the shipped ``_speedups.c``
into a temporary directory wherever a C compiler exists."""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from corpusutil import random_graphs
from hamholes import _kernels
from hamholes._kernels import _pure
from hamholes._kernels._pure import EXHAUSTED, FOUND
from hamholes.errors import BudgetExceededError
from hamholes.graph import (
    bipartite_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    petersen_graph,
)
from hamholes.oracle import (
    DEFAULT_BUDGET,
    WorkBudget,
    exists_edge_disjoint_hc_exact,
    is_hamiltonian_exact,
)

ROOT = Path(__file__).resolve().parent.parent
KERNEL_DIR = ROOT / "src" / "hamholes" / "_kernels"
SPEEDUPS = "hamholes._kernels._speedups"


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """The compiled backend, built from the shipped ``.c`` by ``setup.py``."""
    if _c_compiler() is None:
        pytest.skip("no C compiler to build the compiled backend")
    out = tmp_path_factory.mktemp("speedups")
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    name = "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    path = out / "lib" / "hamholes" / "_kernels" / name
    # The extension is optional, so setup.py exits 0 even when its compile fails.
    if build.returncode or not path.exists():
        pytest.fail(f"building the extension failed:\n{build.stdout}{build.stderr}")
    spec = importlib.util.spec_from_file_location(SPEEDUPS, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases():
    graphs = [
        complete_graph(1),
        complete_graph(6),
        cycle_graph(9),
        bipartite_graph(3, 4),
        petersen_graph(),
    ]
    graphs += random_graphs(8, 25, seed=71)
    graphs += random_graphs(13, 15, seed=72)
    graphs += random_graphs(20, 6, seed=73, p=0.3)
    return graphs


# (status, nodes, order) of the pure Hamilton search on each of _cases() at
# budget 10**7, which none of them reaches.  They fix its visit order and
# node count.
HAMILTON_PINS = [
    (EXHAUSTED, 1, None),
    (FOUND, 6, "0 1 2 3 4 5"),
    (FOUND, 9, "0 1 2 3 4 5 6 7 8"),
    (EXHAUSTED, 109, None),
    (EXHAUSTED, 142, None),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 18, None),
    (FOUND, 8, "0 1 2 3 4 5 6 7"),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (FOUND, 9, "0 1 4 2 3 5 7 6"),
    (FOUND, 20, "0 1 2 7 6 5 3 4"),
    (FOUND, 9, "0 1 2 4 6 5 3 7"),
    (FOUND, 10, "0 3 5 1 4 2 6 7"),
    (FOUND, 8, "0 2 1 3 4 6 5 7"),
    (FOUND, 9, "0 2 1 3 5 7 4 6"),
    (EXHAUSTED, 1, None),
    (FOUND, 8, "0 1 3 2 4 5 6 7"),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 130, None),
    (FOUND, 8, "0 1 2 3 4 5 6 7"),
    (FOUND, 8, "0 1 2 3 5 6 4 7"),
    (EXHAUSTED, 1, None),
    (FOUND, 8, "0 1 2 3 4 5 6 7"),
    (FOUND, 12, "0 1 2 3 5 4 6 7"),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (FOUND, 14, "0 3 1 2 4 5 6 9 10 12 8 7 11"),
    (EXHAUSTED, 1, None),
    (EXHAUSTED, 1, None),
    (FOUND, 13, "0 1 2 3 4 5 6 7 8 9 10 11 12"),
    (EXHAUSTED, 1, None),
    (FOUND, 23, "0 4 6 7 9 3 1 5 8 10 12 2 11"),
    (EXHAUSTED, 1, None),
    (FOUND, 14, "0 1 3 2 4 5 6 7 8 9 10 12 11"),
    (FOUND, 13, "0 1 2 4 3 5 6 7 8 9 10 12 11"),
    (EXHAUSTED, 1, None),
    (FOUND, 13, "0 1 2 3 4 5 6 7 8 9 10 12 11"),
    (EXHAUSTED, 90, None),
    (FOUND, 13, "0 1 2 3 4 5 6 7 8 9 10 11 12"),
    (FOUND, 23, "0 3 8 4 11 12 1 7 9 2 10 6 5"),
    (FOUND, 147, "0 1 2 7 9 4 3 8 5 10 6 19 18 17 15 13 11 14 16 12"),
    (FOUND, 45, "0 10 3 2 4 6 1 5 8 16 15 11 13 14 9 7 17 19 18 12"),
    (FOUND, 1071, "0 7 2 1 5 6 13 11 19 14 10 3 15 12 16 18 4 9 8 17"),
    (FOUND, 33, "0 4 6 7 9 11 8 17 12 3 2 16 19 5 10 1 15 13 18 14"),
    (EXHAUSTED, 1, None),
    (FOUND, 42, "0 1 2 4 5 15 19 7 9 18 10 12 17 8 14 16 11 6 3 13"),
]


def test_pure_hamilton_search_pinned():
    for g, (status, nodes, order) in zip(_cases(), HAMILTON_PINS, strict=True):
        adj = list(g.adj_bits)
        done = (status, order and [int(v) for v in order.split()], nodes)
        for budget in (10**7, 25, 3):
            # A search that needs more nodes than its budget stops at budget + 1.
            want = done if nodes <= budget else (_pure.OVER_BUDGET, None, budget + 1)
            assert _pure.hamilton_cycle_search(adj, g.n, budget) == want, (g, budget)


# (size, nodes, best at budget 20, best at budget 2) of the pure independence
# search on each of _cases(), recorded from the recursive search it replaced.
# A search that runs out of budget reports the best size found so far, so
# the last two fix how far its visit order has got by then.
INDEPENDENCE_PINS = [
    (1, 3, 1, 1), (1, 11, 1, 1), (4, 29, 4, 0), (4, 19, 4, 0),
    (4, 33, 4, 0), (3, 19, 3, 0), (5, 21, 5, 0), (4, 17, 4, 0),
    (5, 23, 5, 0), (4, 17, 4, 1), (2, 17, 2, 1), (6, 23, 6, 0),
    (6, 29, 5, 0), (5, 21, 5, 0), (2, 19, 2, 0), (3, 17, 3, 1),
    (3, 17, 3, 0), (3, 19, 3, 0), (2, 15, 2, 0), (2, 17, 2, 1),
    (3, 25, 3, 0), (2, 15, 2, 1), (4, 21, 4, 0), (4, 23, 4, 0),
    (2, 17, 2, 1), (3, 19, 3, 1), (5, 15, 5, 0), (2, 15, 2, 1),
    (2, 15, 2, 1), (5, 27, 4, 0), (8, 55, 8, 0), (4, 33, 4, 0),
    (11, 43, 10, 0), (9, 45, 7, 0), (3, 29, 3, 0), (8, 53, 7, 0),
    (4, 41, 4, 0), (10, 29, 10, 0), (3, 27, 3, 1), (3, 27, 3, 0),
    (8, 61, 7, 0), (2, 27, 2, 1), (7, 39, 6, 0), (2, 27, 1, 1),
    (5, 43, 5, 0), (7, 139, 5, 0), (8, 151, 5, 0), (7, 161, 5, 0),
    (7, 145, 6, 0), (7, 111, 5, 0), (8, 129, 6, 0),
]


def test_pure_independence_pinned():
    for g, (size, nodes, best20, best2) in zip(_cases(), INDEPENDENCE_PINS, strict=True):
        adj = list(g.adj_bits)
        for budget, best in ((DEFAULT_BUDGET.max_probes, size), (20, best20), (2, best2)):
            if nodes <= budget:
                want = (FOUND, size, nodes)
            else:
                want = (_pure.OVER_BUDGET, best, budget + 1)
            assert _pure.independence_number(adj, g.n, budget) == want, (g, budget)


@pytest.mark.parametrize(
    "g,least,answer",
    [
        (complete_graph(5), 10, True),
        (bipartite_graph(4, 4), 16, True),
        (gnp_graph(9, 0.7, seed=6), 251, True),
        (gnp_graph(8, 0.6, seed=242), 1909, False),
    ],
    ids=["K5", "K44", "gnp9", "gnp8-no"],
)
def test_edge_disjoint_least_budget(g, least, answer):
    # The least budget pins the node count of the nested cycle enumeration
    # plus the single-cycle searches under it.
    assert exists_edge_disjoint_hc_exact(g, 2, WorkBudget(least)) is answer
    with pytest.raises(BudgetExceededError) as exc:
        exists_edge_disjoint_hc_exact(g, 2, WorkBudget(least - 1))
    message = f"edge-disjoint search exceeded {least - 1} node expansions"
    assert str(exc.value) == message


def test_long_cycle_needs_no_recursion():
    ok, cycle = is_hamiltonian_exact(cycle_graph(1500))
    assert ok and sorted(cycle.order) == list(range(1500))


class PureKernelCalled(Exception):
    pass


def test_backend_is_compiled_here(speedups, monkeypatch):
    def refuse(*args):
        raise PureKernelCalled

    for kernel in ("hole_search", "hamilton_cycle_search", "independence_number"):
        monkeypatch.setattr(_pure, kernel, refuse)
    before = _kernels.BACKEND
    sys.modules[SPEEDUPS] = speedups
    try:
        importlib.reload(_kernels)
        assert _kernels.BACKEND == "cython"
        # The pure kernels refuse, so these calls return only from the built one.
        for n in (5, _kernels._NATIVE_MAX_N):
            adj = list(gnp_graph(n, 0.5, seed=n).adj_bits)
            _kernels.hole_search(adj, n, 2, 2)
            _kernels.hamilton_cycle_search(adj, n, 50)
            _kernels.independence_number(adj, n, 50)
        n = _kernels._NATIVE_MAX_N + 1
        with pytest.raises(PureKernelCalled):
            _kernels.hole_search(list(gnp_graph(n, 0.5, seed=n).adj_bits), n, 2, 2)
    finally:
        del sys.modules[SPEEDUPS]
        importlib.reload(_kernels)
    assert _kernels.BACKEND == before


def test_hole_search_agrees(speedups):
    for g in _cases():
        adj = list(g.adj_bits)
        for a in range(1, 4):
            for b in range(1, 5):
                if a + b > g.n:
                    continue
                got_p = _pure.hole_search(adj, g.n, a, b)
                got_c = speedups.hole_search(adj, g.n, a, b)
                assert got_p == got_c, (g, a, b)


def test_hamilton_search_agrees(speedups):
    for g in _cases():
        adj = list(g.adj_bits)
        for budget in (10**7, 25, 3):
            got_p = _pure.hamilton_cycle_search(adj, g.n, budget)
            got_c = speedups.hamilton_cycle_search(adj, g.n, budget)
            assert got_p == got_c, (g, budget)


def test_independence_agrees(speedups):
    for g in _cases():
        adj = list(g.adj_bits)
        for budget in (10**7, 20, 2):
            got_p = _pure.independence_number(adj, g.n, budget)
            got_c = speedups.independence_number(adj, g.n, budget)
            assert got_p == got_c, (g, budget)


def test_status_codes_share_values(speedups):
    for name in ("FOUND", "EXHAUSTED", "OVER_BUDGET"):
        assert getattr(_pure, name) == getattr(speedups, name)


def test_dispatch_large_n_uses_pure_fallback():
    # words wider than 64 bits only exist on the pure path; the dispatcher
    # must still answer correctly there
    from hamholes.holes import has_bipartite_hole

    g = gnp_graph(70, 0.3, seed=4)
    assert has_bipartite_hole(g, 1, 1) is not None or g.m == 70 * 69 // 2
    dense = gnp_graph(70, 0.9, seed=5)
    ok, cycle = is_hamiltonian_exact(dense)
    assert ok and set(cycle.order) == set(range(70))


def test_shipped_c_matches_pyx():
    # Cython quotes each .pyx line it compiles above the C it generated, so
    # a .c left stale after an edit to the .pyx quotes the old line.
    pyx = (KERNEL_DIR / "_speedups.pyx").read_text().splitlines()
    c_text = (KERNEL_DIR / "_speedups.c").read_text()
    mark = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(r'/\* "hamholes/_kernels/_speedups\.pyx":(\d+)\n(.*?)\*/', c_text, re.S)
    assert blocks
    for line_no, body in blocks:
        (marked,) = [line for line in body.splitlines() if line.endswith(mark)]
        assert marked.removeprefix(" * ").removesuffix(mark) == pyx[int(line_no) - 1], line_no
