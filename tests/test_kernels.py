"""The kernels' search orders, pinned, and the hole search against a brute
force that shares no code with it."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusutil import random_graphs
from hamholes._kernels import _pure
from hamholes._kernels._pure import EXHAUSTED, FOUND
from hamholes.errors import BudgetExceededError
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    petersen_graph,
)
from hamholes.holes import BipartiteHole, has_bipartite_hole
from hamholes.oracle import (
    DEFAULT_BUDGET,
    WorkBudget,
    exists_edge_disjoint_hc_exact,
    is_hamiltonian_exact,
)


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


def _first_holes(g, a):
    """For each b, the first a-subset X of ``combinations(range(n), a)``
    with |V \\ (X ∪ N(X))| >= b, as a bitmask; b runs over 0..n - a."""
    n = g.n
    firsts = {}
    for x in combinations(range(n), a):
        covered = set(x).union(*map(g.neighbors, x))
        for b in range(n - len(covered) + 1):
            firsts.setdefault(b, sum(1 << v for v in x))
    return [firsts.get(b) for b in range(n - a + 1)]


def _assert_hole_search_matches(g, a):
    adj = list(g.adj_bits)
    for b, want in enumerate(_first_holes(g, a)):
        assert _pure.hole_search(adj, g.n, a, b) == want, (g, a, b)


def test_hole_search_matches_brute_force():
    for g in _cases():
        for a in range(min(3, g.n) + 1):
            _assert_hole_search_matches(g, a)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, on in zip(pairs, flags) if on])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_hole_search_matches_brute_force_on_every_split(g):
    for a in range(g.n + 1):
        _assert_hole_search_matches(g, a)


def test_deep_hole_search_needs_no_recursion():
    # X has 1200 vertices, so a search with one frame per picked vertex
    # would pass the interpreter's recursion limit.
    hole = has_bipartite_hole(Graph(2400), 1200, 1200, budget=10**1000)
    assert hole == BipartiteHole(tuple(range(1200)), tuple(range(1200, 2400)))


def test_searches_on_70_vertices():
    # Adjacency rows wider than a machine word.
    g = gnp_graph(70, 0.3, seed=4)
    for a in (1, 2):
        _assert_hole_search_matches(g, a)
    dense = gnp_graph(70, 0.9, seed=5)
    ok, cycle = is_hamiltonian_exact(dense)
    assert ok and set(cycle.order) == set(range(70))
