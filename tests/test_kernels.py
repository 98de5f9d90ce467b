"""The kernels' search orders, pinned, and the hole search against a brute
force that shares no code with it."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusutil import random_graphs
from hamholes._kernels import _pure
from hamholes._kernels._pure import EXHAUSTED, FOUND
from hamholes.errors import BudgetExceededError, _Budget
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    petersen_graph,
)
from hamholes.holes import (
    DEFAULT_BUDGET,
    BipartiteHole,
    _hole_side,
    has_bipartite_hole,
)
from hamholes.oracle import exists_edge_disjoint_hc_exact, is_hamiltonian_exact


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
    # Residual graphs, as the r = 2 oracle searches them: each G(12, 0.8)
    # sample minus its first Hamilton cycle.
    for g in random_graphs(12, 2, seed=76, p=0.8):
        first = _pure.hamilton_cycle_search(g.adj_bits, g.n, _Budget(10**7, "over"))
        graphs.append(g._remove_cycle(first[1]))
    graphs += random_graphs(10, 1, seed=78, p=0.3)
    return graphs


# (status, nodes, order) of the pure Hamilton search on each of _cases() at
# budget 10**7, which none of them reaches.  They fix its visit order and
# node count; the last three were recorded with the prune that re-tests
# every unvisited vertex at every node.
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
    (FOUND, 15, "0 3 1 4 2 5 8 7 11 6 10 9"),
    (FOUND, 45, "0 2 7 1 4 3 8 6 10 11 5 9"),
    (EXHAUSTED, 47, None),
]


def test_pure_hamilton_search_pinned():
    for g, (status, nodes, order) in zip(_cases(), HAMILTON_PINS, strict=True):
        adj = list(g.adj_bits)
        done = (status, order and [int(v) for v in order.split()], nodes)
        for limit in (10**7, 25, 3):
            budget = _Budget(limit, "over")
            if nodes <= limit:
                assert _pure.hamilton_cycle_search(adj, g.n, budget) == done, (g, limit)
            else:
                with pytest.raises(BudgetExceededError, match="^over$"):
                    _pure.hamilton_cycle_search(adj, g.n, budget)
            # A search that needs more nodes than its budget stops at budget + 1.
            assert budget.used == min(nodes, limit + 1), (g, limit)


# (size, nodes) of the pure independence search on each of _cases(),
# recorded from the recursive search it replaced (the last three from this
# search).
INDEPENDENCE_PINS = [
    (1, 3), (1, 11), (4, 29), (4, 19), (4, 33), (3, 19), (5, 21), (4, 17),
    (5, 23), (4, 17), (2, 17), (6, 23), (6, 29), (5, 21), (2, 19), (3, 17),
    (3, 17), (3, 19), (2, 15), (2, 17), (3, 25), (2, 15), (4, 21), (4, 23),
    (2, 17), (3, 19), (5, 15), (2, 15), (2, 15), (5, 27), (8, 55), (4, 33),
    (11, 43), (9, 45), (3, 29), (8, 53), (4, 41), (10, 29), (3, 27), (3, 27),
    (8, 61), (2, 27), (7, 39), (2, 27), (5, 43), (7, 139), (8, 151), (7, 161),
    (7, 145), (7, 111), (8, 129), (3, 27), (4, 27), (4, 27),
]


def test_pure_independence_pinned():
    for g, (size, nodes) in zip(_cases(), INDEPENDENCE_PINS, strict=True):
        adj = list(g.adj_bits)
        for limit in (DEFAULT_BUDGET, 20, 2):
            budget = _Budget(limit, "over")
            if nodes <= limit:
                want = (FOUND, size, nodes)
                assert _pure.independence_number(adj, g.n, budget) == want, (g, limit)
            else:
                with pytest.raises(BudgetExceededError, match="^over$"):
                    _pure.independence_number(adj, g.n, budget)
            assert budget.used == min(nodes, limit + 1), (g, limit)


def test_searches_start_from_what_the_budget_has_left():
    # A kernel given a budget that earlier searches charged trips once the
    # combined count passes the limit, not where its own count would.
    g = petersen_graph()
    for search, nodes in (
        (_pure.hamilton_cycle_search, 142),
        (_pure.independence_number, 33),
    ):
        budget = _Budget(nodes + 9, "over")
        budget.charge(9)
        assert search(g.adj_bits, g.n, budget)[2] == nodes
        assert budget.used == nodes + 9
        for before in (10, 20):
            budget = _Budget(nodes + 9, "over")
            budget.charge(before)
            with pytest.raises(BudgetExceededError, match="^over$"):
                search(g.adj_bits, g.n, budget)
            assert budget.used == nodes + 10, (search, before)


def test_search_between_yields_charges_the_same_budget():
    # K7's first two Hamilton cycles take 7 and 2 more nodes.  Between the
    # two yields, an independence search of the Petersen graph (33 nodes)
    # charges the generator's budget, so the second cycle needs a limit of
    # 7 + 33 + 2; below that the generator trips at the combined count.
    g, other = complete_graph(7), petersen_graph()
    for limit in (42, 41, 40):
        budget = _Budget(limit, "over")
        cycles = _pure.hamilton_cycles(g.adj_bits, g.n, budget)
        assert next(cycles) == [0, 1, 2, 3, 4, 5, 6] and budget.used == 7
        _pure.independence_number(other.adj_bits, other.n, budget)
        assert budget.used == 40
        if limit == 42:
            assert next(cycles) == [0, 1, 2, 3, 4, 6, 5]
            assert budget.used == 42
        else:
            with pytest.raises(BudgetExceededError, match="^over$"):
                next(cycles)
            assert budget.used == limit + 1, limit


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
    assert exists_edge_disjoint_hc_exact(g, 2, least) is answer
    with pytest.raises(BudgetExceededError) as exc:
        exists_edge_disjoint_hc_exact(g, 2, least - 1)
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


def _brute_force_cycles(g):
    """Every Hamilton cycle as a vertex list from 0 with order[1] < order[-1],
    sorted, found by trying every order of the other vertices."""
    if g.n < 3:
        return []
    cycles = []
    for rest in permutations(range(1, g.n)):
        order = [0, *rest]
        if order[1] < order[-1] and all(
            g.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1])
        ):
            cycles.append(order)
    return sorted(cycles)


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, on in zip(pairs, flags) if on])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_hole_search_matches_brute_force_on_every_split(g):
    for a in range(g.n + 1):
        _assert_hole_search_matches(g, a)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=8))
def test_hamilton_cycles_match_brute_force(g):
    # The search yields in lexicographic order, so its full list is the
    # sorted one; the prune may cut no prefix of any cycle.
    found = list(_pure.hamilton_cycles(g.adj_bits, g.n, _Budget(10**7, "over")))
    assert found == _brute_force_cycles(g)


@st.composite
def graphs_with_extreme_degrees(draw):
    """small_graphs, then some vertices cut off from the rest and some
    joined to all the others, so degrees 0 and n - 1 turn up."""
    g = draw(small_graphs())
    vertex_sets = st.sets(st.integers(0, g.n - 1))
    cut, join = draw(vertex_sets), draw(vertex_sets)
    edges = {e for e in g.edges() if not cut.intersection(e)}
    edges |= {(min(u, v), max(u, v)) for u in join for v in range(g.n) if v != u}
    return Graph(g.n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(graphs_with_extreme_degrees())
def test_side_one_is_read_off_the_degrees(g):
    # _hole_side answers a = 1 without the kernel; it must give the
    # kernel's first X, or None, for every b and in either order.
    for b in range(1, g.n + 1):
        want = _pure.hole_search(g.adj_bits, g.n, 1, b)
        assert _hole_side(g, 1, b, DEFAULT_BUDGET) == want, (g, b)
        assert _hole_side(g, b, 1, DEFAULT_BUDGET) == want, (g, b)


def test_hole_search_with_fewer_than_b_vertices_finds_nothing():
    # With a = 0 only the n < b guard keeps the empty X from being reported
    # as a hole; holes._hole_side never calls the kernel with a + b > n.
    adj = Graph(3).adj_bits
    assert _pure.hole_search(adj, 3, 0, 4) is None
    assert _pure.hole_search(adj, 3, 1, 4) is None


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
