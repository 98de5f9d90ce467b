"""Differential tests of the exact oracles against networkx.

Vertex connectivity is checked against ``networkx.node_connectivity`` on
random small graphs and against known values on graphs of 30-60 vertices;
the independence number against the clique number of the complement.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusutil import to_nx
from hamholes.errors import _Budget
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    disjoint_union,
    fan_example_graph,
    gnp_graph,
)
from hamholes.holes import DEFAULT_BUDGET
from hamholes.oracle import (
    _local_connectivity,
    independence_number_exact,
    vertex_connectivity_exact,
)

nx = pytest.importorskip("networkx")
local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity

SETTINGS = settings(max_examples=200, deadline=None)


def nx_kappa(g: Graph) -> int:
    # networkx uses the same conventions: n - 1 for K_n, 0 for one vertex.
    return nx.node_connectivity(to_nx(g))


def circulant(n: int, jumps) -> Graph:
    return Graph(n, [(v, (v + d) % n) for v in range(n) for d in jumps])


@st.composite
def gnp_graphs(draw, max_n=16):
    """G(n, p) with n, p and the seed drawn, sometimes split in two parts."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    g = gnp_graph(n, p, draw(st.integers(0, 2**32)))
    if n < max_n and draw(st.booleans()):
        g = disjoint_union(g, gnp_graph(draw(st.integers(1, max_n - n)), p, 1))
    return g


@st.composite
def separated_graphs(draw):
    """Two dense parts that only a small set S joins, labels shuffled.

    Here kappa <= |S| is usually below the minimum degree, so the answer
    comes from a flow rather than from the starting bound.
    """
    a, b, k = draw(st.integers(3, 7)), draw(st.integers(3, 7)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = a + b + k
    left, right, sep = range(a), range(a, a + b), range(a + b, n)
    edges = [
        (u, v)
        for part in (left, right, sep)
        for u in part
        for v in part
        if u < v and rng.random() < 0.8
    ]
    edges += [(u, w) for w in sep for u in (*left, *right) if rng.random() < 0.6]
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@SETTINGS
@given(st.one_of(gnp_graphs(), separated_graphs()))
def test_kappa_matches_networkx(g):
    assert vertex_connectivity_exact(g) == nx_kappa(g)


# Sparse graphs where the maximum flow must send an augmenting path back
# through both ends of a vertex that already carries flow.
REROUTE_CASES = [
    (
        14,
        [(0, 2), (0, 4), (0, 11), (0, 13), (1, 11), (2, 6), (3, 13), (4, 5), (4, 8),
         (4, 13), (6, 7), (6, 8), (6, 11), (7, 9), (7, 12), (8, 10), (9, 11), (9, 12)],
        7,
        13,
        2,
    ),
    (
        14,
        [(0, 8), (1, 2), (1, 7), (1, 9), (1, 12), (1, 13), (2, 11), (3, 12), (4, 5),
         (4, 7), (4, 9), (4, 11), (5, 6), (5, 8), (5, 11), (6, 9), (9, 13), (10, 12),
         (10, 13), (11, 12)],
        5,
        13,
        3,
    ),
]


@pytest.mark.parametrize("n, edges, s, t, want", REROUTE_CASES)
def test_local_connectivity_reroutes_through_used_vertex(n, edges, s, t, want):
    g = Graph(n, edges)
    assert local_node_connectivity(to_nx(g), s, t) == want
    budget = _Budget(DEFAULT_BUDGET, "over")
    assert _local_connectivity(g.adj_bits, n, s, t, n, budget) == want


def test_local_connectivity_matches_networkx_on_sparse_graphs():
    # Stopped at cap, a pair of local connectivity c gives min(c, cap) after
    # one search per path found and, when c < cap, one more that finds none.
    # The budget counts these searches, so the count is pinned as well.
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(6, 14)
        g = gnp_graph(n, rng.choice([0.2, 0.3, 0.45]), rng.randrange(2**32))
        h = to_nx(g)
        for s in range(n):
            for t in range(s + 1, n):
                if g.has_edge(s, t):
                    continue
                c = local_node_connectivity(h, s, t)
                for cap in (1, 2, n):
                    searches = _Budget(DEFAULT_BUDGET, "over")
                    got = _local_connectivity(g.adj_bits, n, s, t, cap, searches)
                    assert got == min(c, cap)
                    assert searches.used == min(c, cap) + (c < cap)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_kappa_small_and_complete(n):
    assert vertex_connectivity_exact(complete_graph(n)) == n - 1 == nx_kappa(
        complete_graph(n)
    )
    assert vertex_connectivity_exact(Graph(n)) == 0 == nx_kappa(Graph(n))


@pytest.mark.parametrize("a, b", [(15, 15), (12, 30), (20, 40), (25, 31)])
def test_kappa_complete_bipartite(a, b):
    assert vertex_connectivity_exact(bipartite_graph(a, b)) == min(a, b)


@pytest.mark.parametrize("k, l", [(13, 2), (16, 4), (20, 6), (25, 3)])
def test_kappa_fan_example(k, l):
    g = fan_example_graph(k, l)
    assert 30 <= g.n <= 60
    assert vertex_connectivity_exact(g) == k


@pytest.mark.parametrize("n, k", [(30, 1), (40, 3), (50, 5), (60, 8)])
def test_kappa_cycle_powers(n, k):
    # The k-th power of C_n (n > 2k + 1) is the Harary graph H(2k, n).
    assert vertex_connectivity_exact(circulant(n, range(1, k + 1))) == 2 * k


@pytest.mark.parametrize("n, jumps", [(31, (1, 5)), (45, (2, 7, 11)), (60, (3, 10))])
def test_kappa_circulants_match_networkx(n, jumps):
    g = circulant(n, jumps)
    assert vertex_connectivity_exact(g) == nx_kappa(g)


def test_kappa_large_random_matches_networkx():
    rng = random.Random(5)
    for n in (30, 45, 60):
        g = gnp_graph(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(2**32))
        assert vertex_connectivity_exact(g) == nx_kappa(g)


@SETTINGS
@given(gnp_graphs(max_n=14))
def test_alpha_matches_complement_clique_number(g):
    _, size = nx.max_weight_clique(nx.complement(to_nx(g)), weight=None)
    assert independence_number_exact(g) == size
