"""Property tests of the solver's answers, checked with networkx.

``find_hamilton`` on G(n, p) must return a Hamilton cycle of g or a
certificate that verifies with value at least min degree + 1;
``find_edge_disjoint_hamilton`` must return Hamilton cycles of g that share
no edge.  Cycles are checked by networkx, not by ``CycleSeq``.  On every
graph of networkx's atlas with 3 to 7 vertices, the theorem itself is
checked: delta >= alpha_tilde gives a Hamilton cycle.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusutil import to_nx
from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.graph import Graph, gnp_graph, min_degree
from hamholes.hamilton import find_hamilton
from hamholes.holes import verify_certificate

nx = pytest.importorskip("networkx")

SETTINGS = settings(max_examples=100, deadline=None)


def assert_hamilton_cycle(h, order) -> None:
    order = list(order)
    assert len(order) == h.number_of_nodes()
    assert nx.is_simple_path(h, order) and h.has_edge(order[-1], order[0])


@st.composite
def gnp_graphs(draw, max_n):
    n = draw(st.integers(3, max_n))
    p = draw(st.floats(0.01, 0.9))
    return gnp_graph(n, p, draw(st.integers(0, 2**32)))


@SETTINGS
@given(gnp_graphs(max_n=300))
def test_cycle_or_certificate_always_verifies(g):
    res = find_hamilton(g)
    if res.cycle is not None:
        assert_hamilton_cycle(to_nx(g), res.cycle.order)
    else:
        k = verify_certificate(g, res.certificate)
        assert k == res.certificate.k >= min_degree(g) + 1


@SETTINGS
@given(gnp_graphs(max_n=40))
def test_disjoint_cycles_are_edge_disjoint_hamilton_cycles(g):
    h = to_nx(g)
    seen = set()
    for c in find_edge_disjoint_hamilton(g).cycles:
        assert_hamilton_cycle(h, c.order)
        edges = {frozenset(e) for e in c.edges()}
        assert not edges & seen
        seen |= edges


def _alpha_tilde_brute(n, edges):
    # The largest k such that every split k = s + t (s, t >= 1) has disjoint
    # sets S, T of sizes s, t with no edge between them.
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)

    def has_hole(s, t):
        for side in itertools.combinations(range(n), s):
            touched = set(side).union(*(neighbours[u] for u in side))
            if n - len(touched) >= t:
                return True
        return False

    k = 1
    while all(has_hole(s, k + 1 - s) for s in range(1, k + 1)):
        k += 1
    return k


def test_theorem_on_the_graph_atlas():
    # Every graph on 3..7 vertices (1249 of them) with min degree at least
    # its bipartite-hole-number is Hamiltonian, and find_hamilton finds a
    # cycle under any labelling.
    rng = random.Random(11)
    covered = qualifying = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < 3:
            continue
        covered += 1
        edges = list(h.edges())
        if min(d for _, d in h.degree()) < _alpha_tilde_brute(n, edges):
            continue
        qualifying += 1
        for _ in range(20):
            label = list(range(n))
            rng.shuffle(label)
            g = Graph(n, [(label[u], label[v]) for u, v in edges])
            cycle = find_hamilton(g).cycle
            assert cycle is not None
            order = cycle.order
            assert sorted(order) == list(range(n))
            assert all(g.has_edge(order[i - 1], order[i]) for i in range(n))
    assert (covered, qualifying) == (1249, 104)
