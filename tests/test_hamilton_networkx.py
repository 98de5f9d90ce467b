"""Property tests of the solver's answers, checked with networkx.

``find_hamilton`` on G(n, p) must return a Hamilton cycle of g or a
certificate that verifies with value at least min degree + 1;
``find_edge_disjoint_hamilton`` must return Hamilton cycles of g that share
no edge.  Cycles are checked by networkx, not by ``CycleSeq``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusutil import to_nx
from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.graph import gnp_graph, min_degree
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
