"""Edge-disjoint Hamilton cycle extraction with certificate translation."""

import pytest

from corpusutil import random_graphs
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    min_degree,
)
from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.holes import verify_certificate


def _assert_result_checks_out(g, res, capped=False):
    seen = set()
    for c in res.cycles:
        assert set(c.order) == set(range(g.n))
        edges = {tuple(sorted(e)) for e in c.edges()}
        assert all(g.has_edge(u, v) for u, v in edges)
        assert not (edges & seen)  # pairwise edge-disjoint
        seen |= edges
    if capped:
        assert res.residual_certificate.k == 1
        assert res.translated_certificate.k == 1
        return
    residual = g.remove_edges(seen)
    k_res = verify_certificate(residual, res.residual_certificate)
    assert k_res == res.residual_certificate.k
    k_tr = verify_certificate(g, res.translated_certificate)
    assert k_tr == res.translated_certificate.k
    r_hat = len(res.cycles)
    delta = min_degree(g)
    assert k_res >= min_degree(residual) + 1
    assert k_tr > (delta - 3 * r_hat) / (r_hat + 1)


def test_k5_two_cycles():
    g = complete_graph(5)
    res = find_edge_disjoint_hamilton(g)
    assert len(res.cycles) == 2
    _assert_result_checks_out(g, res)
    assert res.summary(g) == "r=2 delta=4 m=1"


def test_k33_single_cycle():
    g = bipartite_graph(3, 3)
    res = find_edge_disjoint_hamilton(g)
    assert len(res.cycles) == 1
    _assert_result_checks_out(g, res)
    assert res.residual_certificate.k == 3


def test_c6_one_cycle_then_disconnected_residual():
    g = cycle_graph(6)
    res = find_edge_disjoint_hamilton(g)
    assert len(res.cycles) == 1
    _assert_result_checks_out(g, res)


def test_complete_graphs_meet_quarter_degree_bound():
    for n in range(7, 14):
        res = find_edge_disjoint_hamilton(complete_graph(n))
        assert len(res.cycles) >= (n - 2) // 4
        _assert_result_checks_out(complete_graph(n), res)


def test_r_cap_limits_extraction():
    g = complete_graph(9)
    res = find_edge_disjoint_hamilton(g, r_cap=2)
    assert len(res.cycles) == 2
    _assert_result_checks_out(g, res, capped=True)
    res0 = find_edge_disjoint_hamilton(g, r_cap=0)
    assert res0.cycles == () and res0.translated_certificate.k == 1
    with pytest.raises(ValueError):
        find_edge_disjoint_hamilton(g, r_cap=-1)
    with pytest.raises(ValueError):
        find_edge_disjoint_hamilton(complete_graph(2))


def test_r_cap_above_supply_equals_uncapped():
    g = complete_graph(7)
    capped = find_edge_disjoint_hamilton(g, r_cap=50)
    free = find_edge_disjoint_hamilton(g)
    assert capped.cycles == free.cycles
    assert capped.residual_certificate == free.residual_certificate


def test_random_graphs_properties():
    for i, g in enumerate(random_graphs(10, 15, seed=41, p=0.7)):
        res = find_edge_disjoint_hamilton(g)
        _assert_result_checks_out(g, res)


def test_residual_degree_invariant():
    # delta(G_i) >= delta(G) - 2i at every stage of the extraction
    g = gnp_graph(14, 0.85, seed=6)
    res = find_edge_disjoint_hamilton(g)
    delta = min_degree(g)
    h = g
    for i, c in enumerate(res.cycles, start=1):
        h = h.remove_edges(c.edges())
        assert min_degree(h) >= delta - 2 * i


def test_each_cycle_is_subtracted_by_its_order(monkeypatch):
    # One _remove_cycle per extracted cycle, on that cycle's order, each on
    # the residual that remove_edges(c.edges()) leaves round by round.
    subtracted = []
    remove_cycle = Graph._remove_cycle

    def recorded(h, order):
        subtracted.append((h, order))
        return remove_cycle(h, order)

    monkeypatch.setattr(Graph, "_remove_cycle", recorded)
    g = gnp_graph(14, 0.85, seed=6)
    res = find_edge_disjoint_hamilton(g)
    assert len(res.cycles) >= 2
    assert [order for _, order in subtracted] == [c.order for c in res.cycles]
    h = g
    for (seen, _), c in zip(subtracted, res.cycles):
        assert seen == h
        h = h.remove_edges(c.edges())
    assert verify_certificate(h, res.residual_certificate)


def test_determinism():
    g = gnp_graph(12, 0.75, seed=3)
    a = find_edge_disjoint_hamilton(g)
    b = find_edge_disjoint_hamilton(g)
    assert a.cycles == b.cycles
    assert a.translated_certificate == b.translated_certificate
