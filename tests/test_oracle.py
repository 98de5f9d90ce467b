"""Exact oracles: Hamiltonicity, independence, connectivity, disjoint cycles."""

import pytest

from corpusutil import random_graphs
from hamholes.errors import BudgetExceededError, CertificateError
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    fan_example_graph,
    gnp_graph,
    min_degree,
    path_graph,
    petersen_graph,
)
from hamholes.hardness import check_reduction_equivalence, parse_instance
from hamholes.holes import HoleCertificate, has_bipartite_hole, verify_certificate
from hamholes.oracle import (
    exists_edge_disjoint_hc_exact,
    independence_number_exact,
    is_hamiltonian_exact,
    vertex_connectivity_exact,
)

# ---------------------------------------------------------------------------
# known values


def test_is_hamiltonian_known():
    ok, cycle = is_hamiltonian_exact(complete_graph(4))
    assert ok and set(cycle.order) == {0, 1, 2, 3}
    assert is_hamiltonian_exact(bipartite_graph(2, 3)) == (False, None)
    assert is_hamiltonian_exact(petersen_graph())[0] is False
    assert is_hamiltonian_exact(cycle_graph(5))[0] is True
    assert is_hamiltonian_exact(path_graph(5))[0] is False
    with pytest.raises(ValueError):
        is_hamiltonian_exact(complete_graph(2))


def test_independence_known():
    assert independence_number_exact(cycle_graph(5)) == 2
    assert independence_number_exact(complete_graph(7)) == 1
    assert independence_number_exact(petersen_graph()) == 4
    assert independence_number_exact(bipartite_graph(3, 4)) == 4
    assert independence_number_exact(Graph(5)) == 5


def test_connectivity_known():
    assert vertex_connectivity_exact(cycle_graph(5)) == 2
    assert vertex_connectivity_exact(complete_graph(6)) == 5  # convention n - 1
    assert vertex_connectivity_exact(fan_example_graph(4, 1)) == 4
    assert vertex_connectivity_exact(path_graph(4)) == 1
    assert vertex_connectivity_exact(disjoint_union(complete_graph(3), Graph(1))) == 0
    assert vertex_connectivity_exact(Graph(1)) == 0
    assert vertex_connectivity_exact(complete_graph(2)) == 1


def test_edge_disjoint_known():
    assert exists_edge_disjoint_hc_exact(complete_graph(5), 2) is True
    assert exists_edge_disjoint_hc_exact(complete_graph(5), 3) is False
    assert exists_edge_disjoint_hc_exact(cycle_graph(5), 1) is True
    assert exists_edge_disjoint_hc_exact(cycle_graph(5), 2) is False
    assert exists_edge_disjoint_hc_exact(complete_graph(7), 3) is True
    with pytest.raises(ValueError):
        exists_edge_disjoint_hc_exact(complete_graph(5), 0)


def test_edge_disjoint_search_subtracts_each_cycle_by_its_order(monkeypatch):
    # Each Hamilton cycle the outer levels try is subtracted through
    # _remove_cycle, which leaves what remove_edges leaves.
    calls = []
    remove_cycle = Graph._remove_cycle

    def checked(h, order):
        calls.append(order)
        pairs = [(order[i - 1], order[i]) for i in range(len(order))]
        assert len(order) == h.n and remove_cycle(h, order) == h.remove_edges(pairs)
        return remove_cycle(h, order)

    monkeypatch.setattr(Graph, "_remove_cycle", checked)
    assert exists_edge_disjoint_hc_exact(complete_graph(7), 3) is True
    assert exists_edge_disjoint_hc_exact(petersen_graph(), 2) is False
    assert exists_edge_disjoint_hc_exact(complete_graph(5), 3) is False
    assert len(calls) >= 2


# ---------------------------------------------------------------------------
# structural cross-checks


def test_inequalities_on_corpus(corpus_upto5):
    for g in corpus_upto5[::3]:
        n = g.n
        delta = min_degree(g)
        alpha = independence_number_exact(g)
        kappa = vertex_connectivity_exact(g)
        assert kappa <= delta
        assert alpha + kappa <= n  # kappa <= n - alpha for non-complete too
        if kappa >= alpha:  # Chvatal-Erdos
            assert is_hamiltonian_exact(g)[0]


def test_hamiltonian_witness_is_valid_cycle():
    for g in random_graphs(8, 30, seed=17):
        ok, cycle = is_hamiltonian_exact(g)
        if ok:
            assert set(cycle.order) == set(range(g.n))
        else:
            assert cycle is None


def test_edge_disjoint_monotone_in_r():
    for g in random_graphs(7, 20, seed=23, p=0.8):
        feasible = [exists_edge_disjoint_hc_exact(g, r) for r in (1, 2, 3)]
        for lo, hi in zip(feasible, feasible[1:]):
            assert lo or not hi  # r+1 feasible implies r feasible


# ---------------------------------------------------------------------------
# budgets


def test_budget_below_one_raises_at_first_probe():
    # A budget is a plain probe count; the CLI and ExperimentConfig reject
    # one below 1, and an oracle given one aborts at its first probe.
    g = cycle_graph(6)
    for budget in (0, -3):
        for call in (
            lambda: is_hamiltonian_exact(g, budget),
            lambda: independence_number_exact(g, budget),
            lambda: vertex_connectivity_exact(g, budget),
            lambda: exists_edge_disjoint_hc_exact(g, 1, budget),
        ):
            with pytest.raises(BudgetExceededError):
                call()
    # ...or returns when it needs none.
    assert is_hamiltonian_exact(path_graph(5), 0) == (False, None)
    assert independence_number_exact(Graph(0), 0) == 0
    assert vertex_connectivity_exact(complete_graph(5), 0) == 4
    assert vertex_connectivity_exact(Graph(3), -1) == 0
    assert exists_edge_disjoint_hc_exact(complete_graph(5), 3, 0) is False


def test_hamiltonicity_budget_exhaustion():
    g = bipartite_graph(6, 6)  # Hamiltonian but needs some search
    with pytest.raises(BudgetExceededError):
        is_hamiltonian_exact(g, 3)
    assert is_hamiltonian_exact(g)[0] is True


def test_independence_budget_exhaustion():
    g = complete_graph(12).complement()
    with pytest.raises(BudgetExceededError):
        independence_number_exact(g, 2)


def test_connectivity_budget_exhaustion():
    g = bipartite_graph(5, 5)
    with pytest.raises(BudgetExceededError):
        vertex_connectivity_exact(g, 3)


def test_edge_disjoint_budget_exhaustion():
    g = complete_graph(9)
    with pytest.raises(BudgetExceededError):
        exists_edge_disjoint_hc_exact(g, 4, 10)


def _cocktail20():
    return complete_graph(20).remove_edges([(2 * i, 2 * i + 1) for i in range(10)])


# (routine, graph, least budget, answer at it).  Each least budget was
# recorded before the oracles shared one budget counter; it pins every probe
# the routine charges.
LEAST_BUDGETS = [
    ("ham", complete_graph(5), 5, True),
    ("ham", petersen_graph(), 142, False),
    ("ham", gnp_graph(14, 0.4, seed=9), 18, True),
    ("ham", bipartite_graph(3, 4), 109, False),
    ("alpha", complete_graph(5), 9, 1),
    ("alpha", petersen_graph(), 33, 4),
    ("alpha", gnp_graph(14, 0.4, seed=9), 51, 5),
    ("alpha", _cocktail20(), 39, 2),
    ("kappa", petersen_graph(), 51, 3),
    ("kappa", gnp_graph(12, 0.5, seed=4), 80, 4),
    ("kappa", cycle_graph(9), 24, 2),
    ("kappa", _cocktail20(), 162, 18),
]
# Each routine's oracle and its trip message.
ORACLES = {
    "ham": (
        lambda g, budget: is_hamiltonian_exact(g, budget)[0],
        "hamiltonicity search exceeded {} node expansions",
    ),
    "alpha": (
        independence_number_exact,
        "independence search exceeded {} node expansions",
    ),
    "kappa": (
        vertex_connectivity_exact,
        "connectivity search exceeded {} augmenting-path searches",
    ),
}


@pytest.mark.parametrize(
    "routine,g,least,answer",
    LEAST_BUDGETS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(LEAST_BUDGETS)],
)
def test_oracle_least_budget(routine, g, least, answer):
    oracle, message = ORACLES[routine]
    assert oracle(g, least) == answer
    with pytest.raises(BudgetExceededError) as exc:
        oracle(g, least - 1)
    assert str(exc.value) == message.format(least - 1)


# ---------------------------------------------------------------------------
# exact-or-abort and argument checks


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: check_reduction_equivalence(parse_instance("3 3 2\n"), 1),
            BudgetExceededError,
            "biclique enumeration exceeded 1 probes",
        ),
        (lambda: complete_graph(0), ValueError, "complete graph needs n >= 1"),
        (lambda: bipartite_graph(0, 1), ValueError, "bipartite graph needs a, b >= 1"),
        (lambda: path_graph(0), ValueError, "path graph needs n >= 1"),
        (lambda: gnp_graph(0, 0.5, 1), ValueError, "gnp needs n >= 1"),
        (lambda: Graph(3).has_edge(0, 3), ValueError, "vertex out of range: (0, 3)"),
        (
            lambda: has_bipartite_hole(complete_graph(4), 0, 1),
            ValueError,
            "hole sides must be positive, got (0, 1)",
        ),
        (
            lambda: verify_certificate(complete_graph(4), HoleCertificate(0, ())),
            CertificateError,
            "k must be >= 1, got 0",
        ),
        (
            lambda: vertex_connectivity_exact(Graph(0)),
            ValueError,
            "connectivity needs a nonempty graph",
        ),
        (
            lambda: exists_edge_disjoint_hc_exact(Graph(2, [(0, 1)]), 1),
            ValueError,
            "edge-disjoint search needs n >= 3, got 2",
        ),
    ],
    ids=[
        "biclique-budget",
        "complete-0",
        "bipartite-0-1",
        "path-0",
        "gnp-0",
        "has-edge-range",
        "hole-sides",
        "certificate-k",
        "connectivity-empty",
        "edge-disjoint-n2",
    ],
)
def test_exact_or_abort_and_argument_checks(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
