"""Path/cycle states, the three closure flips, and the find_hamilton loop."""

import pytest

from corpusutil import random_graphs
from hamholes.errors import ContractViolationError, GraphFormatError
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    min_degree,
    path_graph,
    petersen_graph,
)
from hamholes.hamilton import (
    CycleSeq,
    PathState,
    disconnected_certificate,
    extend_maximal,
    extract_certificate,
    find_hamilton,
    parse_cycle,
    reopen_cycle,
    serialize_cycle,
    try_close,
)
from hamholes.holes import alpha_tilde_exact, verify_certificate

# ---------------------------------------------------------------------------
# state objects


def test_path_state_validation():
    g = path_graph(4)
    p = PathState(g, (1, 2, 3))
    assert len(p) == 3 and list(p) == [1, 2, 3]
    with pytest.raises(ValueError, match="^path length 1 out of range$"):
        PathState(g, (0,))
    with pytest.raises(ValueError, match="^consecutive vertices 0, 2 not adjacent$"):
        PathState(g, (0, 2))
    with pytest.raises(ValueError, match="^repeated vertex in path$"):
        PathState(g, (0, 1, 0))
    with pytest.raises(ValueError, match="^vertex 4 out of range$"):
        PathState(g, (0, 4))


def test_cycle_seq_validation_and_canonical_form():
    g = cycle_graph(5)
    base = CycleSeq(g, (0, 1, 2, 3, 4))
    for rotation in [(2, 3, 4, 0, 1), (4, 0, 1, 2, 3)]:
        assert CycleSeq(g, rotation) == base
    reflected = CycleSeq(g, (0, 4, 3, 2, 1))
    assert reflected == base and hash(reflected) == hash(base)
    assert base.order[0] == 0  # canonical start at the least vertex
    with pytest.raises(ValueError, match="^cyclically consecutive 2, 0 not adjacent$"):
        CycleSeq(g, (0, 1, 2))
    # The wrap-around pair is checked first: (4, 0) before (2, 4).
    with pytest.raises(ValueError, match="^cyclically consecutive 4, 0 not adjacent$"):
        CycleSeq(cycle_graph(6), (0, 1, 2, 4))
    with pytest.raises(ValueError, match="^repeated vertex in cycle$"):
        CycleSeq(g, (0, 1, 1))
    with pytest.raises(ValueError, match="^cycle length 2 < 3$"):
        CycleSeq(complete_graph(4), (0, 1))


def test_path_and_cycle_on_the_same_order_differ():
    g = complete_graph(4)
    p, c = PathState(g, (0, 1, 2)), CycleSeq(g, (0, 1, 2))
    assert p != c and c != p
    assert p == PathState(g, (0, 1, 2)) and c == CycleSeq(g, (2, 1, 0))
    assert repr(p) == "PathState([0, 1, 2])"
    assert repr(c) == "CycleSeq([0, 1, 2])"


def test_cycle_edges_cover_wraparound():
    c = CycleSeq(cycle_graph(4), (0, 1, 2, 3))
    assert sorted(tuple(sorted(e)) for e in c.edges()) == [
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
    ]


# ---------------------------------------------------------------------------
# extension and closure


def test_extend_maximal_prefers_front_and_lowest_id():
    g = complete_graph(4)
    p = extend_maximal(g, PathState(g, (1, 2)))
    # front neighbours first, lowest id first: 0 joins at the front, then 3
    assert p.order == (3, 0, 1, 2)
    ends_front = set(g.neighbors(p.order[0])) - set(p.order)
    ends_back = set(g.neighbors(p.order[-1])) - set(p.order)
    assert not ends_front and not ends_back


def test_extend_maximal_is_deterministic():
    for g in random_graphs(9, 20, seed=2):
        if g.m == 0:
            continue
        u, v = next(iter(g.edges()))
        a = extend_maximal(g, PathState(g, (u, v)))
        b = extend_maximal(g, PathState(g, (u, v)))
        assert a.order == b.order
        ends_front = set(g.neighbors(a.order[0])) - set(a.order)
        ends_back = set(g.neighbors(a.order[-1])) - set(a.order)
        assert not ends_front and not ends_back


def test_try_close_direct_case():
    g = cycle_graph(6)
    p = PathState(g, (0, 1, 2, 3, 4, 5))
    c = try_close(g, p)
    assert c == CycleSeq(g, tuple(range(6)))


def test_try_close_requires_maximal_path():
    g = complete_graph(5)
    with pytest.raises(ValueError, match="maximal"):
        try_close(g, PathState(g, (0, 1, 2)))


def test_try_close_flip_cases_agree_with_naive_search():
    # cross-check against brute force: whenever some single or double flip
    # closes a maximal path, try_close must close it too (and vice versa)
    import itertools

    def naive_closes(g, order):
        m = len(order)
        f, b = order[0], order[-1]
        if g.has_edge(f, b):
            return True
        for j in range(1, m - 1):  # single flip (a)
            if g.has_edge(f, order[j]) and g.has_edge(b, order[j - 1]):
                return True
        for i in range(1, m - 1):  # nested flip (b)
            for j in range(i, m - 1):
                if (
                    g.has_edge(f, order[i])
                    and g.has_edge(b, order[j])
                    and g.has_edge(order[i - 1], order[j + 1])
                ):
                    return True
        for j in range(0, m - 2):  # crossing flip (c)
            for i in range(j + 1, m - 1):
                if (
                    g.has_edge(f, order[i])
                    and g.has_edge(b, order[j])
                    and g.has_edge(order[i + 1], order[j + 1])
                ):
                    return True
        return False

    checked = 0
    for g in random_graphs(8, 60, seed=13):
        for u, v in itertools.islice(g.edges(), 3):
            p = extend_maximal(g, PathState(g, (u, v)))
            if len(p) != g.n:
                continue
            c = try_close(g, p)
            assert (c is not None) == naive_closes(g, p.order)
            if c is not None:
                assert set(c.order) == set(range(g.n))
                assert all(g.has_edge(c.order[i - 1], c.order[i]) for i in range(g.n))
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# certificates from stuck states


def test_extract_certificate_k23_example():
    g = bipartite_graph(2, 3)
    p = extend_maximal(g, PathState(g, (0, 2)))
    assert try_close(g, p) is None
    c = extract_certificate(g, p)
    assert c.k == min_degree(g) + 1 == 3
    assert verify_certificate(g, c) == 3


def test_extract_certificate_rejects_closable_path():
    g = complete_graph(5)
    p = extend_maximal(g, PathState(g, (0, 1)))
    with pytest.raises(ValueError):
        extract_certificate(g, p)


def test_disconnected_certificate():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    c = disconnected_certificate(g)
    assert c.k == min_degree(g) + 2 == 4
    assert verify_certificate(g, c) == 4
    with pytest.raises(ValueError):
        disconnected_certificate(complete_graph(4))


def test_reopen_cycle_picks_lowest_attachment():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    p = reopen_cycle(g, CycleSeq(g, (0, 1, 2, 3)))
    # vertex 4 sits outside; its lowest cycle neighbour 0 starts the walk
    assert p.order == (4, 0, 1, 2, 3)
    spanning = CycleSeq(g, (2, 3, 0, 4, 1))
    with pytest.raises(ValueError):
        reopen_cycle(g, spanning)  # nothing left outside the cycle


# ---------------------------------------------------------------------------
# find_hamilton end to end


def test_find_hamilton_known_outcomes():
    assert find_hamilton(complete_graph(4)).cycle is not None
    assert find_hamilton(cycle_graph(7)).cycle == CycleSeq(cycle_graph(7), range(7))
    res = find_hamilton(bipartite_graph(2, 3))
    assert res.cycle is None and res.certificate.k == 3
    res = find_hamilton(disjoint_union(complete_graph(3), complete_graph(4)))
    assert res.certificate is not None and res.certificate.k == 4  # delta + 2


def test_find_hamilton_result_shape():
    res = find_hamilton(complete_graph(5))
    assert (res.cycle is None) != (res.certificate is None)
    with pytest.raises(ValueError):
        find_hamilton(complete_graph(2))


def test_find_hamilton_is_deterministic():
    for g in random_graphs(10, 25, seed=21):
        a = find_hamilton(g)
        b = find_hamilton(g)
        assert (a.cycle, a.certificate) == (b.cycle, b.certificate)


def test_find_hamilton_soundness_random():
    # every outcome must check out: cycles span g and each cyclically
    # consecutive pair is an edge of g, certificates must verify with value
    # at least delta + 1
    for g in random_graphs(9, 60, seed=31):
        res = find_hamilton(g)
        if res.cycle is not None:
            order = res.cycle.order
            assert sorted(order) == list(range(g.n))
            assert all(g.has_edge(order[i - 1], order[i]) for i in range(g.n))
        else:
            k = verify_certificate(g, res.certificate)
            assert k == res.certificate.k >= min_degree(g) + 1
            assert alpha_tilde_exact(g) >= k


def test_find_hamilton_checks_the_cycle_it_returns(monkeypatch):
    # try_close builds its cycles unchecked; a broken spanning one must not
    # leave find_hamilton as an answer.
    g = cycle_graph(5)

    def broken(g, p):
        return CycleSeq._trusted(g, (0, 2, 1, 3, 4), p.mask)

    monkeypatch.setattr("hamholes.hamilton.try_close", broken)
    with pytest.raises(ContractViolationError, match="not adjacent"):
        find_hamilton(g)


def test_find_hamilton_complete_under_degree_bound(corpus_upto5):
    # the Dirac regime delta >= n/2 always lies inside delta >= alpha_tilde
    for g in corpus_upto5:
        if 2 * min_degree(g) >= g.n:
            assert find_hamilton(g).cycle is not None


def test_find_hamilton_petersen_certificate():
    res = find_hamilton(petersen_graph())
    assert res.cycle is None  # hypohamiltonian, and alpha_tilde = 4 > delta = 3
    assert verify_certificate(petersen_graph(), res.certificate) == 4


# ---------------------------------------------------------------------------
# text format


def test_cycle_round_trip():
    g = cycle_graph(6)
    c = find_hamilton(g).cycle
    text = serialize_cycle(c)
    assert text == "cycle 6\n0 1 2 3 4 5"
    assert parse_cycle(text, g) == c


CYCLE_REJECTIONS = {
    "": "missing header 'cycle n'",
    "cycle x": "line 1: expected header 'cycle n'",
    "cycle 3\n0 1": "line 2: expected 3 vertex ids, found 2",
    "cycle 4\n0 1 2 3\n4 5": "expected exactly one vertex line after the header",
    "cycle 3\n0 1 9": "line 2: invalid cycle: vertex 9 out of range",
    "cycle 3\n0 1 1": "line 2: invalid cycle: repeated vertex in cycle",
}


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("", "header"),
        ("cycle x", "header"),
        ("cycle 3\n0 1", "expected 3"),
        ("cycle 4\n0 1 2 3\n4 5", "exactly one vertex line"),
        ("cycle 3\n0 1 9", "invalid cycle"),
        ("cycle 3\n0 1 1", "invalid cycle"),
    ],
)
def test_parse_cycle_rejects(text, complaint):
    with pytest.raises(GraphFormatError, match=complaint) as exc:
        parse_cycle(text, complete_graph(6))
    assert exc.type is GraphFormatError
    assert str(exc.value) == CYCLE_REJECTIONS[text]


def test_parse_cycle_checks_adjacency():
    with pytest.raises(GraphFormatError, match="not adjacent"):
        parse_cycle("cycle 4\n0 1 3 2", cycle_graph(4))
