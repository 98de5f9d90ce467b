"""Path/cycle states, the three closure flips, and the find_hamilton loop."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusutil import random_graphs
from hamholes import hamilton
from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.errors import ContractViolationError, GraphFormatError
from hamholes.graph import (
    Graph,
    bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    gnp_graph,
    min_degree,
    path_graph,
    petersen_graph,
)
from hamholes.hamilton import (
    _SCAN_POSITIONS,
    CycleSeq,
    PathState,
    _closure_masks,
    _rewire,
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


def _min_normal(order):
    # The canonical order by its definition: start at min(order) and run
    # toward its smaller-id neighbour.
    i = order.index(min(order))
    if order[(i + 1) % len(order)] <= order[i - 1]:
        return order[i:] + order[:i]
    return order[i::-1] + order[:i:-1]


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.integers(0, 40), min_size=3, max_size=25, unique=True),
    shift=st.integers(0, 24),
    backwards=st.booleans(),
)
@example(ids=[0, 5, 3], shift=0, backwards=False)  # lowest vertex first
@example(ids=[5, 3, 0], shift=0, backwards=False)  # lowest vertex last
@example(ids=[7, 2, 9, 4], shift=1, backwards=True)
def test_canonical_order_starts_at_the_lowest_vertex(ids, shift, backwards):
    # Any rotation, either direction: both constructors store the order
    # the min()-based definition gives, though they read the start off the
    # mask.
    g = Graph(max(ids) + 1, zip(ids, ids[1:] + ids[:1]))
    shift %= len(ids)
    order = tuple(ids[shift:] + ids[:shift])
    if backwards:
        order = order[::-1]
    want = _min_normal(order)
    assert CycleSeq(g, order).order == want
    mask = sum(1 << v for v in order)
    assert CycleSeq._trusted(g, order, mask).order == want
    assert PathState(g, order).order == order


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
    p = extend_maximal(PathState(g, (1, 2)))
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
        a = extend_maximal(PathState(g, (u, v)))
        b = extend_maximal(PathState(g, (u, v)))
        assert a.order == b.order
        ends_front = set(g.neighbors(a.order[0])) - set(a.order)
        ends_back = set(g.neighbors(a.order[-1])) - set(a.order)
        assert not ends_front and not ends_back


def _extend_step_by_step(p):
    # The extension as a loop that tries the front first at every step.
    order, mask, adj = list(p.order), p.mask, p.graph.adj_bits
    while True:
        at, cand = 0, adj[order[0]] & ~mask
        if not cand:
            at, cand = len(order), adj[order[-1]] & ~mask
        if not cand:
            return tuple(order)
        w = (cand & -cand).bit_length() - 1
        order.insert(at, w)
        mask |= 1 << w


def _random_path(g, rng):
    # A random simple path of g with at least one edge, or None.
    if g.m == 0:
        return None
    u, v = rng.choice(list(g.edges()))
    order = [u, v]
    for _ in range(rng.randrange(g.n)):
        outside = [w for w in g.neighbors(order[-1]) if w not in order]
        if not outside:
            break
        order.append(rng.choice(outside))
    return PathState(g, order)


def test_extend_maximal_matches_the_step_by_step_loop():
    rng = random.Random(34)
    graphs = random_graphs(9, 40, seed=34) + random_graphs(30, 40, seed=35)
    already_maximal = 0
    for g in graphs:
        for _ in range(3):
            p = _random_path(g, rng)
            if p is None:
                continue
            q = extend_maximal(p)
            assert q.order == _extend_step_by_step(p)
            assert q.mask == sum(1 << v for v in q.order)
            assert extend_maximal(q) == q and _extend_step_by_step(q) == q.order
            already_maximal += q == p
    assert already_maximal > 5


def test_extend_maximal_returns_a_stuck_path_itself():
    # A path stuck at both ends comes back as the same object; one that
    # grows comes back new.
    rng = random.Random(35)
    grown = 0
    for g in random_graphs(12, 40, seed=36):
        p = _random_path(g, rng)
        if p is None:
            continue
        q = extend_maximal(p)
        assert extend_maximal(q) is q
        if q.order != p.order:
            grown += 1
            assert q is not p
    assert grown > 5


def test_try_close_direct_case():
    g = cycle_graph(6)
    p = PathState(g, (0, 1, 2, 3, 4, 5))
    c = try_close(p)
    assert c == CycleSeq(g, tuple(range(6)))


def test_try_close_requires_maximal_path():
    g = complete_graph(5)
    with pytest.raises(ValueError, match="maximal"):
        try_close(PathState(g, (0, 1, 2)))


def _assert_masks_match_definition(g, edges, order):
    # Bit i of each mask is set iff order[i] is adjacent to that endpoint,
    # read off the test's own edge set.
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    want = tuple(
        sum(1 << i for i, v in enumerate(order) if (end, v) in adjacent)
        for end in (order[0], order[-1])
    )
    assert _closure_masks(g, order) == want


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 60),
    p=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32),
    starts=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
@example(n=3, p=1.0, seed=0, starts=[0])  # a triangle: back adjacent to front
def test_closure_masks_match_definition(n, p, seed, starts):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not edges:
        return
    g = Graph(n, edges)
    for start in starts:
        u, v = edges[start % len(edges)]
        order = extend_maximal(PathState(g, (u, v))).order
        _assert_masks_match_definition(g, edges, order)


def test_closure_masks_at_the_edges_of_the_rows():
    # A front whose neighbour is vertex n - 1 (its row needs no padding) and
    # a front whose highest neighbour is low (its row needs padding to n);
    # spanning and non-spanning maximal paths; a back adjacent to the front.
    cases = [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], (0, 1, 2, 3, 4)),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], (0, 1, 2, 3, 4)),
        (5, [(0, 4), (4, 2), (2, 1), (0, 2)], (0, 4, 2, 1)),
        (6, [(0, 4), (0, 1), (1, 4), (1, 2), (2, 3), (0, 2), (1, 3)], (4, 0, 1, 2, 3)),
        (4, [(0, 1), (1, 2), (0, 2)], (0, 1, 2)),
    ]
    for n, edges, order in cases:
        g = Graph(n, edges)
        p = PathState(g, order)
        assert extend_maximal(p) == p  # maximal as given
        _assert_masks_match_definition(g, edges, order)
    g = Graph(5, cases[0][1])
    assert _closure_masks(g, (0, 1, 2, 3, 4)) == (0b10010, 0b01001)


def _first_flip(g, order):
    # try_close's search order by brute force, from g.has_edge alone: the
    # case, how many j its least i admits, and the cycle as path positions.
    m = len(order)
    f, b = order[0], order[-1]
    for j in range(1, m):  # (a): v0, v(j)..v(m-1), v(j-1)..v1
        if g.has_edge(f, order[j]) and g.has_edge(b, order[j - 1]):
            return "a", 1, [0, *range(j, m), *range(j - 1, 0, -1)]
    for i in range(1, m - 1):  # (b): v0..v(i-1), v(j+1)..v(m-1), v(j)..v(i)
        js = [
            j
            for j in range(i, m - 1)
            if g.has_edge(f, order[i])
            and g.has_edge(b, order[j])
            and g.has_edge(order[i - 1], order[j + 1])
        ]
        if js:
            j = js[0]
            return "b", len(js), [*range(i), *range(j + 1, m), *range(j, i - 1, -1)]
    for i in range(1, m - 1):  # (c): v0..v(j), v(m-1)..v(i+1), v(j+1)..v(i)
        js = [
            j
            for j in range(i)
            if g.has_edge(f, order[i])
            and g.has_edge(b, order[j])
            and g.has_edge(order[i + 1], order[j + 1])
        ]
        if js:
            j = js[0]
            positions = [*range(j + 1), *range(m - 1, i, -1), *range(j + 1, i + 1)]
            return "c", len(js), positions
    return None, 0, None


def test_try_close_flip_cases_agree_with_naive_search():
    # cross-check against brute force: whenever some single or double flip
    # closes a maximal path, try_close must close it too (and vice versa),
    # and extract_certificate must refuse it (and accept a stuck one)
    import itertools

    # Spanning and non-spanning maximal paths alike: on the latter the
    # off-path vertices must not reach the closure masks.
    closed = {True: 0, False: 0}
    stuck = {True: 0, False: 0}
    for g in random_graphs(8, 60, seed=13):
        for u, v in itertools.islice(g.edges(), 3):
            p = extend_maximal(PathState(g, (u, v)))
            if len(p) < 3:
                continue  # an isolated edge: no closure to check
            spanning = len(p) == g.n
            c = try_close(p)
            assert (c is not None) == (_first_flip(g, p.order)[0] is not None)
            if c is not None:
                assert len(c) == len(p) and set(c.order) == set(p.order)
                assert all(
                    g.has_edge(c.order[i - 1], c.order[i]) for i in range(len(c))
                )
                with pytest.raises(ValueError, match="closable"):
                    extract_certificate(p)
                closed[spanning] += 1
            else:
                cert = extract_certificate(p)
                assert verify_certificate(g, cert) == min_degree(g) + 1
                stuck[spanning] += 1
    assert closed[True] > 20 and closed[False] > 0 and stuck[False] > 0


def test_try_close_returns_the_first_flip_cycle():
    # Not only whether a maximal path closes, but by which flip and (i, j):
    # the least j for (a), the least (i, j) for (b), and for (c) only once
    # no (b) exists.  The 20-40 vertex graphs give (b) hits with several j.
    import itertools

    graphs = random_graphs(8, 60, seed=13)
    for n in range(20, 41, 5):
        graphs += random_graphs(n, 40, seed=n)
    seen = {"a": 0, "b": 0, "c": 0, None: 0, "several b": 0}
    for g in graphs:
        for u, v in itertools.islice(g.edges(), 3):
            p = extend_maximal(PathState(g, (u, v)))
            if len(p) < 3:
                continue
            case, js, positions = _first_flip(g, p.order)
            c = try_close(p)
            if case is None:
                assert c is None
            else:
                assert c.order == CycleSeq(g, [p.order[q] for q in positions]).order
            seen[case] += 1
            seen["several b"] += case == "b" and js > 1
    assert seen["b"] > 10 and seen["c"] > 5 and seen["several b"] > 2
    assert seen["a"] > 100 and seen[None] > 100


def _path_with_first_flip_at(n, j_first, seed):
    # A spanning path 0..n-1, relabelled at random, of a random graph from
    # which every single flip below j_first (all of them when j_first is
    # None) is removed and the flip at j_first added; f = 0 and b = n - 1.
    # A flip at j needs j in N(f) and j - 1 in N(b); one of the two edges
    # goes, at random, so both ends keep neighbours for (b) and (c).
    rng = random.Random(seed)
    b = n - 1
    adjacent = {(u, u + 1) for u in range(b)}
    density = rng.choice([0.01, 0.3])
    adjacent |= {
        (u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < density
    }
    adjacent.discard((0, b))  # the flips at j = 1 and j = b
    for j in range(2, b if j_first is None else j_first):
        adjacent.discard(rng.choice([(0, j), (j - 1, b)]))
    if j_first is not None:
        adjacent |= {(0, j_first), (j_first - 1, b)}
    label = rng.sample(range(n), n)
    g = Graph(n, [(label[u], label[v]) for u, v in adjacent])
    return PathState(g, [label[q] for q in range(n)])


@pytest.mark.parametrize(
    "j_first",
    [2, _SCAN_POSITIONS - 1, _SCAN_POSITIONS, _SCAN_POSITIONS + 1, None],
    ids=["low", "below-bound", "at-bound", "past-bound", "none"],
)
def test_scan_agrees_with_the_masks_around_its_bound(monkeypatch, j_first):
    # Paths whose lowest single flip lies below the scan's bound, at it,
    # just past it and nowhere: try_close's cycle is the brute-force first
    # flip and the masks' own, and only a flip at or past the bound (or
    # none) is left to the masks.
    built = []

    def counted_masks(g, order):
        built.append(order)
        return _closure_masks(g, order)

    monkeypatch.setattr(hamilton, "_closure_masks", counted_masks)
    cases = []
    for seed in range(12):
        p = _path_with_first_flip_at(_SCAN_POSITIONS + 8, j_first, seed)
        g = p.graph
        case, _, positions = _first_flip(g, p.order)
        if j_first is not None:
            assert case == "a" and positions[1] == j_first
        else:
            assert case != "a"
        built.clear()
        c = try_close(p)
        scanned = j_first is not None and j_first < _SCAN_POSITIONS
        assert built == ([] if scanned else [p.order])
        assert c == _rewire(p, *_closure_masks(g, p.order))
        if case is None:
            assert c is None
        else:
            assert c.order == CycleSeq(g, [p.order[q] for q in positions]).order
        cases.append(case)
    if j_first is None:  # the masks' other rewirings get to run
        assert "b" in cases and None in cases


# ---------------------------------------------------------------------------
# certificates from stuck states


def test_extract_certificate_k23_example():
    g = bipartite_graph(2, 3)
    p = extend_maximal(PathState(g, (0, 2)))
    assert try_close(p) is None
    c = extract_certificate(p)
    assert c.k == min_degree(g) + 1 == 3
    assert verify_certificate(g, c) == 3


def test_extract_certificate_rejects_closable_path():
    g = complete_graph(5)
    p = extend_maximal(PathState(g, (0, 1)))
    with pytest.raises(ValueError):
        extract_certificate(p)


def test_closable_path_past_the_scan_keeps_no_masks():
    # The ends of the path 0..69 see 66 and 65: the single flip is at
    # position 66, past the scan, so try_close builds the masks and closes.
    # It leaves nothing on the path, so extract_certificate still refuses.
    g = Graph(70, [*zip(range(69), range(1, 70)), (0, 66), (65, 69)])
    p = PathState(g, range(70))
    assert len(try_close(p)) == 70
    with pytest.raises(ValueError, match="closable"):
        extract_certificate(p)


def test_extract_certificate_needs_three_vertices():
    g = complete_graph(2)
    with pytest.raises(ValueError, match="length >= 3, got 2"):
        extract_certificate(PathState(g, (0, 1)))


def test_each_round_closes_once(monkeypatch):
    # extract_certificate reads the masks of the failed closing, so a run
    # that ends in a certificate calls try_close once per extend round.
    calls = []

    def counting(name, fn):
        def wrapper(p):
            calls.append(name)
            return fn(p)

        return wrapper

    monkeypatch.setattr(
        "hamholes.hamilton.extend_maximal", counting("extend", extend_maximal)
    )
    monkeypatch.setattr("hamholes.hamilton.try_close", counting("close", try_close))
    certificates = 0
    for g in random_graphs(12, 40, seed=8):
        if len(components(g)) == 1 and find_hamilton(g).certificate is not None:
            certificates += 1
    assert certificates
    assert calls.count("close") == calls.count("extend")


def _count_closing_work(monkeypatch):
    # Calls of try_close, of _closure_masks (from try_close past its scan,
    # and from extract_certificate on a path try_close did not fail on) and
    # of extract_certificate.
    calls = {"try_close": 0, "_closure_masks": 0, "extract_certificate": 0}

    def counted(name):
        fn = getattr(hamilton, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(hamilton, name, counted(name))
    return calls


@pytest.mark.parametrize(
    "run, closings, masks, extracted",
    [
        # 108 cycles, then a component certificate: 2430 closings are
        # decided by the scan and 589 by the masks.
        (lambda: find_edge_disjoint_hamilton(gnp_graph(300, 0.8, 5)), 3019, 589, 0),
        # A spanning cycle; no closing has a single flip below position 197.
        (lambda: find_hamilton(gnp_graph(4000, 0.01, 7)), 63, 63, 0),
        # A stuck path: its closing builds the masks, and its extraction
        # reads them off the path.
        (lambda: find_hamilton(bipartite_graph(300, 400)), 1, 1, 1),
    ],
    ids=["gnp300-extraction", "gnp4000-find", "k300-400-find"],
)
def test_closing_work_counts(monkeypatch, run, closings, masks, extracted):
    # Pinned work on the benchmark's graphs, so that a closing that skips
    # the scan, or a scan that decides less, fails here.
    calls = _count_closing_work(monkeypatch)
    run()
    assert calls == {
        "try_close": closings,
        "_closure_masks": masks,
        "extract_certificate": extracted,
    }


def test_extraction_work_in_components_and_extension(monkeypatch, count_yields):
    # G(300, 0.8, seed 5)'s extraction: 109 finds, one component search
    # each.  A level stops once its component spans, so the searches walk
    # 9139 vertices in all (32700 with whole levels), and 1372 of the 3019
    # extensions find the path stuck at both ends and return it as it is.
    g = gnp_graph(300, 0.8, 5)
    walks = count_yields("hamholes.graph")
    calls = {"extend": 0, "stuck": 0}

    def counting(p):
        q = extend_maximal(p)
        calls["extend"] += 1
        calls["stuck"] += q is p
        return q

    monkeypatch.setattr(hamilton, "extend_maximal", counting)
    assert len(find_edge_disjoint_hamilton(g).cycles) == 108
    assert sum(walks) == 9139
    assert calls == {"extend": 3019, "stuck": 1372}


def test_disconnected_certificate():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    c = disconnected_certificate(g)
    assert c.k == min_degree(g) + 2 == 4
    assert verify_certificate(g, c) == 4
    assert disconnected_certificate(complete_graph(4)) is None
    # With three components the holes come from the two lowest.
    c = disconnected_certificate(disjoint_union(g, complete_graph(3)))
    assert c.k == 4
    assert [(h.s_side, h.t_side) for h in c.pairs] == [
        ((0,), (3, 4, 5)),
        ((0, 1), (3, 4)),
    ]


def _count_component_searches(monkeypatch):
    """Wrap hamilton's components; each call appends how many components
    (breadth-first searches) it returned."""
    searches = []

    def counting(g):
        comps = components(g)
        searches.append(len(comps))
        return comps

    monkeypatch.setattr("hamholes.hamilton.components", counting)
    return searches


def test_edgeless_graph_costs_two_component_searches(monkeypatch):
    # 50000 components, but the certificate reads only the two lowest; a
    # mask for every component would peak near 160 MiB.
    g = Graph(50_000)
    searches = _count_component_searches(monkeypatch)
    tracemalloc.start()
    try:
        result = find_hamilton(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.certificate.k == 2
    assert [(h.s_side, h.t_side) for h in result.certificate.pairs] == [((0,), (1,))]
    assert peak < 2**20
    assert searches == [2]
    assert find_edge_disjoint_hamilton(g).cycles == ()
    assert searches == [2, 2]


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(7),
        petersen_graph(),
        bipartite_graph(3, 5),
        disjoint_union(cycle_graph(3000), complete_graph(4)),
    ],
    ids=["K7", "petersen", "K3,5", "C3000+K4"],
)
def test_each_find_searches_components_once(monkeypatch, g):
    searches = _count_component_searches(monkeypatch)
    find_hamilton(g)
    assert len(searches) == 1
    finds = []

    def counting(h):
        finds.append(h)
        return find_hamilton(h)

    monkeypatch.setattr("hamholes.disjoint.find_hamilton", counting)
    find_edge_disjoint_hamilton(g)
    assert len(searches) == 1 + len(finds)


def test_disconnected_certificate_walks_only_what_it_keeps(count_yields):
    g = disjoint_union(cycle_graph(3000), complete_graph(4))
    walks = count_yields("hamholes.hamilton")
    c = disconnected_certificate(g)
    assert c.k == 4
    assert [(h.s_side, h.t_side) for h in c.pairs] == [
        ((0,), (3000, 3001, 3002)),
        ((0, 1), (3000, 3001)),
    ]
    assert walks == [3, 3]


def test_reopen_cycle_picks_lowest_attachment():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    p = reopen_cycle(CycleSeq(g, (0, 1, 2, 3)))
    # vertex 4 sits outside; its lowest cycle neighbour 0 starts the walk
    assert p.order == (4, 0, 1, 2, 3)
    spanning = CycleSeq(g, (2, 3, 0, 4, 1))
    with pytest.raises(ValueError):
        reopen_cycle(spanning)  # nothing left outside the cycle
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ContractViolationError) as exc:
        reopen_cycle(CycleSeq(two_triangles, (0, 1, 2)))  # nothing attaches
    assert str(exc.value) == "no edge attaches the cycle to the rest"


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

    def broken(p):
        return CycleSeq._trusted(p.graph, (0, 2, 1, 3, 4), p.mask)

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
