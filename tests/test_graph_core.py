"""Graph construction, families, the spec mini-language, and the text format."""

import math
import random
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusutil import random_graphs, to_nx
from hamholes import graph as graph_module
from hamholes.errors import GraphFormatError
from hamholes.graph import (
    FAMILIES,
    Graph,
    _bits,
    bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    fan_example_graph,
    generate,
    gnp_graph,
    min_degree,
    parse_graph,
    path_graph,
    petersen_graph,
    serialize_graph,
)
from hamholes.hardness import parse_instance

# ---------------------------------------------------------------------------
# Graph basics


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.degree(0) == 2 and g.degrees == (2, 2, 1, 1)
    assert g.neighbors(1) == (0, 2)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_vertex_accessors_refuse_out_of_range_ids():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    for v in (-1, 4):
        for accessor in (g.degree, g.neighbors):
            with pytest.raises(ValueError, match=rf"^vertex out of range: {v}$"):
                accessor(v)
    with pytest.raises(ValueError, match=r"^vertex out of range: \(0, -1\)$"):
        g.has_edge(0, -1)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 0\)$"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="vertex count"):
        Graph(-1, [])
    # The first bad edge in input order is the one named.
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(3, [(0, 1), (2, 2), (0, 5)])
    with pytest.raises(ValueError, match=r"^vertex out of range in edge \(0, 5\)$"):
        Graph(3, [(0, 5), (2, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(0, 1, 2), (3,)])  # four endpoints, as two pairs have


def test_construction_accepts_any_pair_shape():
    # Any iterable of two endpoints is an edge, even one without len().
    g = Graph(4, iter([[0, 1], {1, 2}, iter((2, 3))]))
    assert g == path_graph(4)


def test_construction_accepts_index_like_vertex_ids():
    np = pytest.importorskip("numpy")
    ids = np.arange(4, dtype=np.int64)
    assert Graph(4, zip(ids[:-1], ids[1:])) == path_graph(4)
    with pytest.raises(ValueError, match="self-loop"):
        Graph(4, [(ids[2], ids[2])])


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert a != Graph(4, [(0, 1), (1, 2)])
    assert Graph(1).__eq__(1) is NotImplemented
    assert Graph(1) != 1


def test_complement_involution_and_c5():
    c5 = cycle_graph(5)
    co = c5.complement()
    assert co.m == 5 and co.degrees == (2,) * 5
    assert co.complement() == c5
    assert complete_graph(4).complement().m == 0


def test_remove_edges():
    g = complete_graph(4)
    h = g.remove_edges([(0, 1), (2, 3)])
    assert h.m == 4 and not h.has_edge(0, 1) and not h.has_edge(3, 2)
    assert g.m == 6  # original untouched
    with pytest.raises(ValueError, match="not an edge"):
        h.remove_edges([(0, 1)])


def _random_cycle_graph(rng, n, k):
    # A random graph on n vertices that holds a random k-cycle; the cycle's
    # order starts anywhere.
    order = rng.sample(range(n), k)
    pairs = {frozenset(e) for e in zip(order, order[1:] + order[:1])}
    pairs |= {
        frozenset((u, v))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.4
    }
    return Graph(n, [tuple(e) for e in pairs]), order


def _cycle_pairs(order):
    # CycleSeq.edges(): the wrap-around pair first.
    return [(order[i - 1], order[i]) for i in range(len(order))]


def test_remove_cycle_equals_remove_edges():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randrange(3, 40)
        g, order = _random_cycle_graph(rng, n, rng.randrange(3, n + 1))
        h = g._remove_cycle(order)
        assert h == g.remove_edges(_cycle_pairs(order))
        assert h.m == g.m - len(order)
        assert g._remove_cycle(tuple(order)) == h


@pytest.mark.parametrize("missing", [0, 1, 2, -1])
def test_remove_cycle_refuses_a_missing_edge_as_remove_edges_does(missing):
    # The missing pair is the wrap-around pair (0), the pair after it (1),
    # a middle pair or the last one; a second missing pair further on
    # must not be the one named.
    rng = random.Random(missing)
    for _ in range(20):
        n = rng.randrange(5, 30)
        g, order = _random_cycle_graph(rng, n, rng.randrange(5, n + 1))
        pairs = _cycle_pairs(order)
        gone = [pairs[missing]]
        if missing != -1:
            gone.append(pairs[-1])
        h = g.remove_edges(gone)
        with pytest.raises(ValueError) as want:
            h.remove_edges(pairs)
        with pytest.raises(ValueError) as got:
            h._remove_cycle(order)
        u, v = pairs[missing]
        assert str(got.value) == str(want.value) == f"not an edge: ({u}, {v})"


def test_remove_cycle_refuses_out_of_range_vertices():
    g = complete_graph(4)
    for order in [(0, 1, 4), (0, 4, 1), (-1, 0, 1)]:
        with pytest.raises(ValueError) as want:
            g.remove_edges(_cycle_pairs(order))
        with pytest.raises(ValueError) as got:
            g._remove_cycle(order)
        assert str(got.value) == str(want.value)


def _outcome(call):
    # The returned graph, or the message of the ValueError raised.
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def cycle_sequences(draw):
    # A graph on n vertices holding the cycle through a random sequence of
    # distinct ids, plus random edges; then, by choice, one cycle pair
    # removed, one vertex repeated, or one id moved out of range.
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    pairs = {frozenset(e) for e in zip(order[-1:] + order[:-1], order)}
    pairs = {e for e in pairs if len(e) == 2}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pairs |= {frozenset(e) for e in extra if e[0] != e[1]}
    g = Graph(n, [tuple(e) for e in pairs])
    flaw = draw(st.sampled_from(["none", "missing", "repeat", "range"]))
    i = draw(st.integers(0, len(order) - 1))
    if flaw == "missing" and len(order) >= 3:
        g = g.remove_edges([(order[i - 1], order[i])])
    elif flaw == "repeat":
        order.insert(draw(st.integers(0, len(order))), order[i])
    elif flaw == "range":
        order[i] = draw(st.sampled_from([-2, -1, n, n + 5]))
    return g, order


@settings(max_examples=300, deadline=None)
@given(cycle_sequences())
@example((complete_graph(4), [0, 1, 2]))  # a valid cycle
@example((complete_graph(4), [0, 1, 2, 1]))  # a repeat whose pair repeats
@example((complete_graph(5), [0, 1, 2, 0, 3, 4]))  # a figure eight
@example((complete_graph(3), [1]))  # length 1: the pair (1, 1)
@example((complete_graph(3), [1, 2]))  # length 2: the edge twice
@example((complete_graph(3), [0, -1, 1]))
@example((complete_graph(3), [0, 1, 3]))
def test_remove_cycle_is_remove_edges_on_any_sequence(case):
    # The same graph, or the same error on the same first pair, as
    # remove_edges on the pairs of CycleSeq.edges(), wrap-around first.
    g, order = case
    want = _outcome(lambda: g.remove_edges(_cycle_pairs(order)))
    assert _outcome(lambda: g._remove_cycle(order)) == want
    assert _outcome(lambda: g._remove_cycle(tuple(order))) == want


def _count_subtraction_work(monkeypatch):
    # Graphs built (Graph._from_rows) and remove_edges calls.
    calls = {"_from_rows": 0, "remove_edges": 0}
    from_rows, remove_edges = Graph._from_rows, Graph.remove_edges

    def counted_rows(cls, n, rows):
        calls["_from_rows"] += 1
        return from_rows(n, rows)

    def counted_remove(self, pairs):
        calls["remove_edges"] += 1
        return remove_edges(self, pairs)

    monkeypatch.setattr(Graph, "_from_rows", classmethod(counted_rows))
    monkeypatch.setattr(Graph, "remove_edges", counted_remove)
    return calls


def test_remove_cycle_hands_over_only_what_it_cannot_subtract(monkeypatch):
    # A cycle costs one graph and no remove_edges; a missing pair stops
    # the row updates before any graph is built; a repeat builds a graph
    # that loses too few edges, and remove_edges answers.
    g = complete_graph(6)
    h = g.remove_edges([(2, 4)])
    calls = _count_subtraction_work(monkeypatch)
    g._remove_cycle((0, 2, 4, 1))
    assert calls == {"_from_rows": 1, "remove_edges": 0}
    calls.update(dict.fromkeys(calls, 0))
    with pytest.raises(ValueError, match=r"^not an edge: \(2, 4\)$"):
        h._remove_cycle((0, 2, 4, 1))
    assert calls == {"_from_rows": 0, "remove_edges": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert g._remove_cycle((0, 1, 2, 0, 3, 4)).m == g.m - 6
    assert calls == {"_from_rows": 2, "remove_edges": 1}


def test_components_and_min_degree():
    g = Graph(5, [(3, 4), (0, 1)])
    # Only the two lowest components: those of 0 and of 2, not that of 3.
    assert components(g) == [0b11, 0b100]
    assert min_degree(g) == 0
    assert components(cycle_graph(4)) == [0b1111]
    assert components(Graph(0)) == []
    with pytest.raises(ValueError):
        min_degree(Graph(0))


def test_components_match_networkx(corpus_upto5):
    nx = pytest.importorskip("networkx")
    graphs = list(corpus_upto5)
    for i, p in enumerate((0.02, 0.05, 0.1, 0.3)):
        graphs += random_graphs(30, 25, seed=i, p=p)
    for g in graphs:
        # networkx's components of vertex 0 and of the lowest vertex outside
        # it, and one mask exactly when g is connected.
        h = to_nx(g)
        masks = components(g)
        comps = sorted(sorted(c) for c in nx.connected_components(h))
        assert [list(_bits(mask)) for mask in masks] == comps[:2], g
        assert (len(masks) == 1) == nx.is_connected(h), g


def test_components_stop_a_level_once_they_span(count_yields):
    # Vertex 0's row spans K50, and so does the first row of the next
    # level: each level walks one vertex, where a full level walks 49.
    walks = count_yields("hamholes.graph")
    assert components(complete_graph(50)) == [2**50 - 1]
    assert walks == [1, 1]
    # Vertex 0's K5 never spans the graph, so its second level walks all
    # four; the K4 spans what is left, and its levels walk one vertex each.
    walks.clear()
    g = disjoint_union(complete_graph(5), complete_graph(4))
    assert components(g) == [0b11111, 0b1111 << 5]
    assert walks == [1, 4, 1, 1]


def test_disjoint_union():
    g = disjoint_union(complete_graph(3), cycle_graph(4))
    assert g.n == 7 and g.m == 7
    assert g.has_edge(0, 2) and g.has_edge(3, 4) and g.has_edge(3, 6)
    assert not g.has_edge(2, 3)


# ---------------------------------------------------------------------------
# named families


def test_families_sizes_and_degrees():
    assert complete_graph(5).m == 10
    assert bipartite_graph(2, 3).degrees == (3, 3, 2, 2, 2)
    assert cycle_graph(6).degrees == (2,) * 6
    assert path_graph(4).degrees == (1, 2, 2, 1)
    p = petersen_graph()
    assert p.n == 10 and p.m == 15 and p.degrees == (3,) * 10


def test_fan_example_structure():
    # hub + clique B (size k+l) + independent C (size k) + clique D (size l+1)
    g = fan_example_graph(4, 1)
    k, l = 4, 1
    assert g.n == 2 * k + 2 * l + 2 == 12
    hub = 0
    b = list(range(1, k + l + 1))
    c = list(range(k + l + 1, 2 * k + l + 1))
    d = list(range(2 * k + l + 1, 2 * k + 2 * l + 2))
    assert g.neighbors(hub) == tuple(b)
    for u in c:
        for v in c:
            if u != v:
                assert not g.has_edge(u, v)
    for u in d:
        assert g.has_edge(u, d[0]) or u == d[0]
    with pytest.raises(ValueError):
        fan_example_graph(3, 1)  # needs k >= l + 3
    with pytest.raises(ValueError):
        fan_example_graph(5, 0)


def test_gnp_determinism_and_validation():
    a = gnp_graph(12, 0.4, seed=7)
    b = gnp_graph(12, 0.4, seed=7)
    assert a == b
    assert a != gnp_graph(12, 0.4, seed=8)
    assert gnp_graph(5, 0.0, seed=1).m == 0
    assert gnp_graph(5, 1.0, seed=1).m == 10
    with pytest.raises(ValueError):
        gnp_graph(5, 1.5, seed=1)
    with pytest.raises(ValueError):
        gnp_graph(5, 0.5, seed=None)


def _gnp_through_graph(n, p, seed):
    # Reference: one draw per pair in lexicographic order, the edges
    # through the checked constructor.
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@pytest.mark.parametrize(
    "p",
    [0.0, 0.01, 0.3, 0.5, 1.0]
    + [1 / 16, math.nextafter(1 / 16, 0), 0.05, Decimal("0.0625")],
)
def test_gnp_rows_match_the_edge_list_construction(p):
    # Rows of 64 pairs or more (n >= 65) read their draws in bulk, in 16
    # blocks of ceil(L / 16) of the L long rows: n = 65 has one long row,
    # and n = 81 blocks of 2 whose last holds a single row.
    for n in [*range(1, 41), 63, 64, 65, 66, 81, 130, 300]:
        for seed in range(25 if n < 100 else 4):
            got = gnp_graph(n, p, seed)
            assert got.adj_bits == _gnp_through_graph(n, p, seed).adj_bits, (n, seed)


def test_gnp_bulk_words_are_the_draws():
    # gnp_graph's long rows rest on this layout: random() is made from two
    # consecutive 32-bit words a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53,
    # and getrandbits puts its first word in the lowest bits.
    for seed in range(1000):
        words = random.Random(seed).getrandbits(64)
        a, b = words & 0xFFFFFFFF, words >> 32
        assert ((a >> 5) * 2**26 + (b >> 6)) / 2**53 == random.Random(seed).random()


def test_gnp_matches_at_the_top_byte_boundaries():
    # A long row decides a draw from its top byte unless that byte is the
    # one p falls in; p at j/256 and beside it moves that byte's edge.
    ps = [-0.0, 5e-324, 1 - 2**-53]
    for j in range(257):
        ps += [math.nextafter(j / 256, 0), j / 256, math.nextafter(j / 256, 1)]
    for p in ps:
        got = gnp_graph(130, p, 2)
        assert got.adj_bits == _gnp_through_graph(130, p, 2).adj_bits, p


@pytest.mark.parametrize("u,v", [(0, 7), (3, 90), (100, 120)], ids=str)
def test_gnp_draw_equal_to_p_is_no_edge(u, v):
    # The one p at which < and <= differ is a draw of the stream itself.
    # Row 0 and row 3 of G(130, p) read their draws in bulk, row 100 (29
    # pairs) one by one.
    n, seed = 130, 4
    index = u * n - u * (u + 1) // 2 + (v - u - 1)
    rng = random.Random(seed)
    p = [rng.random() for _ in range(index + 1)][index]
    got = gnp_graph(n, p, seed)
    assert not got.has_edge(u, v)
    assert got.adj_bits == _gnp_through_graph(n, p, seed).adj_bits


def test_gnp_long_rows_compare_p_as_short_rows_do():
    # A Decimal one digit past row 0's draw 7: its product with 2**53 rounds
    # to the draw's own N at Decimal's 28 digits, yet draw < p holds.
    rng = random.Random(2)
    draw = [rng.random() for _ in range(8)][7]
    p = Decimal(str(Decimal(draw)) + "1")
    assert draw < p and math.ceil(p * 2**53) == draw * 2**53
    got = gnp_graph(130, p, 2)
    assert got.has_edge(0, 8)
    assert got.adj_bits == _gnp_through_graph(130, p, 2).adj_bits


def test_gnp_memory_stays_per_row():
    # Each long row's draws take 8 bytes per pair while it is decided; one
    # getrandbits for the whole graph would take 128 MiB here.
    tracemalloc.start()
    try:
        g = gnp_graph(4000, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 4000
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "n,p",
    [(1500, 0.5), (2000, math.nextafter(1 / 16, 0)), (2000, 1 / 16)],
    ids=["dense", "below-one-sixteenth", "at-one-sixteenth"],
)
def test_gnp_rows_hold_one_block_buffer(n, p):
    # The rows take n^2 / 8 bytes and one block's digit buffer about
    # n^2 / 16, whatever p is; a second buffer alive at once would cross
    # twice the rows' bytes.
    tracemalloc.start()
    try:
        g = gnp_graph(n, p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n
    assert peak < 2**20
    assert peak < n * n / 4


# ---------------------------------------------------------------------------
# spec mini-language


def test_generate_atomic_and_composite():
    assert generate("complete 4") == complete_graph(4)
    assert generate("bipartite 2 3") == bipartite_graph(2, 3)
    assert generate("petersen") == petersen_graph()
    assert generate("gnp 10 0.5", seed=3) == gnp_graph(10, 0.5, seed=3)
    g = generate("complement-of (bipartite 2 3)")
    assert g == bipartite_graph(2, 3).complement()
    g = generate("disjoint-union (complete 3) (cycle 4)")
    assert g.n == 7 and g.m == 7
    nested = generate("complement-of (disjoint-union (complete 2) (complete 2))")
    assert nested == bipartite_graph(2, 2)


def test_generate_reaches_builders_through_the_module(monkeypatch):
    # perfbench's tracer replaces the module's globals with wrappers, so a
    # spec must reach each family's builder through them when it is parsed.
    values = {"n": "7", "p": "0.5", "a": "2", "b": "3", "k": "4", "l": "1"}
    for family, (builder, params) in FAMILIES.items():
        calls = []
        orig = getattr(graph_module, builder)
        monkeypatch.setattr(
            graph_module, builder, lambda *a, _f=orig: calls.append(a) or _f(*a)
        )
        spec = " ".join([family] + [values[param] for param in params])
        assert generate(spec, seed=3) == orig(*calls[0])
        assert len(calls) == 1


def test_generate_errors():
    with pytest.raises(ValueError, match="unknown family"):
        generate("tree 5")
    with pytest.raises(ValueError, match="expected a number"):
        generate("complete x")
    with pytest.raises(ValueError, match="trailing"):
        generate("complete 3 4")
    with pytest.raises(ValueError, match="seed"):
        generate("gnp 5 0.5")  # no seed supplied
    with pytest.raises(ValueError, match="^expected '\\(' introducing a sub-spec$"):
        generate("complement-of complete 3")  # missing parentheses
    with pytest.raises(ValueError, match="^empty family spec$"):
        generate("")
    with pytest.raises(ValueError, match="^empty family spec$"):
        generate("complement-of (")
    with pytest.raises(ValueError, match="^unknown family '\\)'$"):
        generate("complement-of ()")
    with pytest.raises(ValueError, match="^expected '\\(' introducing a sub-spec$"):
        generate("disjoint-union (cycle 3)")  # one sub-spec of two
    with pytest.raises(ValueError, match="^spec ended while expecting a number$"):
        generate("cycle")
    with pytest.raises(ValueError, match="^expected '\\)' closing a sub-spec$"):
        generate("complement-of (cycle 4")
    with pytest.raises(ValueError, match="^expected '\\)' closing a sub-spec$"):
        generate("complement-of (cycle 4 5)")  # a token where ')' belongs
    with pytest.raises(ValueError, match="^trailing tokens in spec: ,$"):
        generate("disjoint-union (cycle 3) (cycle 4),")  # no sub-spec follows


@pytest.mark.parametrize(
    "spec",
    [
        "disjoint-union (cycle 3), (cycle 4)",
        "disjoint-union (cycle 3), , (cycle 4)",
        "disjoint-union, (cycle 3) ,(cycle 4)",
        "complement-of , (disjoint-union (cycle 3),(cycle 4))",
    ],
)
def test_generate_skips_commas_before_a_sub_spec(spec):
    assert generate(spec) == generate(spec.replace(",", " "))
    assert generate(spec).n == 7


# ---------------------------------------------------------------------------
# text format


def _circulant(n, steps):
    return Graph(n, [(u, (u + s) % n) for u in range(n) for s in steps])


# A graph whose rows are on average at least 1/16 full is read through one
# digit row per vertex (complete_graph(300)); a sparser one has each edge's
# two bits set in int rows (the 22-regular circulant on 4096 vertices, whose
# rows are wide and sparse).
LARGE_ROWS = [complete_graph(300), _circulant(4096, [1, *range(300, 3300, 300)])]


def test_graph_round_trip():
    for g in [
        complete_graph(5),
        petersen_graph(),
        Graph(3),
        Graph(0),
        cycle_graph(100),
        gnp_graph(300, 0.02, 1),
        complete_graph(60),
        bipartite_graph(50, 70),
        bipartite_graph(1, 4095),
        *LARGE_ROWS,
    ]:
        text = serialize_graph(g)
        lines = [f"{g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges())]
        assert text == "\n".join(lines)
        assert parse_graph(text) == g
        assert parse_graph(text.replace("\n", " \n")) == g
        assert Graph(g.n, g.edges()) == g


@pytest.mark.parametrize("g", LARGE_ROWS, ids=["dense", "wide"])
def test_parse_rejects_duplicate_in_large_rows(g):
    lines = serialize_graph(g).split("\n")
    u, v = lines[1].split()
    lines[-1] = f"{v} {u}"
    for sep in ("\n", " \n"):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(sep.join(lines))
        assert str(err.value) == f"line {len(lines)}: duplicate edge {v} {u}"


@pytest.mark.parametrize(
    "n,edges,sparse",
    [
        (8, [(0, 1), (2, 3)], False),  # 32m = n^2: digit rows
        (8, [(0, 1)], True),  # 32m < n^2: int rows
        (0, [], False),
        (1, [], True),
    ],
)
def test_row_builder_switches_at_one_sixteenth(monkeypatch, n, edges, sparse):
    expected = Graph(n, edges)
    # The digit rows take one setitem per edge end; the int rows take none.
    writes = []
    setitem = graph_module.setitem
    monkeypatch.setattr(
        graph_module, "setitem", lambda *args: writes.append(1) or setitem(*args)
    )
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    # Canonical with or without the final newline that gen writes: the bulk
    # parse returns the graph itself on both sides of the rule, and never
    # leaves it to the line loop.
    for text in ("\n".join(lines), "\n".join(lines) + "\n"):
        writes.clear()
        g = graph_module._parse_canonical(text)
        assert g is not None and g == expected
        assert len(writes) == (0 if sparse else 2 * len(edges))
    # The line loop reads the same graph.
    assert parse_graph("".join(line + " \n" for line in lines)) == expected


def test_serialize_layout():
    text = serialize_graph(Graph(3, [(0, 2), (0, 1)]))
    assert text == "3 2\n0 1\n0 2"  # header, then lexicographic edges


@st.composite
def mixed_rows(draw):
    """A graph on 0-150 vertices whose rows each draw their own density."""
    n = draw(st.integers(0, 150))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = st.sampled_from([0.0, 0.01, 1 / 32, 0.1, 1.0])
    ps = draw(st.lists(density, min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [(u, v) for u, v in pairs if rng.random() < ps[u]])


# Row 0 has 1 bit among the 32 above it, the least a row serialize_graph
# treats as dense can have; row 1 has 1 among 33, and is walked as sparse.
@example(Graph(35, [(0, 32), (1, 34)]))
@given(mixed_rows())
@settings(max_examples=60, deadline=None)
def test_serialize_matches_the_per_edge_reference(g):
    reference = "\n".join([f"{g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges())])
    assert serialize_graph(g) == reference


def test_serialize_allocation_follows_text():
    # About 122k edges and 0.94 MB of text: one string per edge would peak
    # near 9 MB, one per row near 2 MB.
    g = gnp_graph(700, 0.5, 1)
    tracemalloc.start()
    try:
        text = serialize_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == g.m
    assert peak < 4 * 2**20


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n3 1\n\n0 1\n# trailing\n")
    assert g == Graph(3, [(0, 1)])


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("", "header"),
        ("3\n", "header"),
        ("3 1\n", "expected 1 edge lines"),
        ("3 0\n0 1\n", "more than 0 edge lines"),
        ("3 1\n0 0\n", "self-loop"),
        ("3 1\n0 3\n", "out of range"),
        ("3 2\n0 1\n1 0\n", "duplicate"),
        ("3 1\n0 x\n", "expected edge"),
        ("x 1\n0 1\n", "header"),
    ],
)
def test_parse_rejects_malformed(text, complaint):
    with pytest.raises(GraphFormatError, match=complaint):
        parse_graph(text)


def test_parse_error_reports_physical_line():
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph("# comment\n3 2\n0 1\n1 1\n")


@pytest.mark.parametrize(
    "text", ["100000 1\n0 99999\n", "# slow path\n100000 1\n0 99999\n"]
)
def test_parse_allocation_follows_edges(text):
    # A wide header with one edge must not reserve n rows of n bits.
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (100000, 1) and g.has_edge(99999, 0)
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "text", ["1000000 0\n", "# slow path\n1000000 0\n"], ids=["canonical", "loop"]
)
def test_largest_header_allocates_few_bytes_per_vertex(text):
    # The header limit with no edges: the rows, their tuple and the degrees
    # take 8 bytes per vertex each, about 23 MiB.  An empty list per vertex
    # would add about 53 MiB more.
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (10**6, 0)
    assert peak < 32 * 2**20


def parse_peak(text):
    """The parsed graph and the tracemalloc peak of parsing text."""
    tracemalloc.start()
    try:
        parsed = parse_graph(text)
        return parsed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,p", [(700, 0.5), (4000, 0.01)])
def test_canonical_parse_allocation_follows_edges(n, p):
    # About 122k and 80k edges.  The numbers and their two column slices,
    # plus the digit rows of G(700, 0.5) or the rows that Graph(n, edges)
    # grows for G(4000, 0.01), peak near 10 and 9 MB; a layout regex holding
    # backtracking state per line would peak near 24 and 16 MB.
    g = gnp_graph(n, p, 1)
    parsed, peak = parse_peak(serialize_graph(g) + "\n")
    assert parsed == g
    assert peak < 13 * 2**20


@pytest.mark.parametrize("n,p", [(700, 0.5), (4000, 0.01)])
def test_commented_parse_allocation_follows_edges(n, p):
    # The same texts behind a comment line, which the line loop reads: its
    # lines and rows peak near 8 MB.  A set of edge tuples and two id lists
    # next to them would peak near 24 and 20 MB.
    g = gnp_graph(n, p, 1)
    parsed, peak = parse_peak("# c\n" + serialize_graph(g) + "\n")
    assert parsed == g
    assert peak < 13 * 2**20


@pytest.mark.parametrize(
    "build",
    [lambda: Graph(20_000), lambda: parse_instance("10000 10000 1\n").graph],
    ids=["Graph", "parse_instance"],
)
def test_construction_allocation_follows_edges(build):
    # 20000 empty rows must not reserve 20000 * 2500 bytes before any edge.
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (20_000, 0)
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_graph, "100000000 0\n"),
        (parse_graph, "# slow path\n100000000 0\n"),
        (parse_instance, "50000000 50000000 1\n"),
    ],
    ids=["canonical", "slow-path", "parse_instance"],
)
def test_oversized_header_is_refused_before_allocation(parse, text):
    # An empty graph on 10^8 vertices would take gigabytes of rows.
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="more than 1000000 vertices"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_vertex_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_PARSED_VERTICES", 10)
    refused = "line {}: header asks for more than 10 vertices"
    for lineno, text in ((1, "10 1\n0 9\n"), (2, "# slow path\n10 1\n0 9\n")):
        assert parse_graph(text).n == 10
        with pytest.raises(GraphFormatError, match=refused.format(lineno)):
            parse_graph(text.replace("10 1", "11 1"))
    assert parse_instance("5 5 1\n0 9\n").graph.n == 10
    with pytest.raises(GraphFormatError, match=refused.format(1)):
        parse_instance("6 6 1\n0 9\n")
