"""Graph construction, families, the spec mini-language, and the text format."""

import random
import tracemalloc

import pytest

from hamholes import graph as graph_module
from hamholes.errors import GraphFormatError
from hamholes.graph import (
    FAMILIES,
    Graph,
    bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    external_neighborhood,
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


def test_components_and_min_degree():
    g = Graph(5, [(3, 4), (0, 1)])
    assert components(g) == [[0, 1], [2], [3, 4]]
    assert min_degree(g) == 0
    assert components(cycle_graph(4)) == [[0, 1, 2, 3]]
    with pytest.raises(ValueError):
        min_degree(Graph(0))


def test_external_neighborhood():
    g = cycle_graph(5)
    assert external_neighborhood(g, [0]) == {1, 4}
    assert external_neighborhood(g, [0, 1]) == {2, 4}
    assert external_neighborhood(g, range(5)) == set()


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


@pytest.mark.parametrize("p", [0.0, 0.01, 0.3, 0.5, 1.0])
def test_gnp_rows_match_the_edge_list_construction(p):
    for n in range(1, 41):
        for seed in range(25):
            got = gnp_graph(n, p, seed)
            assert got.adj_bits == _gnp_through_graph(n, p, seed).adj_bits, (n, seed)


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
    with pytest.raises(ValueError):
        generate("complement-of complete 3")  # missing parentheses
    with pytest.raises(ValueError):
        generate("")


# ---------------------------------------------------------------------------
# text format


def _circulant(n, steps):
    return Graph(n, [(u, (u + s) % n) for u in range(n) for s in steps])


# Rows are built three ways: small rows, dense rows (complete_graph(300))
# and wide sparse rows (the 22-regular circulant on 4096 vertices).
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


def test_serialize_layout():
    text = serialize_graph(Graph(3, [(0, 2), (0, 1)]))
    assert text == "3 2\n0 1\n0 2"  # header, then lexicographic edges


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
