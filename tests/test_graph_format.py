"""Differential property tests: the bulk parse of canonical text against the
line-by-line loop, and Graph() against a per-edge reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hamholes.errors import GraphFormatError
from hamholes.graph import Graph, parse_graph, serialize_graph

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def edge_lists(draw, min_edges=0):
    """(n, edges): a simple graph's edges in random order and orientation."""
    n = draw(st.integers(3 if min_edges else 0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


def canonical(n, lines):
    return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"


def padded(text):
    # Same content, off the canonical layout: the line-by-line loop reads it.
    return "".join(line + " \n" for line in text.splitlines())


def outcome(text):
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        return (str(exc), exc.line)


@SETTINGS
@given(edge_lists())
def test_round_trip_and_both_paths_agree(case):
    n, edges = case
    g = Graph(n, edges)
    assert parse_graph(serialize_graph(g)) == g
    text = canonical(n, [f"{u} {v}" for u, v in edges])
    assert parse_graph(text) == g
    assert parse_graph(padded(text)) == g


CORRUPTIONS = (
    "reversed-duplicate",
    "self-loop",
    "vertex-n",
    "third-field",
    "non-digit",
    "extra-line",
    "missing-line",
)


@SETTINGS
@given(edge_lists(min_edges=2), st.sampled_from(CORRUPTIONS), st.data())
def test_corrupt_line_same_error_on_both_paths(case, corruption, data):
    n, edges = case
    lines = [f"{u} {v}" for u, v in edges]
    i = data.draw(st.integers(0, len(lines) - 1))
    u, v = edges[i]
    if corruption == "reversed-duplicate":
        j = data.draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i] = f"{edges[j][1]} {edges[j][0]}"
    elif corruption == "self-loop":
        lines[i] = f"{u} {u}"
    elif corruption == "vertex-n":
        lines[i] = f"{u} {n}"
    elif corruption == "third-field":
        lines[i] = f"{u} {v} {u}"
    elif corruption == "non-digit":
        lines[i] = f"{u} x"
    elif corruption == "extra-line":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    header = f"{n} {len(edges)}"
    text = "\n".join([header, *lines]) + "\n"
    fast, slow = outcome(text), outcome(padded(text))
    assert isinstance(fast, tuple), "corrupted text parsed"
    assert fast == slow


def reference_error(n, edges):
    """The first bad edge's message, checking edges one at a time."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"vertex out of range in edge ({u}, {v})"
        if u == v:
            return f"self-loop at vertex {u}"
        if frozenset((u, v)) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(frozenset((u, v)))
    return None


@SETTINGS
@given(
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8)), max_size=12),
)
def test_graph_matches_per_edge_reference(n, edges):
    expected = reference_error(n, edges)
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert g.m == len(edges)
    assert set(g.edges()) == {(min(e), max(e)) for e in edges}
