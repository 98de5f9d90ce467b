"""Differential property tests: the bulk parse of canonical text against the
line-by-line loop, parse_graph against a line-by-line reference reader, and
Graph() against a per-edge reference."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamholes.errors import GraphFormatError
from hamholes.graph import (
    Graph,
    _parse_canonical,
    gnp_graph,
    parse_graph,
    serialize_graph,
)

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
    # Leading zeros are off the bulk path's number syntax; the loop reads them.
    zeros = canonical(f"00{n}", [f"00{u} {v}" for u, v in edges])
    assert outcome(zeros) == outcome(padded(zeros)) == g


# A digit count past Python's default int-to-str limit (4300 digits).
LONG_NUMBER = "1" * 4301

# The same graph: the loop reads the first three, which are off the
# canonical layout, and the bulk parse strips the extra final newline.
HARMLESS = ("trailing-space", "tab", "crlf", "double-final-newline")

CORRUPTIONS = (
    "reversed-duplicate",
    "self-loop",
    "vertex-n",
    "third-field",
    "non-digit",
    "extra-line",
    "missing-line",
    "long-header",
    "long-edge",
    *HARMLESS,
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
    elif corruption == "missing-line":
        del lines[i]
    elif corruption == "long-edge":
        lines[i] = f"{u} {LONG_NUMBER}"
    elif corruption == "trailing-space":
        lines[i] += " "
    elif corruption == "tab":
        lines[i] = f"{u}\t{v}"
    elif corruption == "crlf":
        lines[i] += "\r"
    header = f"{n} {len(edges)}"
    if corruption == "long-header":
        header = f"{LONG_NUMBER} {len(edges)}"
    text = "\n".join([header, *lines]) + "\n"
    if corruption == "double-final-newline":
        text += "\n"
    fast, slow = outcome(text), outcome(padded(text))
    if corruption in HARMLESS:
        assert fast == Graph(n, edges)
    else:
        assert isinstance(fast, tuple), "corrupted text parsed"
    assert fast == slow


FINAL_NEWLINE_CASES = ("good", "reversed-duplicate", "self-loop", "vertex-n", "missing")


@SETTINGS
@given(edge_lists(min_edges=2), st.sampled_from(FINAL_NEWLINE_CASES), st.integers(2, 3))
def test_extra_final_newlines_parse_as_one(case, corruption, newlines):
    # Two or three final newlines give the same graph, or the same error at
    # the same line, as one; a good canonical text still takes the bulk parse.
    n, edges = case
    lines = [f"{u} {v}" for u, v in edges]
    u, v = edges[0]
    if corruption == "reversed-duplicate":
        lines[-1] = f"{v} {u}"
    elif corruption == "self-loop":
        lines[-1] = f"{u} {u}"
    elif corruption == "vertex-n":
        lines[-1] = f"{u} {n}"
    elif corruption == "missing":
        del lines[-1]
    text = "\n".join([f"{n} {len(edges)}", *lines]) + "\n"
    more = text + "\n" * (newlines - 1)
    assert outcome(more) == outcome(text)
    if corruption == "good":
        assert _parse_canonical(more) == Graph(n, edges)


@pytest.mark.parametrize(
    "text,expected",
    [
        (f"{LONG_NUMBER} 0\n", ("line 1: expected header 'n m'", 1)),
        (f"{LONG_NUMBER} 0", ("line 1: expected header 'n m'", 1)),
        (f"3 1\n0 {LONG_NUMBER}\n", ("line 2: expected edge 'u v'", 2)),
        (f"3 2\n0 1\n{LONG_NUMBER} 2\n", ("line 3: expected edge 'u v'", 3)),
    ],
)
def test_number_past_digit_limit_is_a_format_error(text, expected):
    assert outcome(text) == outcome(padded(text)) == expected


# G(60, 0.5) fills its rows well past 1/16 on average (32m >= n^2), so the
# bulk parse writes digit rows; 50 edges on 200 vertices stay below that, so
# it sets each edge's two bits in int rows.
PAIRS_200 = [(u, v) for u in range(200) for v in range(u + 1, 200)]
ROW_PATHS = {
    "digit-rows": gnp_graph(60, 0.5, 1),
    "sparse-rows": Graph(200, random.Random(1).sample(PAIRS_200, 50)),
}


@pytest.mark.parametrize("corruption", ["reversed-duplicate", "self-loop", "vertex-n"])
@pytest.mark.parametrize("path", ROW_PATHS)
def test_bad_edge_same_error_on_both_row_paths(path, corruption):
    g = ROW_PATHS[path]
    lines = serialize_graph(g).split("\n")
    k = len(lines) // 2  # an edge line in the middle, line k + 1 of the text
    a, b = lines[1].split()
    u = lines[k].split()[0]
    lines[k], complaint = {
        "reversed-duplicate": (f"{b} {a}", f"duplicate edge {b} {a}"),
        "self-loop": (f"{u} {u}", f"self-loop at vertex {u}"),
        "vertex-n": (f"{u} {g.n}", f"vertex out of range in edge {u} {g.n}"),
    }[corruption]
    text = "\n".join(lines) + "\n"
    expected = (f"line {k + 1}: {complaint}", k + 1)
    assert outcome(text) == outcome(padded(text)) == expected


def test_huge_id_on_sparse_rows_is_out_of_range():
    # The sparse rows test the largest id before any shift.  An id past
    # 2**63 makes an unguarded shift raise OverflowError at once.
    huge = 10**20
    text = f"200 2\n0 1\n5 {huge}\n"
    expected = (f"line 3: vertex out of range in edge 5 {huge}", 3)
    assert outcome(text) == outcome(padded(text)) == expected


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


INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def reference_read(text):
    """Read graph text one line at a time by the format's rules, with no code
    from hamholes: (n, edges as sorted pairs) for a good text, else the first
    fault's (message, line); line is None for a fault found at the end.
    Lines end in "\n"; a "\r" before it is whitespace."""
    header = None
    edges = set()
    for number, line in enumerate(text.split("\n"), start=1):
        tokens = line.partition("#")[0].split()
        if not tokens:
            continue  # a blank or comment line
        pair = len(tokens) == 2 and all(INT_TOKEN.fullmatch(t) for t in tokens)
        if header is None:
            if not pair:
                return f"line {number}: expected header 'n m'", number
            n, m = map(int, tokens)
            if n < 0 or m < 0:
                return f"line {number}: header counts must be >= 0", number
            header = n, m
            continue
        if len(edges) == m:
            fault = f"more than {m} edge lines"
        elif not pair:
            fault = "expected edge 'u v'"
        else:
            u, v = map(int, tokens)
            if not (0 <= u < n and 0 <= v < n):
                fault = f"vertex out of range in edge {u} {v}"
            elif u == v:
                fault = f"self-loop at vertex {u}"
            elif (min(u, v), max(u, v)) in edges:
                fault = f"duplicate edge {u} {v}"
            else:
                edges.add((min(u, v), max(u, v)))
                continue
        return f"line {number}: {fault}", number
    if header is None:
        return "missing header 'n m'", None
    if len(edges) != m:
        return f"expected {m} edge lines, found {len(edges)}", None
    return n, edges


NOISE = ("", "  ", "# c", "  # 0 1", "x", "1", "0 1 2", "0 x", "+1 02", "1\t0")
# Mostly a good header, so that most texts reach their edge lines.
HEADERS = ("{n} {m}",) * 6 + ("{n} {m} # h", "{n}", "{n} {m} 0", "x {m}", "-1 {m}")


@st.composite
def graph_texts(draw):
    """Graph text with comment and blank lines, bad tokens, extra or missing
    lines, out-of-range ids, self-loops, duplicates, tabs and CRLF ends."""
    n = draw(st.integers(0, 6))
    # Mostly in-range ids; -1 and n are out of range.
    ids = st.sampled_from([*range(n)] * 4 + [-1, n]).map(str)
    edge = st.builds("{} {}{}".format, ids, ids, st.sampled_from(["", "", " # c"]))
    noise = st.sampled_from(NOISE)
    body = draw(st.lists(st.one_of(edge, edge, edge, noise), max_size=10))
    data = sum(bool(line.partition("#")[0].split()) for line in body)
    m = draw(st.one_of(st.just(data), st.integers(-1, data + 1)))
    header = draw(st.sampled_from(HEADERS)).format(n=n, m=m)
    lead = draw(st.lists(st.sampled_from(["", "# c", " #"]), max_size=2))
    # One text in ten has no header line.
    lines = lead + ([header] if draw(st.integers(0, 9)) else []) + body
    ends = st.sampled_from(["\n", "\n", "\r\n"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_parse_matches_line_reference(text):
    expected = reference_read(text)
    for layout in (text, padded(text)):
        got = outcome(layout)
        if isinstance(got, Graph):
            got = got.n, set(got.edges())
        assert got == expected
