"""Graph representation, parsing/serialization and named generators.

Vertices are always 0..n-1.  Adjacency is a tuple of per-vertex Python-int
bitmasks, so neighborhood unions, intersections and popcounts are word
operations; every algorithm in the package works directly on these masks.
"""

from __future__ import annotations

import random
import re
from collections import deque
from collections.abc import Iterable
from itertools import compress, repeat
from operator import index, setitem

from hamholes.errors import GraphFormatError

Edge = tuple[int, int]


class Graph:
    """Immutable simple undirected graph.

    ``adj_bits[v]`` has bit ``u`` set iff ``uv`` is an edge.  Instances are
    never mutated after construction; derived graphs (complement, edge
    removal, unions) are new objects.
    """

    __slots__ = ("n", "m", "_adj", "_deg")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        # Int rows grow with the edges; nothing of size n * n is reserved.
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            u, v = index(u), index(v)
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(n, rows)

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[int]) -> Graph:
        # Trusted fast path: rows must already be a valid symmetric,
        # loop-free adjacency.  Internal use only.
        g = object.__new__(cls)
        g._set_rows(n, rows)
        return g

    def _set_rows(self, n: int, rows: Iterable[int]) -> None:
        self.n = n
        self._adj = tuple(rows)
        self._deg = tuple(map(int.bit_count, self._adj))
        self.m = sum(self._deg) // 2

    @property
    def adj_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (read-only)."""
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex out of range: {v}")
        return self._deg[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex out of range: {v}")
        return tuple(_bits(self._adj[v]))

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self._adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def remove_edges(self, pairs: Iterable[Edge]) -> Graph:
        """New graph with the given edges deleted; every pair must be an edge."""
        rows = list(self._adj)
        for u, v in pairs:
            if not (0 <= u < self.n and 0 <= v < self.n) or not (rows[u] >> v) & 1:
                raise ValueError(f"not an edge: ({u}, {v})")
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph._from_rows(self.n, rows)

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        return Graph._from_rows(
            self.n, (full & ~row & ~(1 << v) for v, row in enumerate(self._adj))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row(nbrs: list[int]) -> int:
    """Bitmask of the vertices in ``nbrs``: one byte per 8 vertices, each
    entry set in place, then read by int.from_bytes.  A repeated vertex sets
    its bit once, so the row ends up with fewer bits than ``nbrs`` has
    entries."""
    width = max(nbrs, default=-1) + 1
    packed = bytearray((width + 7) // 8)
    for v in nbrs:
        packed[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(packed, "little")


def _edge_rows(n: int, us: list[int], vs: list[int]) -> list[int] | None:
    """Adjacency rows of the graph on 0..n-1 with edges ``us[i] vs[i]``, or
    None if an edge has a vertex out of range, is a self-loop or repeats.

    Both callers pass non-negative ids (the canonical layout admits only
    digits, and the line loop range-checks each edge), so only the upper
    bound is checked.  One rule per graph, with no rule per row, picks the
    builder: when the rows are on average at least 1/16 full (32m >= n^2,
    so the buffers take at most 32 bytes per edge), both ends of every edge
    write a "1" straight into one ASCII digit row per vertex, where an
    out-of-range id raises IndexError; sparser graphs get neighbour lists,
    each row built by _row.  The checks and the per-edge work run in C-level
    builtins; only the rows are built per vertex.
    """
    if 32 * len(us) >= n * n:
        digits = [bytearray(b"0") * n for _ in range(n)]
        row = digits.__getitem__
        try:
            deque(map(setitem, map(row, us), vs, repeat(ord("1"))), maxlen=0)
            deque(map(setitem, map(row, vs), us, repeat(ord("1"))), maxlen=0)
        except IndexError:
            return None
        deque(map(bytearray.reverse, digits), maxlen=0)
        rows = list(map(int, digits, repeat(2)))
    else:
        if us and (max(us) >= n or max(vs) >= n):
            return None
        nbrs: list[list[int]] = [[] for _ in range(n)]
        deque(map(list.append, map(nbrs.__getitem__, vs), us), maxlen=0)
        deque(map(list.append, map(nbrs.__getitem__, us), vs), maxlen=0)
        rows = list(map(_row, nbrs))
    # Each edge set two entries, so the rows hold 2m bits unless some row got
    # a vertex twice: a duplicate edge, or a self-loop (u twice in u's row).
    if sum(map(int.bit_count, rows)) != 2 * len(us):
        return None
    return rows


def min_degree(g: Graph) -> int:
    """Minimum degree; requires at least one vertex."""
    if g.n < 1:
        raise ValueError("min_degree needs a nonempty graph")
    return min(g.degrees)


def components(g: Graph) -> list[int]:
    """Masks of the components of vertex 0 and of the lowest vertex outside it."""
    out: list[int] = []
    unseen = (1 << g.n) - 1
    adj = g.adj_bits
    while unseen and len(out) < 2:
        comp = frontier = unseen & -unseen
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= adj[v]
            frontier = grow & ~comp
            comp |= frontier
        out.append(comp)
        unseen &= ~comp
    return out


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled to g.n .. g.n+h.n-1."""
    rows = list(g.adj_bits) + [row << g.n for row in h.adj_bits]
    return Graph._from_rows(g.n + h.n, rows)


# ---------------------------------------------------------------------------
# named generators


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph._from_rows(n, (full & ~(1 << v) for v in range(n)))


def bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph; part A is 0..a-1, part B is a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("bipartite graph needs a, b >= 1")
    amask = (1 << a) - 1
    bmask = ((1 << b) - 1) << a
    rows = [bmask] * a + [amask] * b
    return Graph._from_rows(a + b, rows)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def fan_example_graph(k: int, l: int) -> Graph:
    """Family separating the hole threshold from connectivity conditions.

    Vertex layout: hub a = 0, clique B = 1..k+l, independent set
    C = k+l+1..2k+l, clique D = 2k+l+1..2k+2l+1.  Edges: a-B, B-B, B-C,
    C-D, D-D.  For l >= 1 and k >= l+3 the graph has minimum degree
    k+l >= max(k+1, 2l+3), which equals its bipartite-hole number, so it is
    Hamiltonian -- yet its connectivity k is strictly below its independence
    number k+1, so connectivity-based Hamiltonicity conditions reject it.
    """
    if l < 1 or k < l + 3:
        raise ValueError("fan example needs l >= 1 and k >= l + 3")
    b = range(1, k + l + 1)
    c = range(k + l + 1, 2 * k + l + 1)
    d = range(2 * k + l + 1, 2 * k + 2 * l + 2)
    edges = [(0, v) for v in b]
    edges += [(u, v) for u in b for v in b if u < v]
    edges += [(u, v) for u in b for v in c]
    edges += [(u, v) for u in c for v in d]
    edges += [(u, v) for u in d for v in d if u < v]
    return Graph(2 * k + 2 * l + 2, edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample: one uniform draw per vertex pair in lexicographic
    order, edge present iff the draw is < p.  Same (n, p, seed) always gives
    the same graph."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")
    if seed is None:
        raise ValueError("gnp requires a seed")
    draw = random.Random(seed).random
    # The pairs are in range, loop-free and distinct by construction, so
    # the rows go straight to the trusted constructor: u's row above the
    # diagonal is accumulated in one int, its bits below were set by the
    # earlier rows.
    rows = [0] * n
    for u in range(n):
        above = 0
        bit = 1 << u
        for v in range(u + 1, n):
            if draw() < p:
                above |= 1 << v
                rows[v] |= bit
        rows[u] |= above
    return Graph._from_rows(n, rows)


# The atomic families: the name of each one's builder in this module and
# its parameters in spec order, each with the type it is read as.  The CLI
# declares gen's flags from them in first-seen order.  gnp also takes
# generate's seed.  A builder is looked up by name on each call, so a wrapper
# put on the module's global (as perfbench's tracer does) sees it.
FAMILIES = {
    "complete": ("complete_graph", {"n": int}),
    "gnp": ("gnp_graph", {"n": int, "p": float}),
    "bipartite": ("bipartite_graph", {"a": int, "b": int}),
    "cycle": ("cycle_graph", {"n": int}),
    "path": ("path_graph", {"n": int}),
    "petersen": ("petersen_graph", {}),
    "fan-example": ("fan_example_graph", {"k": int, "l": int}),
}

_TOKEN = re.compile(r"[(),]|[^\s(),]+")

# Sub-specs nested deeper than this are refused with ValueError, well before
# the recursive parser could reach Python's recursion limit.
SPEC_MAX_DEPTH = 64


def generate(spec: str, seed: int | None = None) -> Graph:
    """Build a graph from a family spec string.

    Atomic families: ``complete N``, ``bipartite A B``, ``cycle N``,
    ``path N``, ``petersen``, ``fan-example K L``, ``gnp N P`` (requires
    ``seed``).  Composites: ``complement-of (SPEC)`` and
    ``disjoint-union (SPEC) (SPEC)``; commas before a sub-spec are skipped,
    so ``disjoint-union (SPEC), (SPEC)`` is the same spec.  Every ``gnp``
    occurrence uses the same ``seed`` argument.  Sub-specs nest at most
    ``SPEC_MAX_DEPTH`` (64) levels deep; a deeper spec raises ``ValueError``.
    """
    toks = deque(_TOKEN.findall(spec))
    g = _spec(toks, seed, 0)
    if toks:
        raise ValueError(f"trailing tokens in spec: {' '.join(toks)}")
    return g


def _spec(toks: deque[str], seed: int | None, depth: int) -> Graph:
    """Read one spec off the front of toks: a family name, then its numbers
    or sub-specs."""
    if depth > SPEC_MAX_DEPTH:
        raise ValueError(f"family spec nests deeper than {SPEC_MAX_DEPTH} levels")
    if not toks:
        raise ValueError("empty family spec")
    name = toks.popleft()
    if name in FAMILIES:
        builder, params = FAMILIES[name]
        args = [_number(toks, kind) for kind in params.values()]
        if name == "gnp":
            args.append(seed)
        return globals()[builder](*args)
    if name == "complement-of":
        return _subspec(toks, seed, depth).complement()
    if name == "disjoint-union":
        return disjoint_union(_subspec(toks, seed, depth), _subspec(toks, seed, depth))
    raise ValueError(f"unknown family {name!r}")


def _number(toks: deque[str], kind: type) -> int | float:
    """Read one number of the given kind off the front of toks."""
    if not toks:
        raise ValueError("spec ended while expecting a number")
    tok = toks.popleft()
    try:
        return kind(tok)
    except ValueError:
        raise ValueError(f"expected a number, got {tok!r}") from None


def _subspec(toks: deque[str], seed: int | None, depth: int) -> Graph:
    """Read ``(SPEC)`` off the front of toks, skipping commas before it."""
    while toks and toks[0] == ",":
        toks.popleft()
    if not toks or toks.popleft() != "(":
        raise ValueError("expected '(' introducing a sub-spec")
    sub = _spec(toks, seed, depth + 1)
    if not toks or toks.popleft() != ")":
        raise ValueError("expected ')' closing a sub-spec")
    return sub


# ---------------------------------------------------------------------------
# text format


def _ints(tokens: list[str], message: str, lineno: int, count: int | None = None):
    """The tokens as ints, or GraphFormatError(message, lineno) when one is
    not an int or, with count given, when there are not count of them."""
    if count is not None and len(tokens) != count:
        raise GraphFormatError(message, lineno)
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GraphFormatError(message, lineno) from None


def _keyword_header(text: str, keyword: str, name: str):
    """Read the ``keyword int`` header that starts cycle and certificate files.

    Blank lines are skipped and nothing is a comment.  Returns the header's
    int, its line number and the remaining non-blank lines as stripped
    ``(lineno, line)`` pairs.
    """
    lines = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    header = f"'{keyword} {name}'"
    if not lines:
        raise GraphFormatError(f"missing header {header}")
    lineno, first = lines[0]
    fields = first.split()
    if fields[0] != keyword:
        raise GraphFormatError(f"expected header {header}", lineno)
    (value,) = _ints(fields[1:], f"expected header {header}", lineno, 1)
    return value, lineno, lines[1:]


# The most vertices a parsed header may ask for.  A graph costs tens of bytes
# per vertex before its first edge (neighbour lists, rows, degrees), so a
# header alone must not decide how much memory a parse takes.
MAX_PARSED_VERTICES = 10**6


def _check_vertex_count(n: int, lineno: int) -> None:
    """GraphFormatError when a header on line ``lineno`` asks for more than
    MAX_PARSED_VERTICES vertices; called before any per-vertex allocation."""
    if n > MAX_PARSED_VERTICES:
        raise GraphFormatError(
            f"header asks for more than {MAX_PARSED_VERTICES} vertices", lineno
        )


# The layout serialize_graph writes (plus an optional final newline): lines
# of two ASCII numbers split by one space, joined by "\n".  Text in it is
# parsed in bulk; anything else, and any text that fails an edge check, goes
# through the line-by-line loop.  The header's size check is the same on both
# paths, and the canonical header is always line 1.
_DIGITS = str.maketrans("", "", "0123456789")


def _parse_canonical(text: str) -> Graph | None:
    """The graph in canonical-layout text, or None to defer to the full loop."""
    # Imported here, so that commands that parse no graph skip loading it.
    import json

    body = text[:-1] if text.endswith("\n") else text
    # With the digits gone, each line must leave exactly one space.  No regex:
    # a repeated group keeps backtracking state for every line it matches.
    if body.translate(_DIGITS) != " \n" * body.count("\n") + " ":
        return None
    try:
        # JSON's C scanner reads the numbers without a str per token.  It
        # rejects an empty number, a leading zero and a number past the
        # int-to-str digit limit; the loop reads or reports those.
        nums = json.loads("[" + body.replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None
    n, m = nums[0], nums[1]
    _check_vertex_count(n, 1)
    if len(nums) != 2 * m + 2:
        return None
    rows = _edge_rows(n, nums[2::2], nums[3::2])
    return None if rows is None else Graph._from_rows(n, rows)


def _data_lines(text: str):
    """(lineno, fields) for each line of text that keeps a token once its
    ``#`` comment is cut; lineno is the 1-based physical line number."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header ``n m`` then m lines ``u v``.

    Blank lines and ``#`` comments are skipped.  Errors carry the 1-based
    physical line number of the offending input line.
    """
    g = _parse_canonical(text)
    if g is not None:
        return g
    lines = _data_lines(text)
    first = next(lines, None)
    if first is None:
        raise GraphFormatError("missing header 'n m'")
    lineno, fields = first
    n, m = _ints(fields, "expected header 'n m'", lineno, 2)
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be >= 0", lineno)
    _check_vertex_count(n, lineno)
    us: list[int] = []
    vs: list[int] = []
    seen: set[Edge] = set()
    for lineno, fields in lines:
        if len(us) == m:
            raise GraphFormatError(f"more than {m} edge lines", lineno)
        u, v = _ints(fields, "expected edge 'u v'", lineno, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range in edge {u} {v}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
        seen.add(key)
        us.append(u)
        vs.append(v)
    if len(us) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(us)}")
    return Graph._from_rows(n, _edge_rows(n, us, vs))


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: header plus lexicographically sorted edges."""
    names = list(map(str, range(g.n)))
    lines = [f"{g.n} {g.m}"]
    for u, row in enumerate(g.adj_bits):
        above = row >> (u + 1)
        if not above:
            continue
        if 32 * above.bit_count() < above.bit_length():
            # Sparse row: walk its set bits.
            vs = map(names.__getitem__, map((u + 1).__add__, _bits(above)))
        else:
            # Dense row: bin() lists the bits high to low; reversed, they
            # flag the names from u+1 on.
            flags = bin(above)[:1:-1].encode().translate(_FLAGS)
            vs = compress(names[u + 1 : u + 1 + len(flags)], flags)
        # One string per row, not per edge: the edge strings live only
        # while their row is joined.
        lines.append("\n".join(map(f"{u} ".__add__, vs)))
    return "\n".join(lines)
