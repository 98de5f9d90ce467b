"""Graph representation, parsing/serialization and named generators.

Vertices are always 0..n-1.  Adjacency is a tuple of per-vertex Python-int
bitmasks, so neighborhood unions, intersections and popcounts are word
operations; every algorithm in the package works directly on these masks.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable
from itertools import compress, repeat
from operator import index, lshift, setitem

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

    def _remove_cycle(self, order) -> Graph:
        """New graph without the edges of the cycle through ``order``: the
        result, or the error, of ``remove_edges`` on the pairs
        (order[i - 1], order[i]) of ``CycleSeq.edges()``, wrap-around first.

        Cost: one shift per vertex makes its single-bit int; then each
        vertex v costs one test of its row for the vertex u before it (the
        rows are symmetric) and one row update that drops u and the vertex w
        after it.  With every id in range and every pair an edge, the update
        is exact when the vertices are distinct, and only then does the
        graph lose len(order) edges: a repeated vertex keeps the row of its
        last visit, so fewer go.  Any other sequence (an id out of range, a
        missing pair, a repeat) is handed to remove_edges, which raises its
        error on the same first pair or returns its graph.
        """
        adj = self._adj
        if order and 0 <= min(order) and max(order) < self.n:
            rows = list(adj)
            bits = list(map(lshift, repeat(1), order))
            before, after = bits[-1:] + bits[:-1], bits[1:] + bits[:1]
            for bit_u, v, bit_w in zip(before, order, after):
                if not adj[v] & bit_u:
                    break
                rows[v] = adj[v] ^ (bit_u | bit_w)
            else:
                g = Graph._from_rows(self.n, rows)
                if g.m == self.m - len(order):
                    return g
        return self.remove_edges(zip(order[-1:] + order[:-1], order))

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


def min_degree(g: Graph) -> int:
    """Minimum degree; requires at least one vertex."""
    if g.n < 1:
        raise ValueError("min_degree needs a nonempty graph")
    return min(g.degrees)


def components(g: Graph) -> list[int]:
    """Masks of the components of vertex 0 and of the lowest vertex outside it.

    A level of the breadth-first search stops as soon as the component
    spans every unseen vertex: the rest of its frontier can add none.  On
    a dense graph each level then walks one row.
    """
    out: list[int] = []
    unseen = (1 << g.n) - 1
    adj = g.adj_bits
    while unseen and len(out) < 2:
        comp = frontier = unseen & -unseen
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= adj[v]
                if grow | comp == unseen:
                    break
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


# Rows of at least this many pairs take their draws in one getrandbits call;
# gnp_graph's docstring gives the measurement behind the cut.
_GNP_BULK_PAIRS = 64
# The long rows are drawn in this many blocks, each with its own digit buffer.
_GNP_BLOCKS = 16


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample: one uniform draw per vertex pair in lexicographic
    order, edge present iff the draw is < p.  Same (n, p, seed) always gives
    the same graph.

    A row of k >= _GNP_BULK_PAIRS pairs reads the same generator output as
    its k calls to ``random()``, as one ``getrandbits(64 * k)``: the 2k
    32-bit words in the same order, the first in the lowest bits.  A draw
    from words a, b is N / 2**53 with N = (a >> 5) * 2**26 + (b >> 6), so
    ``draw < p`` holds iff N < t, where t counts the N whose draw is < p.
    t is found by bisection with that same test, so long rows decide as
    short ones do for any p.  N's top byte, byte 3 of its 8, decides all
    but the draws whose top byte is t >> 45 (1 in 256), and those are
    compared in full.

    The L = n - _GNP_BULK_PAIRS long rows take one path for every p, with
    no Python step per edge.  They are drawn in order, in blocks of
    ceil(L / _GNP_BLOCKS) rows.  Row u's bits above the diagonal are read
    off its own flags as soon as they are decided, and the flags also fill
    u's digit row of the block's (block x n) buffer.  Once a block is drawn,
    each later vertex reads its bits from the block off its column of
    digits.  Only one block's buffer is held at a time: about n^2 / 16
    bytes, half the size of the n full-width rows being built.

    Shorter rows keep one ``random()`` call per draw, so a graph with
    n <= _GNP_BULK_PAIRS takes no long-row path.  A bulk row has a
    fixed cost of about 1.5 us (the call, the table pass and the int
    conversion), and on a 2-vCPU x86 host with CPython 3.11 the two loops
    cost the same somewhere between 48 and 96 pairs for p from 0.01 to 0.8.
    """
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")
    if seed is None:
        raise ValueError("gnp requires a seed")
    rng = random.Random(seed)
    # The pairs are in range, loop-free and distinct by construction, so
    # the rows go straight to the trusted constructor.
    rows = [0] * n
    long_rows = max(n - _GNP_BULK_PAIRS, 0)
    if long_rows:
        t = bisect_left(range(2**53), True, key=lambda N: not N / 2**53 < p)
        top = t >> 45
        # Each top byte's verdict: below top an edge, above it none, "?" open.
        verdict = (b"1" * top + b"?" + b"0" * 255)[:256]
        size = -(-long_rows // _GNP_BLOCKS)
        for start in range(0, long_rows, size):
            stop = min(start + size, long_rows)
            buf = bytearray(b"0") * ((stop - start) * n)
            for u in range(start, stop):
                k = n - 1 - u
                raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
                flags = bytearray(raw[3::8].translate(verdict))
                j = flags.find(b"?")
                while j >= 0:
                    words = int.from_bytes(raw[8 * j : 8 * j + 8], "little")
                    draw_n = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38
                    flags[j] = b"01"[draw_n < t]
                    j = flags.find(b"?", j + 1)
                # Reversed, a digit string reads as one base-2 int.
                rows[u] |= int(flags[::-1], 2) << (u + 1)
                buf[(u - start) * n + u + 1 : (u - start + 1) * n] = flags
            for v in range(start + 1, n):
                rows[v] |= int(buf[v::n][::-1], 2) << start
            # Freed before the next buffer is made: one is held at a time.
            del buf
    draw = rng.random
    for u in range(long_rows, n):
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


# The most vertices a parsed header may ask for.  A graph costs about 24 bytes
# per vertex before its first edge (its rows as a list, then a tuple, and its
# degrees), so a header alone must not decide how much memory a parse takes.
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
    """The graph in canonical-layout text, or None to defer to the line loop,
    which also reports an edge that is out of range, a self-loop or a repeat.

    One rule per graph, with no rule per row, picks the row builder.  Graphs
    whose rows are on average less than 1/16 full (32m < n^2) set each edge's
    two bits in int rows.  Denser ones, whose buffers then take at most 32
    bytes per edge, have both ends of every edge write a "1" straight into one
    ASCII digit row per vertex, in C-level builtins.  The layout admits only
    digits, so no id is negative; an id of n or more is refused before any
    row is touched (the int rows test the largest id first, so they never
    shift by an unchecked id, and the digit rows raise IndexError).  Neither
    builder tests a bit before setting it: the rows hold 2m bits unless a
    repeated edge or a self-loop (u twice in u's row) set one twice, so one
    count of their bits rejects both.
    """
    # Imported here, so that commands that parse no graph skip loading it.
    import json

    body = text.rstrip("\n")
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
    us, vs = nums[2::2], nums[3::2]
    if 32 * m < n * n:
        if m and max(max(us), max(vs)) >= n:
            return None
        rows = [0] * n
        for u, v in zip(us, vs):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    else:
        digits = [bytearray(b"0") * n for _ in range(n)]
        row = digits.__getitem__
        try:
            deque(map(setitem, map(row, us), vs, repeat(ord("1"))), maxlen=0)
            deque(map(setitem, map(row, vs), us, repeat(ord("1"))), maxlen=0)
        except IndexError:
            return None
        deque(map(bytearray.reverse, digits), maxlen=0)
        rows = map(int, digits, repeat(2))
    g = Graph._from_rows(n, rows)
    return g if g.m == m else None


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
    rows = [0] * n
    count = 0
    for lineno, fields in lines:
        if count == m:
            raise GraphFormatError(f"more than {m} edge lines", lineno)
        u, v = _ints(fields, "expected edge 'u v'", lineno, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range in edge {u} {v}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        if (rows[u] >> v) & 1:
            raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        count += 1
    if count != m:
        raise GraphFormatError(f"expected {m} edge lines, found {count}")
    return Graph._from_rows(n, rows)


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
        # One join per row, with "\n{u} " between the names: no string per
        # edge is made.
        lines.append(f"{u} " + f"\n{u} ".join(vs))
    return "\n".join(lines)
