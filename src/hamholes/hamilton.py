"""Path-rotation Hamiltonicity: a spanning cycle or a hole certificate.

The solver maintains a path, greedily extends it, and tries to close it into
a cycle using three rewirings (a single flip, whose trivial case is the
direct edge between the ends, a nested double flip, and a crossing double
flip).  When every rewiring fails on a maximal path, the failure itself
pins down large bipartite holes: the extracted certificate proves
alpha_tilde(g) >= min_degree(g) + 1, i.e. the graph escapes the
degree-vs-hole sufficient condition.  Total cost is O(n^3): at most n
path-growth iterations, each O(n^2) in word operations.

Positions inside a path are 0-based throughout this module; the docstrings
spell out interval endpoints where off-by-one matters.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from hamholes._record import Record
from hamholes.errors import ContractViolationError, GraphFormatError
from hamholes.graph import Graph, _bits, _ints, _keyword_header, components, min_degree
from hamholes.holes import BipartiteHole, HoleCertificate, _self_checked, _vertex_mask


class _VertexSeq:
    """What PathState and CycleSeq share: ``order`` is the vertex sequence,
    ``mask`` its membership bitmask.  Instances are immutable.
    """

    __slots__ = ("graph", "order", "mask")

    @staticmethod
    def _normal(order: tuple[int, ...], mask: int) -> tuple[int, ...]:
        return order

    def _set_checked(self, graph: Graph, order, kind: str, pair_name: str, pairs):
        """Check range, then repeats, then each (u, v) of ``pairs`` for
        adjacency, raising ValueError on the first failure; then store."""
        mask = _vertex_mask(order, graph.n, kind)
        adj = graph.adj_bits
        for u, v in pairs:
            if not (adj[u] >> v) & 1:
                raise ValueError(f"{pair_name} {u}, {v} not adjacent")
        self.graph = graph
        self.order = self._normal(order, mask)
        self.mask = mask

    @classmethod
    def _trusted(cls, graph: Graph, order: tuple[int, ...], mask: int):
        seq = object.__new__(cls)
        seq.graph = graph
        seq.order = cls._normal(order, mask)
        seq.mask = mask
        return seq

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.graph == other.graph and self.order == other.order

    def __hash__(self) -> int:
        return hash((self.graph, self.order))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.order)})"


class PathState(_VertexSeq):
    """A simple path: distinct vertices, consecutive pairs adjacent."""

    __slots__ = ()

    def __init__(self, graph: Graph, order):
        order = tuple(order)
        if not 2 <= len(order) <= graph.n:
            raise ValueError(f"path length {len(order)} out of range")
        pairs = zip(order, order[1:])
        self._set_checked(graph, order, "path", "consecutive vertices", pairs)


class CycleSeq(_VertexSeq):
    """A cycle: >= 3 distinct vertices, cyclically consecutive pairs adjacent.

    The stored order is canonical -- it starts at the lowest vertex and runs
    toward that vertex's smaller-id neighbor -- so equal cycles compare equal
    no matter which rotation or direction they were built from.  The lowest
    vertex is read from the membership mask, the lowest set bit, not found
    by a pass over the order.

    ``CycleSeq(graph, order)`` checks every vertex and every adjacency (the
    wrap-around pair first) and raises ValueError on a bad cycle; it is the
    constructor for callers and for parsed input.  ``CycleSeq._trusted`` is
    internal: it canonicalises the order but checks nothing, for cycles the
    solver has just built from a valid maximal path.
    """

    __slots__ = ()

    @staticmethod
    def _normal(order: tuple[int, ...], mask: int) -> tuple[int, ...]:
        i = order.index((mask & -mask).bit_length() - 1)
        if order[(i + 1) % len(order)] <= order[i - 1]:
            return order[i:] + order[:i]
        return order[i::-1] + order[:i:-1]

    def __init__(self, graph: Graph, order):
        order = tuple(order)
        if len(order) < 3:
            raise ValueError(f"cycle length {len(order)} < 3")
        pairs = zip(order[-1:] + order[:-1], order)
        self._set_checked(graph, order, "cycle", "cyclically consecutive", pairs)

    def edges(self) -> list[tuple[int, int]]:
        """The cycle's edges as consecutive pairs, including the wrap-around."""
        return [
            (self.order[i - 1], self.order[i]) for i in range(len(self.order))
        ]


class HamResult(Record):
    """Either a spanning cycle or a certificate that alpha_tilde > delta."""

    cycle: CycleSeq | None = None
    certificate: HoleCertificate | None = None

    def __post_init__(self):
        if (self.cycle is None) == (self.certificate is None):
            raise ValueError("exactly one of cycle/certificate must be present")


def _grow_end(adj: tuple[int, ...], v: int, free: int) -> tuple[list[int], int]:
    """Attach the lowest-id free neighbor of the end v, then of the vertex
    just attached, until the end is stuck; return the attached vertices in
    that order and the mask of vertices still free."""
    added = []
    cand = adj[v] & free
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        added.append(v)
        free ^= low
        cand = adj[v] & free
    return added, free


def extend_maximal(p: PathState) -> PathState:
    """Grow the path greedily until both endpoints have no outside neighbor.

    The front grows until it is stuck, then the back; each step attaches
    the lowest-id outside neighbor of that end.  Vertices only ever leave
    the outside set, so a stuck front stays stuck while the back grows:
    this is the order of a loop that tries the front first at every step.
    The input path survives as a contiguous subsequence of the output; a
    path stuck at both ends is returned itself.
    """
    adj = p.graph.adj_bits
    full = (1 << p.graph.n) - 1
    front, free = _grow_end(adj, p.order[0], full ^ p.mask)
    back, free = _grow_end(adj, p.order[-1], free)
    if not front and not back:
        return p
    order = (*front[::-1], *p.order, *back)
    return PathState._trusted(p.graph, order, full ^ free)


def _check_maximal(p: PathState, caller: str) -> None:
    """p has >= 3 vertices and no outside neighbor at an end."""
    m = len(p.order)
    if m < 3:
        raise ValueError(f"{caller} needs a path of length >= 3, got {m}")
    adj = p.graph.adj_bits
    if adj[p.order[0]] & ~p.mask or adj[p.order[-1]] & ~p.mask:
        raise ValueError("path is not maximal: an endpoint has an outside neighbor")


def _closure_masks(g: Graph, order: tuple[int, ...]) -> tuple[int, int]:
    """Position bitmasks of N(front) and N(back) along a maximal path.

    Bit i of each mask is set iff order[i] is adjacent to that endpoint.
    bin() lists a row's bits high to low; reversed and padded to n it flags
    each vertex by id, and one permutation puts the flags in reversed path
    order, which int(., 2) reads with order[0] as the low bit.  Cost: O(n)
    C-level string work per endpoint and no per-vertex Python loop.
    """
    n = g.n
    backwards = itemgetter(*order[::-1])
    a_mask, b_mask = (
        int("".join(backwards(bin(g.adj_bits[v])[:1:-1].ljust(n, "0"))), 2)
        for v in (order[0], order[-1])
    )
    return a_mask, b_mask


# try_close scans positions j < _SCAN_POSITIONS on the rows before it builds
# the closure masks; see its docstring for why 64.
_SCAN_POSITIONS = 64


def try_close(p: PathState) -> CycleSeq | None:
    """Close a maximal path into a cycle on the same vertex set, if possible.

    Search order (first hit wins, positions 0-based, f = order[0],
    b = order[-1], m = len(path)):

    - (a) single flip: lowest position j with order[j] in N(f) and
      order[j-1] in N(b); cycle f..order[j-1] reversed after walking
      f, order[j..m-1].  order[1] is always in N(f), so j = 1 exactly
      when f is adjacent to b, and the cycle is the path itself.
    - (b) nested double flip: lexicographically least (i, j), both in
      [1, m-2], i <= j, order[i] in N(f), order[j] in N(b), with
      order[i-1] adjacent to order[j+1].
    - (c) crossing double flip: lexicographically least (i, j) with j < i,
      order[i] in N(f), order[j] in N(b), order[i+1] adjacent to order[j+1].

    Cost.  (a) closes most rounds, usually at a small j, so the positions
    j < _SCAN_POSITIONS are first tested one by one on the two endpoint
    rows, and the first hit is returned.  Only past them are the two
    position masks built (O(n) C-level string work each, see
    _closure_masks); (a) is then one mask AND, which finds the same lowest
    j, and (b) and (c) share one ascending pass over the N(f) positions at
    O(n) big-int word operations per position.  A scanned position costs
    two shifts of an n-bit row, and a closing the scan does not decide
    pays for every position scanned, so the scan is bounded: unbounded, it
    made a find on G(4000, 0.01) about 2x slower, for no closing there has
    an (a) hit below position 197.  In a G(300, 0.8) extraction, 64
    positions decide 80% of the closings; 32 decide 67% and 128 decide 91%,
    and neither ran measurably faster than 64.

    Both endpoint neighborhoods lie on the path (maximality is required and
    checked), so position masks realize every split at once.  The cycle is
    built from a valid maximal path and not re-checked: each rewiring keeps
    the path's vertex set, so its mask is the path's.
    """
    _check_maximal(p, "try_close")
    g, order = p.graph, p.order
    front, back = g.adj_bits[order[0]], g.adj_bits[order[-1]]
    for j, v in enumerate(order[1:_SCAN_POSITIONS], 1):
        if front >> v & 1 and back >> order[j - 1] & 1:
            return _single_flip(p, j)
    return _rewire(p, *_closure_masks(g, order))


def _single_flip(p: PathState, j: int) -> CycleSeq:
    """The (a) cycle at position j: order[0], order[j..m-1], order[j-1..1]."""
    order = p.order
    cycle = (order[0],) + order[j:] + order[j - 1 : 0 : -1]
    return CycleSeq._trusted(p.graph, cycle, p.mask)


def _rewire(p: PathState, a_mask: int, b_mask: int) -> CycleSeq | None:
    """try_close's rewirings on p's closure masks: (a) by one mask AND, then
    (b) and (c) in one pass over the N(f) positions, in try_close's order."""
    g, order = p.graph, p.order
    m = len(order)
    adj = g.adj_bits

    # (a): j in A with j-1 in B.
    hit = (a_mask >> 1) & b_mask
    if hit:
        return _single_flip(p, (hit & -hit).bit_length())  # lowest j-1, plus one

    b_positions = list(_bits(b_mask))

    # (b) and (c) in one ascending sweep of i over A.  succ holds the
    # successors of B positions >= i and pred those of B positions < i; a
    # position moves from succ to pred as i passes it.  succ never empties:
    # m-2 is in B, and with (a) failed the ends are not adjacent, so i <= m-2.
    # A (b) hit returns at once; the first (c) hit waits until no (b) is
    # left.  A hit's least j is the first B position whose successor it holds.
    succ = 0
    for j in b_positions:
        succ |= 1 << order[j + 1]
    pred = 0
    crossing = None
    ptr = 0
    for i in _bits(a_mask):
        while ptr < len(b_positions) and b_positions[ptr] < i:
            bit = 1 << order[b_positions[ptr] + 1]
            succ ^= bit
            pred |= bit
            ptr += 1
        hit = adj[order[i - 1]] & succ
        if hit:
            j = next(j for j in b_positions if hit >> order[j + 1] & 1)
            cycle = order[:i] + order[j + 1 :] + order[j : i - 1 : -1]
            return CycleSeq._trusted(g, cycle, p.mask)
        if crossing is None:
            hit = adj[order[i + 1]] & pred
            if hit:
                crossing = i, hit
    if crossing is None:
        return None
    i, hit = crossing
    j = next(j for j in b_positions if hit >> order[j + 1] & 1)
    cycle = order[: j + 1] + order[m - 1 : i : -1] + order[j + 1 : i + 1]
    return CycleSeq._trusted(g, cycle, p.mask)


def extract_certificate(p: PathState) -> HoleCertificate:
    """Build the alpha_tilde > delta certificate from a failed closure.

    Requires a maximal path of length >= 3 whose closure failed (checked);
    g is its graph.  With k = min_degree(g) + 1, for each split
    s = 1..floor(k/2), t = k-s, let k_s be the (0-based) position of the
    s-th neighbor of the front along the path.  Four derived sets A-D
    (predecessors of front-neighbors up to k_s; successors of back-neighbors
    from k_s on; the front plus successors of its neighbors from k_s on;
    successors of back-neighbors before k_s) yield holes: closure failure
    makes (A, B) and (D, C) edge-free, and counting shows |B| >= t or
    (|D| >= s and |C| >= t).  The certificate is self-checked against g, so
    a shortfall surfaces as that check's ContractViolationError (exit 4).
    """
    _check_maximal(p, "extract_certificate")
    g, order = p.graph, p.order
    a_mask, b_mask = _closure_masks(g, order)
    if _rewire(p, a_mask, b_mask) is not None:
        raise ValueError("path is closable; certificate extraction not allowed")

    k = min_degree(g) + 1
    front_pos, back_pos = list(_bits(a_mask)), list(_bits(b_mask))

    pairs = []
    for s in range(1, k // 2 + 1):
        t = k - s
        ks = front_pos[s - 1]
        a_set = sorted(order[q - 1] for q in front_pos[:s])
        b_set = sorted(order[q + 1] for q in back_pos if q >= ks)
        if len(b_set) >= t:
            pairs.append(BipartiteHole(tuple(a_set), tuple(b_set[:t])))
            continue
        c_set = sorted(
            {order[0]} | {order[q + 1] for q in front_pos if q >= ks}
        )
        d_set = sorted(order[q + 1] for q in back_pos if q < ks)
        pairs.append(BipartiteHole(tuple(d_set[:s]), tuple(c_set[:t])))
    return _self_checked(g, k, pairs, "extracted")


def disconnected_certificate(g: Graph) -> HoleCertificate | None:
    """Certificate k = delta+2 from the two lowest connected components, or
    None when g is connected.

    These are the two that components(g) returns: the component of vertex 0
    and that of the lowest vertex outside it.  Each has >= delta+1 vertices,
    so for each split i the i lowest vertices of the first and the
    delta+2-i lowest of the second form a hole.  No split takes more than
    k-1 vertices from a side, so only the k-1 lowest of each component are
    walked: each _bits step scans the whole n-bit mask.
    """
    comps = components(g)
    if len(comps) < 2:
        return None
    k = min_degree(g) + 2
    first, second = (list(islice(_bits(c), k - 1)) for c in comps)
    pairs = (
        BipartiteHole(tuple(first[:i]), tuple(second[: k - i]))
        for i in range(1, k // 2 + 1)
    )
    return _self_checked(g, k, pairs, "component")


def reopen_cycle(c: CycleSeq) -> PathState:
    """Turn a non-spanning cycle into a longer path via an attachment edge.

    Chooses the lowest off-cycle vertex y with a neighbor on the cycle, then
    its lowest on-cycle neighbor x; the result walks y, x, then around the
    cycle in stored orientation.  Connectivity makes the edge exist whenever
    the cycle is non-spanning; its absence is a contract error.
    """
    g = c.graph
    off = ((1 << g.n) - 1) & ~c.mask
    if not off:
        raise ValueError("cycle already spans the graph")
    for y in _bits(off):
        onto = g.adj_bits[y] & c.mask
        if onto:
            x = (onto & -onto).bit_length() - 1
            i = c.order.index(x)
            order = (y,) + c.order[i:] + c.order[:i]
            return PathState._trusted(g, order, c.mask | (1 << y))
    raise ContractViolationError("no edge attaches the cycle to the rest")


def find_hamilton(g: Graph) -> HamResult:
    """A spanning cycle, or a certificate that alpha_tilde(g) > min degree.

    disconnected_certificate is asked first: it makes the find's one
    component search and answers a disconnected graph from its two lowest
    components.  Otherwise: start from the lexicographically
    smallest edge and repeat extend / close / reopen.  Each iteration grows
    the path, so there are at most n iterations; closure failure on a maximal
    path terminates with the extracted certificate.  The certificate value
    is always >= delta+1, and the whole run is deterministic.  Intermediate
    cycles are reopened unchecked; the returned cycle is checked once, and a
    check failure is a ContractViolationError.
    """
    if g.n < 3:
        raise ValueError(f"find_hamilton needs n >= 3, got {g.n}")
    certificate = disconnected_certificate(g)
    if certificate is not None:
        return HamResult(certificate=certificate)
    v = (g.adj_bits[0] & -g.adj_bits[0]).bit_length() - 1
    p = PathState(g, (0, v))
    for _ in range(g.n + 1):
        p = extend_maximal(p)
        cycle = try_close(p)
        if cycle is None:
            return HamResult(certificate=extract_certificate(p))
        if len(cycle) == g.n:
            try:
                return HamResult(cycle=CycleSeq(g, cycle.order))
            except ValueError as exc:
                raise ContractViolationError(f"found cycle invalid: {exc}") from exc
        p = reopen_cycle(cycle)
    raise ContractViolationError("path stopped growing without termination")


# ---------------------------------------------------------------------------
# text format


def serialize_cycle(c: CycleSeq) -> str:
    """Cycle text: ``cycle n`` then the ids in canonical cyclic order."""
    return f"cycle {len(c)}\n{' '.join(map(str, c.order))}"


def parse_cycle(text: str, g: Graph) -> CycleSeq:
    """Parse and validate a cycle file against g."""
    length, _, body = _keyword_header(text, "cycle", "n")
    if len(body) != 1:
        raise GraphFormatError("expected exactly one vertex line after the header")
    lineno, line = body[0]
    order = _ints(line.split(), "vertex ids must be integers", lineno)
    if len(order) != length:
        raise GraphFormatError(
            f"expected {length} vertex ids, found {len(order)}", lineno
        )
    try:
        return CycleSeq(g, order)
    except ValueError as exc:
        raise GraphFormatError(f"invalid cycle: {exc}", lineno) from None
