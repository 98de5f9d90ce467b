"""Path-rotation Hamiltonicity: a spanning cycle or a hole certificate.

The solver maintains a path, greedily extends it, and tries to close it into
a cycle using four rewirings (the direct edge, a single flip, a nested
double flip, and a crossing double flip).  When every rewiring fails on a
maximal path, the failure itself pins down large bipartite holes: the
extracted certificate proves alpha_tilde(g) >= min_degree(g) + 1, i.e. the
graph escapes the degree-vs-hole sufficient condition.  Total cost is
O(n^3): at most n path-growth iterations, each O(n^2) in word operations.

Positions inside a path are 0-based throughout this module; the docstrings
spell out interval endpoints where off-by-one matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from hamholes.errors import ContractViolationError, GraphFormatError
from hamholes.graph import Graph, _bits, _ints, _keyword_header, components, min_degree
from hamholes.holes import (
    BipartiteHole,
    HoleCertificate,
    verify_certificate,
)


class _VertexSeq:
    """What PathState and CycleSeq share: ``order`` is the vertex sequence,
    ``mask`` its membership bitmask.  Instances are immutable.
    """

    __slots__ = ("graph", "order", "mask")

    @staticmethod
    def _normal(order: tuple[int, ...]) -> tuple[int, ...]:
        return order

    def _set_checked(self, graph: Graph, order, kind: str, pair_name: str, pairs):
        """Check range, then repeats, then each (u, v) of ``pairs`` for
        adjacency, raising ValueError on the first failure; then store."""
        mask = 0
        for v in order:
            if not 0 <= v < graph.n:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        if mask.bit_count() != len(order):
            raise ValueError(f"repeated vertex in {kind}")
        for u, v in pairs:
            if not (graph.adj_bits[u] >> v) & 1:
                raise ValueError(f"{pair_name} {u}, {v} not adjacent")
        self.graph = graph
        self.order = self._normal(order)
        self.mask = mask

    @classmethod
    def _trusted(cls, graph: Graph, order: tuple[int, ...], mask: int):
        seq = object.__new__(cls)
        seq.graph = graph
        seq.order = cls._normal(order)
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
    no matter which rotation or direction they were built from.

    ``CycleSeq(graph, order)`` checks every vertex and every adjacency (the
    wrap-around pair first) and raises ValueError on a bad cycle; it is the
    constructor for callers and for parsed input.  ``CycleSeq._trusted`` is
    internal: it canonicalises the order but checks nothing, for cycles the
    solver has just built from a valid maximal path.
    """

    __slots__ = ()

    @staticmethod
    def _normal(order: tuple[int, ...]) -> tuple[int, ...]:
        i = order.index(min(order))
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


@dataclass(frozen=True)
class HamResult:
    """Either a spanning cycle or a certificate that alpha_tilde > delta."""

    cycle: CycleSeq | None = None
    certificate: HoleCertificate | None = None

    def __post_init__(self):
        if (self.cycle is None) == (self.certificate is None):
            raise ValueError("exactly one of cycle/certificate must be present")


def _check_graph(g: Graph, owner: Graph, kind: str) -> None:
    if owner is not g and owner != g:
        raise ValueError(f"{kind} does not belong to this graph")


def extend_maximal(g: Graph, p: PathState) -> PathState:
    """Grow the path greedily until both endpoints have no outside neighbor.

    At each step the front endpoint is tried first, then the back; the
    lowest-id outside neighbor is attached.  The input path survives as a
    contiguous subsequence of the output.
    """
    _check_graph(g, p.graph, "path")
    order = list(p.order)
    mask = p.mask
    adj = g.adj_bits
    while True:
        cand = adj[order[0]] & ~mask
        if cand:
            w = (cand & -cand).bit_length() - 1
            order.insert(0, w)
            mask |= 1 << w
            continue
        cand = adj[order[-1]] & ~mask
        if cand:
            w = (cand & -cand).bit_length() - 1
            order.append(w)
            mask |= 1 << w
            continue
        return PathState._trusted(g, tuple(order), mask)


def _check_maximal(g: Graph, p: PathState) -> None:
    adj = g.adj_bits
    if adj[p.order[0]] & ~p.mask or adj[p.order[-1]] & ~p.mask:
        raise ValueError("path is not maximal: an endpoint has an outside neighbor")


def _closure_masks(g: Graph, order: tuple[int, ...]) -> tuple[int, int]:
    """Position bitmasks of N(front) and N(back) along a maximal path."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    a_mask = 0
    for w in _bits(g.adj_bits[order[0]]):
        a_mask |= 1 << pos[w]
    b_mask = 0
    for w in _bits(g.adj_bits[order[-1]]):
        b_mask |= 1 << pos[w]
    return a_mask, b_mask


def try_close(g: Graph, p: PathState) -> CycleSeq | None:
    """Close a maximal path into a cycle on the same vertex set, if possible.

    Search order (first hit wins, positions 0-based, f = order[0],
    b = order[-1], m = len(path)):

    - direct: f adjacent to b.
    - (a) single flip: lowest position j with order[j] in N(f) and
      order[j-1] in N(b); cycle f..order[j-1] reversed after walking
      f, order[j..m-1].
    - (b) nested double flip: lexicographically least (i, j), both in
      [1, m-2], i <= j, order[i] in N(f), order[j] in N(b), with
      order[i-1] adjacent to order[j+1].
    - (c) crossing double flip: lexicographically least (i, j) with j < i,
      order[i] in N(f), order[j] in N(b), order[i+1] adjacent to order[j+1].

    Both endpoint neighborhoods lie on the path (maximality is required and
    checked), so one pass over position masks realizes every split at once;
    cost is O(n) big-int word operations per N(f) position.  The cycle is
    built from a valid maximal path and not re-checked: each rewiring keeps
    the path's vertex set, so its mask is the path's.
    """
    _check_graph(g, p.graph, "path")
    order = p.order
    m = len(order)
    if m < 3:
        raise ValueError(f"try_close needs a path of length >= 3, got {m}")
    _check_maximal(g, p)
    adj = g.adj_bits
    if (adj[order[0]] >> order[-1]) & 1:
        return CycleSeq._trusted(g, order, p.mask)
    a_mask, b_mask = _closure_masks(g, order)

    # (a): j in A with j-1 in B.
    hit = (a_mask >> 1) & b_mask
    if hit:
        j = (hit & -hit).bit_length()  # lowest j-1, plus one
        cycle = (order[0],) + order[j:] + order[j - 1 : 0 : -1]
        return CycleSeq._trusted(g, cycle, p.mask)

    b_positions = list(_bits(b_mask))

    # (b): successors of B positions >= i, as a vertex mask that shrinks as
    # i sweeps A in ascending order.
    succ = 0
    for j in b_positions:
        succ |= 1 << order[j + 1]
    ptr = 0
    for i in _bits(a_mask):
        while ptr < len(b_positions) and b_positions[ptr] < i:
            succ &= ~(1 << order[b_positions[ptr] + 1])
            ptr += 1
        if not succ:
            break
        hit = adj[order[i - 1]] & succ
        if hit:
            for j in b_positions[ptr:]:
                if (hit >> order[j + 1]) & 1:
                    cycle = order[:i] + order[j + 1 :] + order[j : i - 1 : -1]
                    return CycleSeq._trusted(g, cycle, p.mask)
            raise ContractViolationError("case (b) hit without a matching j")

    # (c): successors of B positions < i, growing as i sweeps A ascending.
    pred = 0
    ptr = 0
    for i in _bits(a_mask):
        while ptr < len(b_positions) and b_positions[ptr] < i:
            pred |= 1 << order[b_positions[ptr] + 1]
            ptr += 1
        if not pred:
            continue
        hit = adj[order[i + 1]] & pred
        if hit:
            for j in b_positions[:ptr]:
                if (hit >> order[j + 1]) & 1:
                    cycle = (
                        order[: j + 1]
                        + order[m - 1 : i : -1]
                        + order[j + 1 : i + 1]
                    )
                    return CycleSeq._trusted(g, cycle, p.mask)
            raise ContractViolationError("case (c) hit without a matching j")
    return None


def extract_certificate(g: Graph, p: PathState) -> HoleCertificate:
    """Build the alpha_tilde > delta certificate from a failed closure.

    Requires a maximal path whose closure failed (checked).  With
    k = min_degree(g) + 1, for each split s = 1..floor(k/2), t = k-s, let
    k_s be the (0-based) position of the s-th neighbor of the front along
    the path.  The four derived sets (predecessors of front-neighbors up to
    k_s; successors of back-neighbors from k_s on; the front plus successors
    of its neighbors from k_s on; successors of back-neighbors before k_s)
    yield holes: closure failure makes (A, B) and (D, C) edge-free, and
    counting shows |B| >= t or (|D| >= s and |C| >= t).  Every emitted pair
    is re-verified against g before returning.
    """
    _check_graph(g, p.graph, "path")
    order = p.order
    _check_maximal(g, p)
    if len(order) >= 3 and try_close(g, p) is not None:
        raise ValueError("path is closable; certificate extraction not allowed")

    k = min_degree(g) + 1
    a_mask, b_mask = _closure_masks(g, order)
    front_pos, back_pos = list(_bits(a_mask)), list(_bits(b_mask))

    pairs = []
    for s in range(1, k // 2 + 1):
        t = k - s
        if s > len(front_pos):
            raise ContractViolationError(
                f"front endpoint has {len(front_pos)} < {s} neighbors"
            )
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
        if len(d_set) < s or len(c_set) < t:
            raise ContractViolationError(
                f"split {s}: |D| = {len(d_set)}, |C| = {len(c_set)},"
                f" need ({s}, {t})"
            )
        pairs.append(BipartiteHole(tuple(d_set[:s]), tuple(c_set[:t])))

    cert = HoleCertificate(k, tuple(pairs))
    try:
        verify_certificate(g, cert)
    except Exception as exc:
        raise ContractViolationError(f"extracted certificate invalid: {exc}") from exc
    return cert


def disconnected_certificate(g: Graph) -> HoleCertificate:
    """Certificate k = delta+2 from two connected components.

    Every component has >= delta+1 vertices, so for each split i the i
    lowest vertices of the first component (by smallest member) and the
    delta+2-i lowest of the second form a hole.
    """
    comps = components(g)
    if len(comps) < 2:
        raise ValueError("graph is connected")
    delta = min_degree(g)
    k = delta + 2
    first, second = comps[0], comps[1]
    pairs = tuple(
        BipartiteHole(tuple(first[:i]), tuple(second[: k - i]))
        for i in range(1, k // 2 + 1)
    )
    cert = HoleCertificate(k, pairs)
    try:
        verify_certificate(g, cert)
    except Exception as exc:
        raise ContractViolationError(f"component certificate invalid: {exc}") from exc
    return cert


def reopen_cycle(g: Graph, c: CycleSeq) -> PathState:
    """Turn a non-spanning cycle into a longer path via an attachment edge.

    Chooses the lowest off-cycle vertex y with a neighbor on the cycle, then
    its lowest on-cycle neighbor x; the result walks y, x, then around the
    cycle in stored orientation.  Connectivity makes the edge exist whenever
    the cycle is non-spanning; its absence is a contract error.
    """
    _check_graph(g, c.graph, "cycle")
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

    Disconnected graphs short-circuit to the two-component certificate.
    Otherwise: start from the lexicographically smallest edge and repeat
    extend / close / reopen.  Each iteration grows the path, so there are at
    most n iterations; closure failure on a maximal path terminates with the
    extracted certificate.  The certificate value is always >= delta+1, and
    the whole run is deterministic.  Intermediate cycles are reopened
    unchecked; the returned cycle is checked once, and a check failure is a
    ContractViolationError.
    """
    if g.n < 3:
        raise ValueError(f"find_hamilton needs n >= 3, got {g.n}")
    if len(components(g)) > 1:
        return HamResult(certificate=disconnected_certificate(g))
    v = (g.adj_bits[0] & -g.adj_bits[0]).bit_length() - 1
    p = PathState(g, (0, v))
    for _ in range(g.n + 1):
        p = extend_maximal(g, p)
        cycle = try_close(g, p)
        if cycle is None:
            return HamResult(certificate=extract_certificate(g, p))
        if len(cycle) == g.n:
            try:
                return HamResult(cycle=CycleSeq(g, cycle.order))
            except ValueError as exc:
                raise ContractViolationError(f"found cycle invalid: {exc}") from exc
        p = reopen_cycle(g, cycle)
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
