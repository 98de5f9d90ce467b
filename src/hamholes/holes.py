"""Bipartite holes, the bipartite-hole-number, and hole certificates.

An (s,t)-bipartite-hole is a pair of disjoint vertex sets S, T with |S| = s,
|T| = t and no edge between them.  The bipartite-hole-number alpha_tilde(g)
is the least r = s+t-1 over positive s, t such that g has no (s,t)-hole.
A HoleCertificate bundles one hole per split of a target value k; verifying
it is a polynomial-time proof that alpha_tilde(g) >= k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hamholes import _kernels
from hamholes.errors import (
    BudgetExceededError,
    CertificateError,
    ContractViolationError,
    GraphFormatError,
)
from hamholes.graph import Graph, _bits, _ints, _keyword_header, min_degree

DEFAULT_HOLE_BUDGET = 10**8
ALPHA_SIZE_GUARD = 20


@dataclass(frozen=True)
class BipartiteHole:
    """Witness pair (S, T): disjoint, non-empty, no edge between the sides.

    Vertex ids inside each side are kept ascending.  Validity is relative to
    a reference graph and is established by verify_certificate / the hole
    search, not by the constructor.
    """

    s_side: tuple[int, ...]
    t_side: tuple[int, ...]


@dataclass(frozen=True)
class HoleCertificate:
    """Claim that alpha_tilde(g) >= k, backed by one hole per split.

    ``pairs[i-1]`` must be an (i, k-i)-hole for i = 1..floor(k/2).  The empty
    pair list is exactly the k <= 1 case (alpha_tilde >= 1 always holds).
    """

    k: int
    pairs: tuple[BipartiteHole, ...]


def _budget_guard(n: int, size: int, budget: int) -> None:
    if 0 <= size <= n and math.comb(n, size) > budget:
        raise BudgetExceededError(
            f"instance too large: C({n},{size}) subset probes exceed budget {budget}"
        )


def _hole_side(
    g: Graph, s: int, t: int, budget: int, guard: bool = True
) -> int | None:
    """Whether g has an (s,t)-bipartite-hole, without building a witness.

    Returns the kernel's answer: the bitmask of the first candidate set X
    of size min(s,t), or None when there is no hole.  ``guard=False`` skips
    the C(n, min(s,t)) budget check, for a caller that has already run it
    for this side size.
    """
    n = g.n
    if s + t > n:
        return None
    a, b = (s, t) if s <= t else (t, s)
    if guard:
        _budget_guard(n, a, budget)
    return _kernels.hole_search(g.adj_bits, n, a, b)


def has_bipartite_hole(
    g: Graph, s: int, t: int, budget: int = DEFAULT_HOLE_BUDGET
) -> BipartiteHole | None:
    """Find an (s,t)-bipartite-hole, or return None if there is none.

    Enumerates candidate sets X of the smaller size a = min(s,t) in
    lexicographic order; a hole exists iff some X has
    |V \\ (X ∪ N(X))| >= max(s,t), and the returned witness pairs the first
    such X with the lowest-labeled vertices of that remainder.
    """
    if s < 1 or t < 1:
        raise ValueError(f"hole sides must be positive, got ({s}, {t})")
    xmask = _hole_side(g, s, t, budget)
    if xmask is None:
        return None
    closed = xmask
    for v in _bits(xmask):
        closed |= g.adj_bits[v]
    rest = list(_bits(((1 << g.n) - 1) & ~closed))
    xs = tuple(_bits(xmask))
    if s <= t:
        return BipartiteHole(xs, tuple(rest[:t]))
    return BipartiteHole(tuple(rest[:s]), xs)


def alpha_tilde_exact(g: Graph, budget: int | None = None) -> int:
    """Exact bipartite-hole-number by scanning splits in increasing s+t.

    Guarded: without an explicit budget the graph must have n <= 20; passing
    a budget lifts the size guard and bounds each hole search instead.
    Convention: graphs with fewer than 2 vertices have no room for two
    non-empty sets, so the value is 1.  Only existence is asked, so no
    witness is built, and each side size s is budget-checked once, at the
    first total (2s) that uses it.
    """
    if g.n < 2:
        return 1
    if budget is None:
        if g.n > ALPHA_SIZE_GUARD:
            raise BudgetExceededError(
                f"instance too large: n = {g.n} > {ALPHA_SIZE_GUARD}"
                " (pass an explicit budget to override)"
            )
        budget = DEFAULT_HOLE_BUDGET
    for total in range(2, g.n + 2):
        # (s,t)- and (t,s)-holes coincide, so s <= t covers every split.
        for s in range(1, total // 2 + 1):
            if _hole_side(g, s, total - s, budget, 2 * s == total) is None:
                return total - 1
    raise ContractViolationError("split scan passed total n+1 without an answer")


def verify_certificate(g: Graph, c: HoleCertificate) -> int:
    """Check a certificate against g; return c.k or raise CertificateError.

    Soundness: a verified certificate has an (i, k-i)-hole for every
    i = 1..floor(k/2); side swapping covers the splits above k/2 and
    shrinking sides of any hole yields holes for every split of every total
    below k, so no total <= k is hole-free and alpha_tilde(g) >= k.
    """
    if c.k < 1:
        raise CertificateError(f"k must be >= 1, got {c.k}")
    want = c.k // 2
    if len(c.pairs) != want:
        raise CertificateError(
            f"expected {want} pairs for k = {c.k}, found {len(c.pairs)}"
        )
    for idx, hole in enumerate(c.pairs, start=1):
        if len(hole.s_side) != idx:
            raise CertificateError(
                f"s-side size {len(hole.s_side)} != {idx}", pair_index=idx
            )
        if len(hole.t_side) != c.k - idx:
            raise CertificateError(
                f"t-side size {len(hole.t_side)} != {c.k - idx}", pair_index=idx
            )
        masks = []
        for side in (hole.s_side, hole.t_side):
            mask = 0
            for v in side:
                if not 0 <= v < g.n:
                    raise CertificateError(f"vertex {v} out of range", pair_index=idx)
                mask |= 1 << v
            if mask.bit_count() != len(side):
                raise CertificateError("repeated vertex in a side", pair_index=idx)
            masks.append(mask)
        smask, tmask = masks
        if smask & tmask:
            raise CertificateError("sides intersect", pair_index=idx)
        for v in hole.s_side:
            cross = g.adj_bits[v] & tmask
            if cross:
                u = (cross & -cross).bit_length() - 1
                raise CertificateError(
                    f"edge {v} {u} joins the sides", pair_index=idx
                )
    return c.k


def translate_certificate(
    c: HoleCertificate, removed_cycles, g: Graph
) -> HoleCertificate:
    """Translate a certificate for g minus some Hamilton cycles back to g.

    With r_hat = len(removed_cycles), delta = min_degree(g) and
    K = min(delta - 2*r_hat + 1, c.k), the output value is
    k' = max(1, floor(K / (r_hat + 1))); when c.k >= delta - 2*r_hat + 1,
    as for the residual certificates of find_edge_disjoint_hamilton, K is
    delta - 2*r_hat + 1.  For each split j <= floor(k'/2) the pair
    (S_j, T_j) of c survives as (S_j, T_j minus the cycle-neighborhoods of
    S_j) trimmed to sizes (j, k'-j), keeping lowest-labeled vertices: every
    vertex has exactly 2 neighbors on each removed cycle, so at least
    c.k - j - 2*r_hat*j vertices remain, which is >= k'-j because
    c.k >= K >= k'(r_hat + 1) and 2j <= k'; none of them sees S_j in g.
    Shortfalls indicate a caller bug and raise ContractViolationError.
    """
    removed_cycles = list(removed_cycles)
    all_edges = []
    for cyc in removed_cycles:
        if len(cyc) != g.n:
            raise ContractViolationError("removed cycle does not span g")
        all_edges.extend(cyc.edges())
    try:
        g_minus = g.remove_edges(all_edges)
    except ValueError as exc:
        raise ContractViolationError(f"removed cycles are not in g: {exc}") from exc
    verify_certificate(g_minus, c)

    r_hat = len(removed_cycles)
    delta = min_degree(g)
    k_prime = max(1, min(delta - 2 * r_hat + 1, c.k) // (r_hat + 1))

    nbr_masks = []
    for cyc in removed_cycles:
        order = list(cyc)
        arr = [0] * g.n
        length = len(order)
        for i, v in enumerate(order):
            arr[v] = (1 << order[i - 1]) | (1 << order[(i + 1) % length])
        nbr_masks.append(arr)

    pairs = []
    for j in range(1, k_prime // 2 + 1):
        if j > len(c.pairs):
            raise ContractViolationError(f"certificate lacks split {j}")
        hole = c.pairs[j - 1]
        removed = 0
        for v in hole.s_side:
            for arr in nbr_masks:
                removed |= arr[v]
        survivors = [w for w in hole.t_side if not (removed >> w) & 1]
        if len(survivors) < k_prime - j:
            raise ContractViolationError(
                f"split {j}: only {len(survivors)} survivors, need {k_prime - j}"
            )
        pairs.append(
            BipartiteHole(tuple(hole.s_side[:j]), tuple(survivors[: k_prime - j]))
        )
    out = HoleCertificate(k_prime, tuple(pairs))
    verify_certificate(g, out)
    return out


# ---------------------------------------------------------------------------
# text format


def serialize_certificate(c: HoleCertificate) -> str:
    """Certificate text: header ``alpha-tilde-ge k`` then one line per pair."""
    lines = [f"alpha-tilde-ge {c.k}"]
    for i, hole in enumerate(c.pairs, start=1):
        s_txt = " ".join(map(str, hole.s_side))
        t_txt = " ".join(map(str, hole.t_side))
        lines.append(f"{i} | {s_txt} | {t_txt}")
    return "\n".join(lines)


def parse_certificate(text: str) -> HoleCertificate:
    """Inverse of serialize_certificate; ids must be ascending in each side."""
    k, lineno, body = _keyword_header(text, "alpha-tilde-ge", "k")
    if k < 1:
        raise GraphFormatError("certificate k must be >= 1", lineno)
    if len(body) != k // 2:
        raise GraphFormatError(
            f"expected {k // 2} pair lines for k = {k}, found {len(body)}"
        )
    pairs = []
    message = "expected 'i | s-side | t-side'"
    for want_idx, (lineno, line) in enumerate(body, start=1):
        parts = line.split("|")
        if len(parts) != 3:
            raise GraphFormatError(message, lineno)
        (idx,) = _ints(parts[0].split(), message, lineno, 1)
        s_side = tuple(_ints(parts[1].split(), message, lineno))
        t_side = tuple(_ints(parts[2].split(), message, lineno))
        if idx != want_idx:
            raise GraphFormatError(f"pair index {idx}, expected {want_idx}", lineno)
        for side in (s_side, t_side):
            if any(x >= y for x, y in zip(side, side[1:])):
                raise GraphFormatError("side ids must be strictly ascending", lineno)
        pairs.append(BipartiteHole(s_side, t_side))
    return HoleCertificate(k, tuple(pairs))
