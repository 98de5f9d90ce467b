"""Bipartite holes, the bipartite-hole-number, and hole certificates.

An (s,t)-bipartite-hole is a pair of disjoint vertex sets S, T with |S| = s,
|T| = t and no edge between them.  The bipartite-hole-number alpha_tilde(g)
is the least r = s+t-1 over positive s, t such that g has no (s,t)-hole.
A HoleCertificate bundles one hole per split of a target value k; verifying
it is a polynomial-time proof that alpha_tilde(g) >= k.
"""

from __future__ import annotations

import math
from itertools import islice

from hamholes import _kernels
from hamholes._record import Record
from hamholes.errors import (
    BudgetExceededError,
    CertificateError,
    ContractViolationError,
    GraphFormatError,
)
from hamholes.graph import Graph, _bits, _ints, _keyword_header, min_degree

# The work budget of every exact routine, here and in oracle, hardness and
# randomlab: an int count of probes (hole-search subsets, search nodes or
# augmenting-path searches, as each routine says).  A routine that counts
# its probes as it runs keeps the count in one errors._Budget built from it.
DEFAULT_BUDGET = 10**8
ALPHA_SIZE_GUARD = 20


class BipartiteHole(Record):
    """Witness pair (S, T): disjoint, non-empty, no edge between the sides.

    Vertex ids inside each side are kept ascending.  Validity is relative to
    a reference graph and is established by verify_certificate / the hole
    search, not by the constructor.
    """

    s_side: tuple[int, ...]
    t_side: tuple[int, ...]


class HoleCertificate(Record):
    """Claim that alpha_tilde(g) >= k, backed by one hole per split.

    ``pairs[i-1]`` must be an (i, k-i)-hole for i = 1..floor(k/2).  The empty
    pair list is exactly the k <= 1 case (alpha_tilde >= 1 always holds).
    """

    k: int
    pairs: tuple[BipartiteHole, ...]


def _hole_side(g: Graph, s: int, t: int, budget: int) -> int | None:
    """Whether g has an (s,t)-bipartite-hole, without building a witness.

    Returns the kernel's answer: the bitmask of the first candidate set X
    of size min(s,t), or None when there is no hole.  Raises
    BudgetExceededError when C(n, min(s,t)) exceeds the budget.  With
    a = min(s,t) = 1 the answer is read off the degrees: X = {v} leaves
    n - 1 - degree(v) vertices outside its closed neighbourhood, so the
    first v with degree(v) <= n - 1 - b is the kernel's first X.
    """
    n = g.n
    if s + t > n:
        return None
    a, b = (s, t) if s <= t else (t, s)
    if math.comb(n, a) > budget:
        raise BudgetExceededError(
            f"instance too large: C({n},{a}) subset probes exceed budget {budget}"
        )
    if a == 1:
        cap = n - 1 - b
        return next((1 << v for v, d in enumerate(g.degrees) if d <= cap), None)
    return _kernels.hole_search(g.adj_bits, n, a, b)


def has_bipartite_hole(
    g: Graph, s: int, t: int, budget: int = DEFAULT_BUDGET
) -> BipartiteHole | None:
    """Find an (s,t)-bipartite-hole, or return None if there is none.

    Enumerates candidate sets X of the smaller size a = min(s,t) in
    lexicographic order; a hole exists iff some X has
    |V \\ (X ∪ N(X))| >= max(s,t), and the returned witness pairs the first
    such X with the max(s,t) lowest-labeled vertices of that remainder, the
    only ones walked: each _bits step scans the whole n-bit mask.
    """
    if s < 1 or t < 1:
        raise ValueError(f"hole sides must be positive, got ({s}, {t})")
    xmask = _hole_side(g, s, t, budget)
    if xmask is None:
        return None
    closed = xmask
    for v in _bits(xmask):
        closed |= g.adj_bits[v]
    rest = tuple(islice(_bits(((1 << g.n) - 1) & ~closed), max(s, t)))
    xs = tuple(_bits(xmask))
    if s <= t:
        return BipartiteHole(xs, rest)
    return BipartiteHole(rest, xs)


def alpha_tilde_at_least(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether alpha_tilde(g) >= k: every split (s, k-s), s <= k/2, has a hole.

    (s,t)- and (t,s)-holes coincide, which covers the splits above k/2, and
    holes shrink: dropping vertices from the sides of an (s,t)-hole leaves
    an (s',t')-hole for all positive s' <= s, t' <= t.  So every split of
    every total <= k has a hole.  k <= 1 always holds.
    """
    for s in range(1, k // 2 + 1):
        if _hole_side(g, s, k - s, budget) is None:
            return False
    return True


def _check_scan_budget(g: Graph, budget: int) -> None:
    """Raise BudgetExceededError exactly where alpha_tilde_exact's scan would.

    The experiment's NA rule: it lets one threshold test stand in for the
    scan, budget errors included.  The scan first asks side s at total 2s,
    so it trips at side s*, the least s with C(n, s) > budget (C(n, s)
    grows up to s = n/2, so 2s* <= n), and it gets there exactly when every
    split (s, 2s* - s), s < s*, has a hole: holes shrink, so those splits
    cover every smaller total too.  alpha_tilde_at_least(g, 2s*) asks those
    splits in the same order and trips at s* with the scan's message.
    Without an s* no threshold test can trip.  After a return some split
    (s, 2s* - s), s < s*, has no hole, and neither does (s, k - s) for any
    k >= 2s*, so no threshold test on g at this budget reaches side s*
    either.
    """
    n = g.n
    for s in range(1, n // 2 + 1):
        if math.comb(n, s) > budget:
            alpha_tilde_at_least(g, 2 * s, budget)
            return


def _alpha_budget(n: int, budget: int | None) -> int:
    """alpha_tilde_exact's budget on n vertices: the one given, else
    DEFAULT_BUDGET, whose size guard refuses n > ALPHA_SIZE_GUARD."""
    if budget is not None:
        return budget
    if n > ALPHA_SIZE_GUARD:
        raise BudgetExceededError(
            f"instance too large: n = {n} > {ALPHA_SIZE_GUARD}"
            " (pass an explicit budget to override)"
        )
    return DEFAULT_BUDGET


def alpha_tilde_exact(g: Graph, budget: int | None = None) -> int:
    """Exact bipartite-hole-number: the largest k with alpha_tilde_at_least.

    Guarded: budget=None means DEFAULT_BUDGET and requires n <= 20;
    passing a budget lifts the size guard and bounds each hole search
    instead.  Convention: graphs with fewer than 2 vertices have no room for
    two non-empty sets, so the value is 1.  k counts up from 1 and stops at
    the first total with a hole-free split; the first hole search that could
    probe more than the budget raises.
    """
    budget = _alpha_budget(g.n, budget)
    k = 1
    while alpha_tilde_at_least(g, k + 1, budget):
        k += 1
    return k


def _vertex_mask(vs, n: int, kind: str) -> int:
    """The bitmask of vertex sequence vs; ValueError on the first vertex
    outside range(n), then on a repeat, which names ``kind``."""
    mask = 0
    for v in vs:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    if mask.bit_count() != len(vs):
        raise ValueError(f"repeated vertex in {kind}")
    return mask


def verify_certificate(g: Graph, c: HoleCertificate) -> int:
    """Check a certificate against g; return c.k or raise CertificateError.

    Soundness: a verified certificate has an (i, k-i)-hole for every
    i = 1..floor(k/2), which is alpha_tilde_at_least's condition for k, so
    alpha_tilde(g) >= k.
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
        try:
            smask = _vertex_mask(hole.s_side, g.n, "a side")
            tmask = _vertex_mask(hole.t_side, g.n, "a side")
        except ValueError as exc:
            raise CertificateError(str(exc), pair_index=idx) from None
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


def _self_checked(g: Graph, k: int, pairs, what: str) -> HoleCertificate:
    """HoleCertificate(k, pairs), verified against g before it is returned.

    Every certificate the package builds goes through here.  Its producer's
    proof guarantees it, so a failed check is a bug: ContractViolationError,
    its message led by ``what`` (extracted, component or translated).
    """
    cert = HoleCertificate(k, tuple(pairs))
    try:
        verify_certificate(g, cert)
    except CertificateError as exc:
        raise ContractViolationError(f"{what} certificate invalid: {exc}") from exc
    return cert


def translate_certificate(
    c: HoleCertificate, removed_cycles, g: Graph
) -> HoleCertificate:
    """Translate a certificate for g minus some Hamilton cycles back to g.

    Checks that every removed cycle spans g, then subtracts the cycles in
    turn (Graph._remove_cycle): a pair that is not an edge of what is left
    raises ContractViolationError.  c must verify against the rest
    (CertificateError otherwise).  k' and the pairs are _translate's; a
    shortfall is the result's failed self-check (ContractViolationError).
    """
    removed_cycles = list(removed_cycles)
    if any(len(cyc) != g.n for cyc in removed_cycles):
        raise ContractViolationError("removed cycle does not span g")
    g_minus = g
    try:
        for cyc in removed_cycles:
            g_minus = g_minus._remove_cycle(cyc.order)
    except ValueError as exc:
        raise ContractViolationError(f"removed cycles are not in g: {exc}") from exc
    verify_certificate(g_minus, c)
    return _translate(c, len(removed_cycles), g)


def _translate(c: HoleCertificate, r_hat: int, g: Graph) -> HoleCertificate:
    """translate_certificate without its checks.

    Precondition, not checked here: c verifies against g minus r_hat
    pairwise edge-disjoint Hamilton cycles of g.  With delta =
    min_degree(g) and K = min(delta - 2*r_hat + 1, c.k), the output value
    is k' = max(1, floor(K / (r_hat + 1))); when c.k >= delta - 2*r_hat + 1,
    as for the residual certificates of find_edge_disjoint_hamilton, K is
    delta - 2*r_hat + 1.  For each split j <= floor(k'/2) the pair
    (S_j, T_j) of c survives as (S_j, T_j minus the cycle-neighborhoods of
    S_j) trimmed to sizes (j, k'-j), keeping lowest-labeled vertices: every
    vertex has exactly 2 neighbors on each removed cycle, so at least
    c.k - j - 2*r_hat*j vertices remain, which is >= k'-j because
    c.k >= K >= k'(r_hat + 1) and 2j <= k'; none of them sees S_j in g.
    A shortfall would leave a short side, so it surfaces, like any other
    bug, as the failed self-check: ContractViolationError (CLI exit 4).
    """
    delta = min_degree(g)
    k_prime = max(1, min(delta - 2 * r_hat + 1, c.k) // (r_hat + 1))
    pairs = []
    for j in range(1, k_prime // 2 + 1):
        hole = c.pairs[j - 1]
        # c holds in g minus the cycles, so S_j's g-neighbors inside T_j
        # are exactly its cycle neighbors there.
        removed = 0
        for v in hole.s_side:
            removed |= g.adj_bits[v]
        survivors = [w for w in hole.t_side if not (removed >> w) & 1]
        pairs.append(
            BipartiteHole(tuple(hole.s_side[:j]), tuple(survivors[: k_prime - j]))
        )
    return _self_checked(g, k_prime, pairs, "translated")


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
