"""Reduction from balanced biclique detection to the bipartite-hole-number.

A bipartite instance (G, k) with parts A, B of equal size asks whether G
contains a K_{k,k} with k vertices in each part.  Complementing G plus a
disjoint K_{k-1,2k} gadget produces a graph whose bipartite-hole-number
reaches 2k exactly when the biclique exists, which is what makes computing
(or even approximating) the hole number hard.  This module builds the image
graph and cross-checks the biconditional by brute force on small instances.
"""

from __future__ import annotations

import itertools

from hamholes._record import Record
from hamholes.errors import GraphFormatError, _Budget
from hamholes.graph import (
    Graph,
    _check_vertex_count,
    _data_lines,
    _ints,
    bipartite_graph,
    disjoint_union,
)
from hamholes.holes import DEFAULT_BUDGET, alpha_tilde_at_least

# Most edges bcbs_to_bhn will build.  The image is dense (the complement of a
# sparse graph), and writing it out holds about 25 bytes per edge (the text,
# its rows and one copy), so the limit keeps ``hamholes reduce`` under about
# 150 MB; the header check of parse_instance alone would still admit images
# of 10^12 edges.
MAX_IMAGE_EDGES = 5 * 10**6


class BipartiteInstance(Record):
    """Bipartite graph with parts A = 0..a-1, B = a..2a-1, plus parameter k."""

    graph: Graph
    a: int
    k: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("parts must be non-empty")
        if self.graph.n != 2 * self.a:
            raise ValueError(
                f"graph has {self.graph.n} vertices, expected {2 * self.a}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for u, v in self.graph.edges():
            if not (u < self.a <= v):
                raise ValueError(f"edge ({u}, {v}) does not cross the parts")


def bcbs_to_bhn(inst: BipartiteInstance) -> Graph:
    """Image graph: complement of (G disjoint-union K_{k-1,2k}).

    Gadget vertices are labeled after G's, the size-(k-1) part first, so the
    construction is byte-reproducible.  The image has N = |V(G)| + 3k - 1
    vertices and C(N, 2) - |E(G)| - 2k(k-1) edges; with k = 1 the gadget is
    just two isolated vertices.  ValueError, before anything is built, when
    that edge count exceeds MAX_IMAGE_EDGES.
    """
    k = inst.k
    n = inst.graph.n + 3 * k - 1
    edges = n * (n - 1) // 2 - inst.graph.m - 2 * k * (k - 1)
    if edges > MAX_IMAGE_EDGES:
        raise ValueError(
            f"reduction image would have {edges} edges,"
            f" more than {MAX_IMAGE_EDGES}"
        )
    gadget = bipartite_graph(k - 1, 2 * k) if k > 1 else Graph(2)
    return disjoint_union(inst.graph, gadget).complement()


def _has_balanced_biclique(inst: BipartiteInstance, budget: int) -> bool:
    """Whether K_{k,k} sits in the instance with k vertices per part."""
    a, k = inst.a, inst.k
    b_mask = ((1 << a) - 1) << a
    spent = _Budget(budget, f"biclique enumeration exceeded {budget} probes")
    for chosen in itertools.combinations(range(a), k):
        spent.charge()
        common = b_mask
        for u in chosen:
            common &= inst.graph.adj_bits[u]
        if common.bit_count() >= k:
            return True
    return False


def check_reduction_equivalence(
    inst: BipartiteInstance, budget: int = DEFAULT_BUDGET
) -> bool:
    """Brute-force both sides of the reduction and compare.

    Left: K_{k,k} subgraph existence by enumerating k-subsets of A and
    intersecting neighborhoods.  Right: alpha_tilde(image) >= 2k, decided by
    alpha_tilde_at_least.
    Returns whether the two sides agree (a correct construction always
    agrees; a False return is a counterexample to the reduction).
    """
    if inst.a > 6 or inst.k > 3:
        raise ValueError("equivalence check is exhaustive; needs parts <= 6, k <= 3")
    left = _has_balanced_biclique(inst, budget)
    image = bcbs_to_bhn(inst)
    right = alpha_tilde_at_least(image, 2 * inst.k, budget)
    return left == right


# ---------------------------------------------------------------------------
# text format


def parse_instance(text: str) -> BipartiteInstance:
    """Instance text: header ``a b k`` with a = b, then cross edges ``u v``,
    each checked and set in the rows as it is read, so that an error names
    the first bad line; a repeated edge is refused at its own line."""
    lines = _data_lines(text)
    first = next(lines, None)
    if first is None:
        raise GraphFormatError("missing header 'a b k'")
    lineno, fields = first
    a, b, k = _ints(fields, "expected header 'a b k'", lineno, 3)
    if a != b:
        raise GraphFormatError(f"parts must balance, got {a} != {b}", lineno)
    if a < 1 or k < 1:
        raise GraphFormatError("need a = b >= 1 and k >= 1", lineno)
    _check_vertex_count(2 * a, lineno)
    rows = [0] * (2 * a)
    for lineno, fields in lines:
        u, v = _ints(fields, "expected edge 'u v'", lineno, 2)
        if not (0 <= u < a <= v < 2 * a):
            raise GraphFormatError(
                f"edge {u} {v} must satisfy u < {a} <= v < {2 * a}", lineno
            )
        if (rows[u] >> v) & 1:
            raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return BipartiteInstance(Graph._from_rows(2 * a, rows), a, k)


def serialize_instance(inst: BipartiteInstance) -> str:
    lines = [f"{inst.a} {inst.a} {inst.k}"]
    lines.extend(f"{u} {v}" for u, v in inst.graph.edges())
    return "\n".join(lines)
