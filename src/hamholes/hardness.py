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
from dataclasses import dataclass

from hamholes.errors import BudgetExceededError, GraphFormatError
from hamholes.graph import (
    Graph,
    _check_vertex_count,
    _ints,
    bipartite_graph,
    disjoint_union,
)
from hamholes.holes import alpha_tilde_at_least
from hamholes.oracle import DEFAULT_BUDGET, WorkBudget


@dataclass(frozen=True)
class BipartiteInstance:
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
    construction is byte-reproducible.  The image has |V(G)| + 3k - 1
    vertices; with k = 1 the gadget is just two isolated vertices.
    """
    k = inst.k
    gadget = bipartite_graph(k - 1, 2 * k) if k > 1 else Graph(2)
    return disjoint_union(inst.graph, gadget).complement()


def _has_balanced_biclique(inst: BipartiteInstance, budget: WorkBudget) -> bool:
    """Whether K_{k,k} sits in the instance with k vertices per part."""
    a, k = inst.a, inst.k
    if k > a:
        return False
    b_mask = ((1 << a) - 1) << a
    probes = 0
    for chosen in itertools.combinations(range(a), k):
        probes += 1
        if probes > budget.max_probes:
            raise BudgetExceededError(
                f"biclique enumeration exceeded {budget.max_probes} probes"
            )
        common = b_mask
        for u in chosen:
            common &= inst.graph.adj_bits[u]
        if common.bit_count() >= k:
            return True
    return False


def check_reduction_equivalence(
    inst: BipartiteInstance, budget: WorkBudget = DEFAULT_BUDGET
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
    right = alpha_tilde_at_least(image, 2 * inst.k, budget.max_probes)
    return left == right


# ---------------------------------------------------------------------------
# text format


def parse_instance(text: str) -> BipartiteInstance:
    """Instance text: header ``a b k`` with a = b, then cross edges ``u v``."""
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            a, b, k = _ints(fields, "expected header 'a b k'", lineno, 3)
            if a != b:
                raise GraphFormatError(f"parts must balance, got {a} != {b}", lineno)
            if a < 1 or k < 1:
                raise GraphFormatError("need a = b >= 1 and k >= 1", lineno)
            _check_vertex_count(2 * a, lineno)
            header = (a, b, k)
            continue
        u, v = _ints(fields, "expected edge 'u v'", lineno, 2)
        a = header[0]
        if not (0 <= u < a <= v < 2 * a):
            raise GraphFormatError(
                f"edge {u} {v} must satisfy u < {a} <= v < {2 * a}", lineno
            )
        edges.append((u, v))
    if header is None:
        raise GraphFormatError("missing header 'a b k'")
    a, _, k = header
    try:
        graph = Graph(2 * a, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    return BipartiteInstance(graph, a, k)


def serialize_instance(inst: BipartiteInstance) -> str:
    lines = [f"{inst.a} {inst.a} {inst.k}"]
    lines.extend(f"{u} {v}" for u, v in inst.graph.edges())
    return "\n".join(lines)
