"""Shared corpus builders: exhaustive and random small-graph generators."""

from __future__ import annotations

import itertools
import random

from hamholes.graph import Graph


def pair_list(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def graph_from_mask(n: int, mask: int, pairs=None) -> Graph:
    pairs = pair_list(n) if pairs is None else pairs
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labelled graph on n vertices (2^C(n,2) of them)."""
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, mask, pairs)


def random_graphs(n: int, count: int, seed: int, p: float | None = None):
    """Seeded random graphs; density is itself random when p is None."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prob = rng.random() if p is None else p
        edges = [e for e in pair_list(n) if rng.random() < prob]
        out.append(Graph(n, edges))
    return out


def to_nx(g: Graph):
    """g as a networkx graph, for tests that check against networkx."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
