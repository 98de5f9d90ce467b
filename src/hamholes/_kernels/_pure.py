"""Pure-Python enumeration kernels.

These are the hot inner loops of the package: bipartite-hole search,
Hamiltonicity backtracking and maximum-independent-set branch and bound.
They are the package's only implementation of these searches; the tests
pin their visit orders and node counts.

One Hamilton DFS, the ``hamilton_cycles`` generator, serves both the
single-cycle search and the edge-disjoint oracle's enumeration of every
cycle.  Every kernel keeps its search path on an explicit stack, so no
recursion limit caps the graphs it can search.

All kernels take adjacency as a sequence of per-vertex neighbor bitmasks
(``adj[v] >> u & 1`` iff ``uv`` is an edge).  The Hamilton and independence
searches count node expansions in a local int, settled with the caller's
``errors._Budget`` before each yield, at exhaustion and where they pass it;
their status is FOUND (0, answer found) or EXHAUSTED (1, none exists).
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1


def hole_search(adj, n: int, a: int, b: int):
    """Lexicographically first a-subset X with |V \\ (X ∪ N(X))| >= b.

    Returns the bitmask of X, or None when no such subset exists.  The
    caller is responsible for ensuring a + b <= n and for sizing the work
    budget (the search probes at most C(n, a) subsets).

    Depth-first over X in lexicographic order with an explicit stack.  A
    prefix is cut once fewer than b vertices lie outside its closed
    neighbourhood, since adding vertices only shrinks that set; the last
    vertex of X is tested in place, without descending.
    """
    if n < b:
        return None
    if a == 0:
        return 0
    closed = [row | 1 << v for v, row in enumerate(adj)]
    stack = []  # per open level: (next candidate, xmask, remaining set)
    start, xmask, rest = 0, 0, (1 << n) - 1
    while True:
        # Candidates stop where the rest of X would no longer fit above them.
        for v in range(start, n - a + len(stack) + 1):
            left = rest & ~closed[v]
            if left.bit_count() >= b:
                break
        else:
            if not stack:
                return None
            start, xmask, rest = stack.pop()
            continue
        if len(stack) == a - 1:
            return xmask | 1 << v
        stack.append((v + 1, xmask, rest))
        start, xmask, rest = v + 1, xmask | 1 << v, left


def hamilton_cycles(adj, n: int, budget):
    """Yield every Hamilton cycle of the graph exactly once.

    Each cycle is a vertex list starting at 0 with ``order[1] < order[-1]``,
    which drops its reversal.  Depth-first from vertex 0 with an explicit
    stack, neighbors in ascending order; a prefix is cut when some unvisited
    vertex has fewer than two neighbors left to close the cycle through.
    The test is incremental: the root asks it of every unvisited vertex, and
    a node below it only of the unvisited neighbors of path[-2].  The parent
    passed it for every unvisited vertex, and path[-2] is the one vertex
    that has left their available neighbors since, so no other vertex can
    fail it now; every prune, visit order and node count is the full
    test's.  Each node expansion is one probe of ``budget``, which callers
    may share across searches: it is settled before each yield and re-read
    after it.
    """
    full = (1 << n) - 1
    path = [0]
    untried = []  # untried[i]: neighbors of path[i] still to try after path[i + 1]
    visited = 1
    cur = 0
    nodes, left = 0, budget.limit - budget.used
    while True:
        nodes += 1
        if nodes > left:
            budget.charge(nodes)  # passes the limit, so it raises
        cand = 0
        if len(path) == n:
            if adj[cur] & 1 and path[1] < path[-1]:
                budget.charge(nodes)
                yield list(path)
                nodes, left = 0, budget.limit - budget.used
        else:
            # Every unvisited vertex still needs two cycle neighbors, all of
            # which lie among the other unvisited vertices, `cur` and vertex 0.
            # Below the root only path[-2] has left `avail` since the parent
            # passed this test, so only its unvisited neighbors are re-tested.
            rest = full & ~visited
            avail = rest | (1 << cur) | 1
            r = adj[path[-2]] & rest if len(path) > 1 else rest
            while r:
                low = r & -r
                if (adj[low.bit_length() - 1] & avail).bit_count() < 2:
                    break
                r ^= low
            if not r:
                cand = adj[cur] & rest
        while not cand:
            if len(path) == 1:
                budget.charge(nodes)
                return
            visited ^= 1 << path.pop()
            cand = untried.pop()
        low = cand & -cand
        untried.append(cand ^ low)
        cur = low.bit_length() - 1
        path.append(cur)
        visited |= low


def hamilton_cycle_search(adj, n: int, budget):
    """The first cycle hamilton_cycles yields, with the nodes it took.

    Returns (status, order, nodes): ``order`` is the found cycle as a vertex
    list starting at 0 (None unless status == FOUND), ``nodes`` the number of
    search nodes expanded and charged to ``budget``.  It needs n >= 1.
    Filtering out trivial rejections first (n < 3, minimum degree < 2,
    disconnected) saves time but is not needed for correctness: the search
    is exhaustive, and the edge-disjoint oracle's last level filters on
    degree only.
    The first yield is also the first cycle the search closes: the prune
    never cuts a prefix of a Hamilton cycle, so a cycle with
    order[-1] < order[1] would have been closed earlier in its reversed
    direction, which the ascending order searches first.
    """
    start = budget.used
    order = next(hamilton_cycles(adj, n, budget), None)
    return EXHAUSTED if order is None else FOUND, order, budget.used - start


def independence_number(adj, n: int, budget):
    """Branch-and-bound maximum independent set size.

    Returns (FOUND, size, nodes), every node charged to ``budget``.
    Branching vertex: maximum degree inside the candidate set, ties to the
    lowest id; bound: |current| + |candidates|.  Depth-first with an
    explicit stack of (candidates, size) nodes; the branch that takes the
    picked vertex is searched before the one that drops it.
    """
    best = 0
    nodes, left = 0, budget.limit - budget.used
    stack = [((1 << n) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        nodes += 1
        if nodes > left:
            budget.charge(nodes)  # passes the limit, so it raises
        if size + cand.bit_count() <= best:
            continue
        if cand == 0:
            best = size
            continue
        pick = -1
        pick_deg = -1
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            d = (adj[v] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
            c ^= low
        stack.append((cand & ~(1 << pick), size))
        stack.append((cand & ~(adj[pick] | (1 << pick)), size + 1))
    budget.charge(nodes)
    return FOUND, best, nodes
