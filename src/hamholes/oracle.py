"""Exact solvers used as ground truth in tests and experiments.

Everything here is exact-or-abort: every routine runs under a work budget,
an int count of probes (``holes.DEFAULT_BUDGET`` unless given), and a
search that needs more probes raises BudgetExceededError instead of
degrading to an approximation.  Hamiltonicity, independence and
edge-disjoint cycles are found by backtracking search, one probe per node
expansion.  Vertex connectivity is found by unit-capacity max-flows
(Even's algorithm), one probe per augmenting-path search.  None of these
routines sit on the main algorithms' hot path.

The searches run in ``hamholes._kernels``.  The edge-disjoint search walks
all Hamilton cycles through the kernels' one Hamilton DFS, the same search
in the same order as the single-cycle kernel, so one node budget counts
both.
"""

from __future__ import annotations

from hamholes import _kernels
from hamholes._kernels._pure import NodeBudgetExceeded, hamilton_cycles
from hamholes.errors import BudgetExceededError
from hamholes.graph import Graph, _bits, components, min_degree
from hamholes.hamilton import CycleSeq
from hamholes.holes import DEFAULT_BUDGET


def is_hamiltonian_exact(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[bool, CycleSeq | None]:
    """Exact Hamiltonicity with a witness cycle on success.

    Trivial rejections (min degree < 2, disconnected) are free; otherwise a
    backtracking search with a two-available-neighbors prune runs under the
    budget, counting node expansions.
    """
    if g.n < 3:
        raise ValueError(f"Hamiltonicity needs n >= 3, got {g.n}")
    if min_degree(g) < 2 or len(components(g)) > 1:
        return False, None
    status, order, _ = _kernels.hamilton_cycle_search(g.adj_bits, g.n, budget)
    if status == _kernels.OVER_BUDGET:
        raise BudgetExceededError(
            f"hamiltonicity search exceeded {budget} node expansions"
        )
    if status == _kernels.FOUND:
        return True, CycleSeq(g, order)
    return False, None


def independence_number_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact maximum independent set size by branch and bound."""
    if g.n == 0:
        return 0
    status, best, _ = _kernels.independence_number(g.adj_bits, g.n, budget)
    if status == _kernels.OVER_BUDGET:
        raise BudgetExceededError(
            f"independence search exceeded {budget} node expansions"
        )
    return best


def _local_connectivity(adj, n: int, s: int, t: int, cap: int, spend) -> int:
    """Internally disjoint s-t paths for non-adjacent s, t, counted up to cap.

    Unit-capacity max-flow on the split network: every vertex v other than
    s and t becomes an arc v_in -> v_out of capacity 1, and every edge uv
    becomes arcs u_out -> v_in and v_out -> u_in of unbounded capacity.
    Nodes are numbered v for v_in and n + v for v_out.  Each augmenting path
    is found by one breadth-first search, which first calls spend().
    """
    back = [0] * n  # back[w]: mask of the v with flow on the arc v_out -> w_in
    through = 0  # vertices whose arc v_in -> v_out carries flow
    flow = 0
    source = n + s
    tbit = 1 << t
    while flow < cap:
        spend()
        parent = [-1] * (2 * n)
        seen_in = 1 << s
        seen_out = 1 << s
        queue = [source]
        for x in queue:
            if x >= n:
                v = x - n
                new = adj[v] & ~seen_in
                if new & tbit:
                    parent[t] = x
                    break
                seen_in |= new
                for w in _bits(new):
                    parent[w] = x
                    queue.append(w)
                # Undo flow on v's own arc: v_out -> v_in.
                if (through >> v) & 1 and not (seen_in >> v) & 1:
                    seen_in |= 1 << v
                    parent[v] = x
                    queue.append(v)
            else:
                # Along x's own arc if it is free, else back along the edge
                # its flow arrived by.
                nxt = back[x] if (through >> x) & 1 else 1 << x
                if nxt & ~seen_out:
                    seen_out |= nxt
                    y = n + nxt.bit_length() - 1
                    parent[y] = x
                    queue.append(y)
        else:  # no augmenting path: the flow is maximum
            return flow
        x = t
        while x != source:
            p = parent[x]
            if p >= n:
                v = p - n
                if v == x:
                    through &= ~(1 << v)
                else:
                    back[x] |= 1 << v
            elif x - n == p:
                through |= 1 << p
            else:
                back[p] &= ~(1 << (x - n))
            x = p
        flow += 1
    return flow


def vertex_connectivity_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact vertex connectivity by Even's algorithm (SIAM J. Comput. 1975).

    A non-complete graph has kappa <= min degree, which is the starting
    bound.  Sources v_0, v_1, ... are taken in order while their index is
    below the bound; for each, the local connectivity to every later
    non-adjacent vertex is a unit-capacity max-flow, stopped once it
    reaches the bound, and a smaller value becomes the new bound.  While
    the bound exceeds kappa, the first vertex outside a minimum separator
    S has index <= kappa < bound, and every vertex S cuts it from comes
    later, so the bound ends at kappa.  Complete graphs use the n-1
    convention; disconnected graphs give 0.  One budget probe is one
    augmenting-path search.
    """
    n = g.n
    if n < 1:
        raise ValueError("connectivity needs a nonempty graph")
    adj = g.adj_bits
    probes = 0

    def spend() -> None:
        nonlocal probes
        probes += 1
        if probes > budget:
            raise BudgetExceededError(
                f"connectivity search exceeded {budget} augmenting-path searches"
            )

    best = min_degree(g)
    i = 0
    while i < best:
        later = ((1 << n) - 1) & ~((2 << i) - 1) & ~adj[i]
        for j in _bits(later):
            best = min(best, _local_connectivity(adj, n, i, j, best, spend))
        i += 1
    return best


def exists_edge_disjoint_hc_exact(
    g: Graph, r: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether g contains r pairwise edge-disjoint Hamilton cycles, exactly.

    Nested backtracking: enumerate Hamilton cycles of the current graph and
    recurse on the graph minus each one; the last level only asks whether
    one cycle exists.  Cheap necessary conditions (m >= r*n, min degree
    >= 2r) prune each level.  Intended for small instances (about n <= 12,
    r <= 2); the budget is shared across the whole nested search.
    """
    if g.n < 3:
        raise ValueError(f"edge-disjoint search needs n >= 3, got {g.n}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    counter = [0]

    def solve(h: Graph, need: int) -> bool:
        if h.m < need * h.n or min_degree(h) < 2 * need:
            return False
        if need == 1:
            status, _, used = _kernels.hamilton_cycle_search(
                h.adj_bits, h.n, budget - counter[0]
            )
            counter[0] += used
            if status == _kernels.OVER_BUDGET:
                raise NodeBudgetExceeded
            return status == _kernels.FOUND
        n = h.n
        for order in hamilton_cycles(h.adj_bits, n, counter, budget):
            cycle_edges = [(order[i - 1], order[i]) for i in range(n)]
            if solve(h.remove_edges(cycle_edges), need - 1):
                return True
        return False

    try:
        return solve(g, r)
    except NodeBudgetExceeded:
        raise BudgetExceededError(
            f"edge-disjoint search exceeded {budget} node expansions"
        ) from None
