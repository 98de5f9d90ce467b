"""Exact solvers used as ground truth in tests and experiments.

Everything here is exact-or-abort: every routine runs under a work budget,
an int count of probes (``holes.DEFAULT_BUDGET`` unless given), and a
search that needs more probes raises BudgetExceededError instead of
degrading to an approximation.  Hamiltonicity, independence and
edge-disjoint cycles are found by backtracking search, one probe per node
expansion.  Vertex connectivity is found by unit-capacity max-flows
(Even's algorithm), one probe per augmenting-path search.  None of these
routines sit on the main algorithms' hot path.

The three backtracking searches run in ``hamholes._kernels``; the
connectivity max-flows run here.  Each routine counts its probes in one
``errors._Budget`` built from its int budget.  The edge-disjoint search's
nested levels walk Hamilton cycles through the kernels' one Hamilton DFS
and all charge that one budget.
"""

from __future__ import annotations

from hamholes import _kernels
from hamholes._kernels._pure import hamilton_cycles
from hamholes.errors import _Budget
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
    spent = _Budget(budget, f"hamiltonicity search exceeded {budget} node expansions")
    status, order, _ = _kernels.hamilton_cycle_search(g.adj_bits, g.n, spent)
    if status == _kernels.FOUND:
        return True, CycleSeq(g, order)
    return False, None


def independence_number_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact maximum independent set size by branch and bound."""
    if g.n == 0:
        return 0
    spent = _Budget(budget, f"independence search exceeded {budget} node expansions")
    return _kernels.independence_number(g.adj_bits, g.n, spent)[1]


def _local_connectivity(adj, n: int, s: int, t: int, cap: int, budget) -> int:
    """Internally disjoint s-t paths for non-adjacent s, t, counted up to cap.

    Unit-capacity max-flow (Edmonds-Karp) on the split network: node v is
    v_in and node n + v is v_out, every vertex v gives an arc v_in -> v_out
    and every edge uv the arcs u_out -> v_in and v_out -> u_in, all of
    capacity 1.  The flow runs from s_out to t_in.  Capacity 1 on the edge
    arcs loses no flow: an arc u_out -> v_in carries at most the one unit
    that enters u_out or, when u = s, the one unit that leaves v_in (s and
    t are not adjacent).  ``res[x]`` is the mask of x's residual arcs; an
    augmenting path reverses each of its arcs.  Each augmenting path is
    found by one breadth-first search, which first charges ``budget`` one
    probe; reaching s_in does nothing, as its one residual arc is to s_out.
    """
    res = [1 << (n + v) for v in range(n)] + list(adj)
    source = n + s
    tbit = 1 << t
    flow = 0
    while flow < cap:
        budget.charge()
        parent = [-1] * (2 * n)
        seen = 1 << source
        queue = [source]
        for x in queue:
            new = res[x] & ~seen
            if new & tbit:
                parent[t] = x
                break
            seen |= new
            while new:
                low = new & -new
                y = low.bit_length() - 1
                parent[y] = x
                queue.append(y)
                new ^= low
        else:  # no augmenting path: the flow is maximum
            return flow
        y = t
        while y != source:
            x = parent[y]
            res[x] ^= 1 << y
            res[y] |= 1 << x
            y = x
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
    spent = _Budget(
        budget, f"connectivity search exceeded {budget} augmenting-path searches"
    )
    best = min_degree(g)
    i = 0
    while i < best:
        later = ((1 << n) - 1) & ~((2 << i) - 1) & ~adj[i]
        for j in _bits(later):
            best = min(best, _local_connectivity(adj, n, i, j, best, spent))
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
    spent = _Budget(budget, f"edge-disjoint search exceeded {budget} node expansions")

    def solve(h: Graph, need: int) -> bool:
        if h.m < need * h.n or min_degree(h) < 2 * need:
            return False
        if need == 1:
            status = _kernels.hamilton_cycle_search(h.adj_bits, h.n, spent)[0]
            return status == _kernels.FOUND
        for order in hamilton_cycles(h.adj_bits, h.n, spent):
            if solve(h._remove_cycle(order), need - 1):
                return True
        return False

    return solve(g, r)
