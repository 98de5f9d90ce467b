"""Edge-disjoint Hamilton cycle extraction with a translated certificate.

Repeatedly runs the path-rotation solver, peeling each found cycle's edges
off the graph.  When a round fails, its certificate (valid for the residual
graph) is translated into one for the original graph: removing r_hat
Hamilton cycles deletes exactly 2*r_hat edges at every vertex, so holes
shrink in a controlled way and the original graph still has
alpha_tilde > (delta - 3*r_hat)/(r_hat + 1).
"""

from __future__ import annotations

from hamholes._record import Record
from hamholes.graph import Graph, min_degree
from hamholes.hamilton import CycleSeq, find_hamilton
from hamholes.holes import HoleCertificate, _translate


class DisjointResult(Record):
    """r_hat pairwise edge-disjoint Hamilton cycles plus two certificates.

    ``residual_certificate`` refers to g minus all cycle edges;
    ``translated_certificate`` refers to g itself and carries the value
    m = max(1, floor((delta - 2*r_hat + 1)/(r_hat + 1))), which satisfies
    m > (delta - 3*r_hat)/(r_hat + 1).
    When extraction stopped early at r_cap, both certificates are the empty
    k = 1 certificate.
    """

    cycles: tuple[CycleSeq, ...]
    residual_certificate: HoleCertificate
    translated_certificate: HoleCertificate

    def summary(self, g: Graph) -> str:
        return (
            f"r={len(self.cycles)} delta={min_degree(g)}"
            f" m={self.translated_certificate.k}"
        )


_EMPTY_CERT = HoleCertificate(1, ())


def find_edge_disjoint_hamilton(g: Graph, r_cap: int | None = None) -> DisjointResult:
    """Extract edge-disjoint Hamilton cycles until failure (or r_cap).

    Each round runs find_hamilton on the current residual graph; a cycle is
    recorded and its edges removed, a certificate ends the loop.  The loop
    runs at most floor(delta/2) + 1 rounds, so the total cost stays O(n^4).
    On certificate termination both the residual certificate and its
    translation to g are returned; hitting r_cap skips certificates (both
    empty with k = 1).
    """
    if g.n < 3:
        raise ValueError(f"edge-disjoint extraction needs n >= 3, got {g.n}")
    if r_cap is not None and r_cap < 0:
        raise ValueError(f"r_cap must be >= 0, got {r_cap}")
    cycles: list[CycleSeq] = []
    residual = g
    while True:
        if r_cap is not None and len(cycles) >= r_cap:
            return DisjointResult(tuple(cycles), _EMPTY_CERT, _EMPTY_CERT)
        result = find_hamilton(residual)
        if result.cycle is not None:
            # Rebind unchecked: it was checked against residual, a subgraph of g.
            c = result.cycle
            cycles.append(CycleSeq._trusted(g, c.order, c.mask))
            residual = residual._remove_cycle(c.order)
            continue
        residual_cert = result.certificate
        # The cycles are edge-disjoint Hamilton cycles of g (each came off
        # the residual it spans) and residual_cert was checked: no re-check.
        translated = _translate(residual_cert, len(cycles), g)
        return DisjointResult(tuple(cycles), residual_cert, translated)
