"""Bipartite-hole machinery for Hamiltonicity.

The package decides Hamiltonicity through the bipartite-hole number
``alpha_tilde``: for any graph with minimum degree ``delta >= alpha_tilde``
a Hamilton cycle exists, and :func:`find_hamilton` constructs either such a
cycle or a machine-checkable certificate that ``alpha_tilde > delta`` in
polynomial time.  Exact (exponential) oracles, edge-disjoint cycle
extraction, a hardness reduction from balanced complete bipartite
subgraphs, and a seeded random-graph laboratory round out the toolkit.

Only the names in ``__all__`` are re-exported here.  Helpers such as the
rotation steps, the named generators and randomlab's ``SampleRecord``,
``lemma6_params`` and ``sample_seed`` stay importable from their submodules.
"""

from hamholes._kernels import BACKEND
from hamholes.disjoint import DisjointResult, find_edge_disjoint_hamilton
from hamholes.errors import (
    BudgetExceededError,
    CertificateError,
    ContractViolationError,
    GraphFormatError,
    HamholesError,
)
from hamholes.graph import Graph, generate, parse_graph, serialize_graph
from hamholes.hamilton import CycleSeq, HamResult, find_hamilton, parse_cycle, serialize_cycle
from hamholes.hardness import (
    BipartiteInstance,
    bcbs_to_bhn,
    check_reduction_equivalence,
    parse_instance,
    serialize_instance,
)
from hamholes.holes import (
    BipartiteHole,
    HoleCertificate,
    alpha_tilde_exact,
    has_bipartite_hole,
    parse_certificate,
    serialize_certificate,
    translate_certificate,
    verify_certificate,
)
from hamholes.oracle import (
    exists_edge_disjoint_hc_exact,
    independence_number_exact,
    is_hamiltonian_exact,
    vertex_connectivity_exact,
)
from hamholes.randomlab import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BipartiteHole",
    "BipartiteInstance",
    "BudgetExceededError",
    "CertificateError",
    "ContractViolationError",
    "CycleSeq",
    "DisjointResult",
    "ExperimentConfig",
    "ExperimentReport",
    "Graph",
    "GraphFormatError",
    "HamResult",
    "HamholesError",
    "HoleCertificate",
    "alpha_tilde_exact",
    "bcbs_to_bhn",
    "check_reduction_equivalence",
    "exists_edge_disjoint_hc_exact",
    "find_edge_disjoint_hamilton",
    "find_hamilton",
    "generate",
    "has_bipartite_hole",
    "independence_number_exact",
    "is_hamiltonian_exact",
    "parse_certificate",
    "parse_cycle",
    "parse_graph",
    "parse_instance",
    "run_experiment",
    "serialize_certificate",
    "serialize_cycle",
    "serialize_graph",
    "serialize_instance",
    "translate_certificate",
    "verify_certificate",
    "vertex_connectivity_exact",
]
