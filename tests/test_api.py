"""The package's public surface: what ``import hamholes`` offers, and where
the helpers it does not re-export live."""

import importlib

import hamholes

PUBLIC = {
    "hamholes.graph": ["Graph", "generate", "parse_graph", "serialize_graph"],
    "hamholes.hamilton": [
        "find_hamilton", "HamResult", "CycleSeq", "parse_cycle", "serialize_cycle",
    ],
    "hamholes.holes": [
        "BipartiteHole", "HoleCertificate", "alpha_tilde_exact", "has_bipartite_hole",
        "verify_certificate", "translate_certificate", "parse_certificate",
        "serialize_certificate",
    ],
    "hamholes.disjoint": ["find_edge_disjoint_hamilton", "DisjointResult"],
    "hamholes.oracle": [
        "WorkBudget", "is_hamiltonian_exact", "independence_number_exact",
        "vertex_connectivity_exact", "exists_edge_disjoint_hc_exact",
    ],
    "hamholes.hardness": [
        "BipartiteInstance", "bcbs_to_bhn", "check_reduction_equivalence",
        "parse_instance", "serialize_instance",
    ],
    "hamholes.randomlab": ["ExperimentConfig", "ExperimentReport", "run_experiment"],
    "hamholes.errors": [
        "HamholesError", "GraphFormatError", "CertificateError",
        "ContractViolationError", "BudgetExceededError",
    ],
    "hamholes._kernels": ["BACKEND"],
}

SUBMODULE_ONLY = {
    "hamholes.graph": [
        "components", "min_degree", "external_neighborhood", "disjoint_union",
        "complete_graph", "bipartite_graph", "cycle_graph", "path_graph",
        "petersen_graph", "fan_example_graph", "gnp_graph",
    ],
    "hamholes.hamilton": [
        "PathState", "extend_maximal", "try_close", "reopen_cycle",
        "extract_certificate", "disconnected_certificate",
    ],
    "hamholes.holes": ["ALPHA_SIZE_GUARD"],
    "hamholes.oracle": ["DEFAULT_BUDGET"],
    "hamholes.randomlab": [
        "SampleRecord", "check_P1", "check_P2", "lemma6_params", "m_value", "sample_seed",
    ],
}


def test_all_is_the_documented_surface():
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 38
    assert set(hamholes.__all__) == set(names)
    for module, group in PUBLIC.items():
        for name in group:
            assert getattr(hamholes, name) is getattr(importlib.import_module(module), name)


def test_helpers_stay_in_their_submodules():
    names = [name for group in SUBMODULE_ONLY.values() for name in group]
    assert len(names) == 25
    assert not set(names) & set(hamholes.__all__)
    for module, group in SUBMODULE_ONLY.items():
        mod = importlib.import_module(module)
        for name in group:
            assert hasattr(mod, name), f"{module}.{name}"
