"""The package's public surface: what ``import hamholes`` offers, and where
the helpers it does not re-export live."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import hamholes
from hamholes import _kernels, cli, hardness, holes, oracle, randomlab

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
        "is_hamiltonian_exact", "independence_number_exact",
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
        "components", "min_degree", "disjoint_union",
        "complete_graph", "bipartite_graph", "cycle_graph", "path_graph",
        "petersen_graph", "fan_example_graph", "gnp_graph",
    ],
    "hamholes.hamilton": [
        "PathState", "extend_maximal", "try_close", "reopen_cycle",
        "extract_certificate", "disconnected_certificate",
    ],
    "hamholes.holes": ["ALPHA_SIZE_GUARD", "DEFAULT_BUDGET"],
    "hamholes.randomlab": ["SampleRecord", "lemma6_params", "sample_seed"],
}


def test_all_is_the_documented_surface():
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 37
    assert set(hamholes.__all__) == set(names)
    for module, group in PUBLIC.items():
        for name in group:
            assert getattr(hamholes, name) is getattr(importlib.import_module(module), name)


def _names_used_in_package() -> set[str]:
    """Every name the package's source loads, reads as an attribute, or
    spells as a string constant (FAMILIES names its builders as strings).
    Definitions and imports are not uses."""
    used = set()
    for path in Path(hamholes.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_helpers_stay_in_their_submodules():
    names = [name for group in SUBMODULE_ONLY.values() for name in group]
    assert len(names) == 21
    assert not set(names) & set(hamholes.__all__)
    for module, group in SUBMODULE_ONLY.items():
        mod = importlib.import_module(module)
        for name in group:
            assert hasattr(mod, name), f"{module}.{name}"
    # A helper nothing in the package uses is dead code kept alive by its
    # own tests.
    unused = set(names) - _names_used_in_package()
    assert not unused, sorted(unused)


def test_every_budget_is_one_probe_count():
    # One convention for the work budget: an int count of probes whose
    # default is holes.DEFAULT_BUDGET, defined once.  alpha_tilde_exact
    # alone defaults to None, its n <= 20 size guard; _has_balanced_biclique
    # is always passed its caller's budget.
    for fn in (
        oracle.is_hamiltonian_exact,
        oracle.independence_number_exact,
        oracle.vertex_connectivity_exact,
        oracle.exists_edge_disjoint_hc_exact,
        holes.has_bipartite_hole,
        holes.alpha_tilde_at_least,
        hardness.check_reduction_equivalence,
        hardness._has_balanced_biclique,
    ):
        param = inspect.signature(fn).parameters["budget"]
        assert param.annotation == "int", fn.__name__
        if fn is not hardness._has_balanced_biclique:
            assert param.default is holes.DEFAULT_BUDGET, fn.__name__
    guarded = inspect.signature(holes.alpha_tilde_exact).parameters["budget"]
    assert (guarded.annotation, guarded.default) == ("int | None", None)
    config = randomlab.ExperimentConfig
    assert config.__annotations__["oracle_budget"] == "int"
    assert config._defaults["oracle_budget"] is holes.DEFAULT_BUDGET
    args = cli._build_parser().parse_args(["experiment", "--n", "5", "--p", "0.5"])
    assert args.budget is holes.DEFAULT_BUDGET
    assert holes.DEFAULT_BUDGET == 10**8


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps these names from outside the package; a
    # rename here would leave the traced benchmark without its spans.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"hamholes.{module}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            # The tracer replaces cls.__dict__[meth], so each class needs its own.
            assert meth in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr)), f"{module}.{attr}"
    assert hasattr(_kernels, "_native")
    assert hamholes.BACKEND == "pure"
