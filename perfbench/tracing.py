"""Per-layer spans around hamholes' public functions, from outside the package.

``Tracer`` replaces each target function with a recording wrapper for the
duration of a ``with`` block and puts the originals back afterwards.  A
function imported by name into another module (``from hamholes.graph import
parse_graph`` in ``cli``) is a separate global there, so every hamholes
module's namespace is scanned and each reference to a target is replaced;
module globals are looked up at call time, so internal calls are caught.
Each call appends one span (name, parent span, start, end, extra), and self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs; a dotted attribute is a method of a class.
TARGETS = [
    ("cli", "main"),
    ("graph", "parse_graph"),
    ("graph", "serialize_graph"),
    ("graph", "generate"),
    ("graph", "gnp_graph"),
    ("graph", "components"),
    ("graph", "Graph.__init__"),
    ("graph", "Graph.remove_edges"),
    ("hamilton", "find_hamilton"),
    ("hamilton", "extend_maximal"),
    ("hamilton", "try_close"),
    ("hamilton", "reopen_cycle"),
    ("hamilton", "extract_certificate"),
    ("hamilton", "disconnected_certificate"),
    ("hamilton", "PathState.__init__"),
    ("hamilton", "CycleSeq.__init__"),
    ("hamilton", "parse_cycle"),
    ("hamilton", "serialize_cycle"),
    ("holes", "has_bipartite_hole"),
    ("holes", "alpha_tilde_exact"),
    ("holes", "verify_certificate"),
    ("holes", "translate_certificate"),
    ("holes", "parse_certificate"),
    ("holes", "serialize_certificate"),
    ("disjoint", "find_edge_disjoint_hamilton"),
    ("oracle", "is_hamiltonian_exact"),
    ("oracle", "independence_number_exact"),
    ("oracle", "vertex_connectivity_exact"),
    ("oracle", "exists_edge_disjoint_hc_exact"),
    ("randomlab", "run_experiment"),
    ("randomlab", "ExperimentReport.to_csv"),
    ("_kernels", "hole_search"),
    ("_kernels", "hamilton_cycle_search"),
    ("_kernels", "independence_number"),
]

LAYERS = ("cli", "graph", "hamilton", "holes", "disjoint", "oracle", "randomlab", "kernels")
KERNELS = ("hole_search", "hamilton_cycle_search", "independence_number")


def span_name(module: str, attr: str) -> str:
    # Metric names must start with a letter; "Graph.__init__" is "Graph".
    return f"{module.lstrip('_')}.{attr.removesuffix('.__init__')}"


# What a span keeps of its call's result, for the counters.
_EXTRACT = {
    "graph.parse_graph": lambda g: g.m,
    "holes.has_bipartite_hole": lambda hole: hole is not None,
    "disjoint.find_edge_disjoint_hamilton": lambda res: len(res.cycles),
    "kernels.hamilton_cycle_search": lambda res: res[2],
    "kernels.independence_number": lambda res: res[2],
}

# Kernel calls kept per kernel for the compiled-vs-pure replay.
_REPLAY_CAP = 200


class Tracer:
    """Context manager that records spans while the targets are wrapped."""

    def __init__(self, keep_kernel_args: bool = False):
        self.spans: list[list] = []
        self.kernel_args: dict[str, list[tuple]] = defaultdict(list)
        self._keep_kernel_args = keep_kernel_args
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extract = _EXTRACT.get(name)
        replay = self.kernel_args[name] if self._keep_kernel_args and name.startswith("kernels.") else None

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = exc
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if extract is not None:
                rec[4] = extract(result)
            if replay is not None and len(replay) < _REPLAY_CAP:
                replay.append((args, result))
            return result

        return wrapper

    def __enter__(self):
        mods = [m for key, m in sys.modules.items() if key.split(".")[0] == "hamholes"]
        for module, attr in TARGETS:
            owner = sys.modules[f"hamholes.{module}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name(module, attr), orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span_name(module, attr), orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False


class LayerTotals:
    """Self time, calls and counters summed over any number of spans."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, spans: list[list]) -> None:
        from hamholes.errors import BudgetExceededError

        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, extra) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if isinstance(extra, BudgetExceededError) and name.startswith("oracle."):
                self.counts["oracle.budget_exceeded"] += 1
            elif name == "graph.parse_graph" and isinstance(extra, int):
                self.counts["graph.parse_graph.edges"] += extra
            elif name == "hamilton.extend_maximal" and parent_name == "hamilton.find_hamilton":
                self.counts["hamilton.rounds"] += 1
            elif name == "holes.has_bipartite_hole" and extra is True and parent_name == "holes.alpha_tilde_exact":
                self.counts["holes.has_bipartite_hole.found"] += 1
            elif name == "disjoint.find_edge_disjoint_hamilton" and isinstance(extra, int):
                self.counts["disjoint.cycles"] += extra
            elif name.startswith("kernels.") and isinstance(extra, int):
                self.counts[f"{name}.nodes"] += extra

    def metrics(self, sessions: int) -> dict[str, float]:
        """Per-session means of every per-layer metric except the two that
        the caller measures (cli.import_s, trace.overhead_frac)."""
        s, c, k = self.self_s, self.calls, self.counts
        out = {}
        for name in (
            "graph.parse_graph",
            "graph.Graph",
            "graph.components",
            "graph.gnp_graph",
            "graph.serialize_graph",
            "graph.Graph.remove_edges",
            "hamilton.extend_maximal",
            "hamilton.try_close",
            "hamilton.reopen_cycle",
            "hamilton.extract_certificate",
            "hamilton.CycleSeq",
            "hamilton.parse_cycle",
            "hamilton.serialize_cycle",
            "holes.verify_certificate",
            "holes.parse_certificate",
            "holes.serialize_certificate",
            "holes.translate_certificate",
            "disjoint.find_edge_disjoint_hamilton",
            "holes.alpha_tilde_exact",
            "holes.has_bipartite_hole",
            "oracle.exists_edge_disjoint_hc_exact",
            "oracle.vertex_connectivity_exact",
            "oracle.independence_number_exact",
            "randomlab.run_experiment",
            "randomlab.ExperimentReport.to_csv",
            *(f"kernels.{kernel}" for kernel in KERNELS),
        ):
            out[f"{name}.self_s"] = s[name] / sessions
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in s.items() if n.split(".")[0] == layer) / sessions
        parse_s = s["graph.parse_graph"]
        out["graph.parse_graph.edges_per_s"] = k["graph.parse_graph.edges"] / parse_s if parse_s else 0.0
        finds = c["hamilton.find_hamilton"]
        out["hamilton.find_hamilton.calls"] = finds / sessions
        out["hamilton.try_close.calls"] = c["hamilton.try_close"] / sessions
        out["hamilton.rounds_per_find"] = k["hamilton.rounds"] / finds if finds else 0.0
        out["holes.has_bipartite_hole.calls"] = c["holes.has_bipartite_hole"] / sessions
        for key in ("holes.has_bipartite_hole.found", "disjoint.cycles", "oracle.budget_exceeded"):
            out[key] = k[key] / sessions
        out["kernels.hole_search.calls"] = c["kernels.hole_search"] / sessions
        for kernel in ("hamilton_cycle_search", "independence_number"):
            out[f"kernels.{kernel}.nodes"] = k[f"kernels.{kernel}.nodes"] / sessions
        return out


def backend_mismatches(tracer: Tracer) -> list[str]:
    """Replay the recorded kernel calls on the pure backend and compare bit
    for bit with what the compiled backend returned (n <= 64 only, as the
    dispatcher does).  Returns nothing when the compiled backend is absent."""
    from hamholes import _kernels
    from hamholes._kernels import _pure

    if _kernels._native is None:
        return []
    problems = []
    for name, calls in tracer.kernel_args.items():
        kernel = name.split(".", 1)[1]
        for args, result in calls:
            if args[1] <= _kernels._NATIVE_MAX_N and getattr(_pure, kernel)(*args) != result:
                problems.append(f"backend mismatch in {kernel} on n={args[1]}")
    return problems
