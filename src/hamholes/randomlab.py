"""Seeded Monte-Carlo experiments on G(n,p) plus expansion-property checks.

The central object is a per-sample event sandwich: with t = ceil(sqrt(n))
and d = r*(2t) + 3r - 3, a graph with an isolated vertex can never carry r
edge-disjoint Hamilton cycles, and a graph that fails to carry them must
either have a large bipartite hole (alpha_tilde > 2t) or small minimum
degree (delta < d).  Experiments draw seeded samples, evaluate both
inclusions exactly where oracles are feasible, and report violation
counters (zero for a correct implementation) next to the (1-p)^n reference
floor for P(no r disjoint cycles).

Also here: the deterministic expansion properties P1 (|N(S)| >= d|S| for
all small S) and P2 (no (a,a)-hole at the 1/4130 scale) and the m(n,d)
mixing formula they are calibrated by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations, repeat
from operator import attrgetter

from hamholes.errors import BudgetExceededError
from hamholes.graph import Graph, gnp_graph, min_degree
from hamholes.holes import (
    ALPHA_SIZE_GUARD,
    DEFAULT_HOLE_BUDGET,
    BipartiteHole,
    alpha_tilde_exact,
    has_bipartite_hole,
)
from hamholes.oracle import WorkBudget, exists_edge_disjoint_hc_exact

_EDHC_MAX_N = 12
_EDHC_MAX_R = 2


def lemma6_params(n: int, r: int) -> tuple[int, int]:
    """The sandwich parameters t = ceil(sqrt(n)) and d = r*(2t) + 3r - 3."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    t = math.isqrt(n)
    if t * t < n:
        t += 1
    return t, r * (2 * t) + 3 * r - 3


def m_value(n: float, d: float) -> float:
    """m(n, d) = (ln n * ln ln ln n) / (ln d * ln ln n); needs n > e^e, d > 1."""
    if not n > math.exp(math.e):
        raise ValueError(f"m_value needs n > e^e, got {n}")
    if not d > 1:
        raise ValueError(f"m_value needs d > 1, got {d}")
    return (math.log(n) * math.log(math.log(math.log(n)))) / (
        math.log(d) * math.log(math.log(n))
    )


def check_P2(
    g: Graph, m_val: float, budget: int = DEFAULT_HOLE_BUDGET
) -> tuple[bool, BipartiteHole | None]:
    """No-large-hole property at scale a = ceil(n / (4130 * m_val)).

    Returns (True, None) when g has no (a,a)-bipartite-hole (hole
    monotonicity makes checking size exactly a sufficient), else
    (False, witness).  a clamps to >= 1, which is the regime any desk-scale
    n lands in.
    """
    if m_val <= 0:
        raise ValueError(f"m_val must be positive, got {m_val}")
    a = max(1, math.ceil(g.n / (4130 * m_val)))
    hole = has_bipartite_hole(g, a, a, budget)
    return hole is None, hole


def check_P1(
    g: Graph, d_exp: float, m_val: float, budget: int = DEFAULT_HOLE_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Expansion property: |N(S)| >= d_exp * |S| for all S up to the bound.

    Exhausts every non-empty S with |S| <= n/(d_exp * m_val) in size-then-
    lexicographic order and returns (False, S) on the first violation.
    A size bound below 1 leaves nothing to check: vacuously (True, None).
    """
    if d_exp <= 0 or m_val <= 0:
        raise ValueError("d_exp and m_val must be positive")
    cap = math.floor(g.n / (d_exp * m_val))
    probes = 0
    for size in range(1, min(cap, g.n) + 1):
        for subset in combinations(range(g.n), size):
            probes += 1
            if probes > budget:
                raise BudgetExceededError(
                    f"P1 enumeration exceeded {budget} subset probes"
                )
            smask = 0
            union = 0
            for v in subset:
                smask |= 1 << v
                union |= g.adj_bits[v]
            if (union & ~smask).bit_count() < d_exp * size:
                return False, subset
    return True, None


# ---------------------------------------------------------------------------
# Monte-Carlo experiment


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: float
    r: int = 1
    samples: int = 1
    seed: int = 0
    oracle_budget: WorkBudget = WorkBudget()

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.samples < 1:
            raise ValueError(f"need samples >= 1, got {self.samples}")


@dataclass(frozen=True)
class SampleRecord:
    """One sample's flags; None marks an unavailable oracle column."""

    sample: int
    delta: int
    delta_zero: bool
    alpha_gt_2t: bool | None
    delta_lt_d: bool
    has_r_edhc: bool | None
    violation_lower: bool | None
    violation_upper: bool | None

    @property
    def no_r_edhc(self) -> bool | None:
        return _not3(self.has_r_edhc)


# The CSV's data columns, in order, and the flags its "# count" lines and
# ExperimentReport.aggregates count.
_COLUMNS = tuple(f.name for f in fields(SampleRecord))
_COUNTED = (
    "delta_zero",
    "delta_lt_d",
    "alpha_gt_2t",
    "no_r_edhc",
    "violation_lower",
    "violation_upper",
)

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def sample_seed(seed: int, index: int) -> int:
    """Per-sample seed: element `index` of the splitmix64 stream at `seed`.

    splitmix64 advances its state by a fixed odd constant and scrambles it
    with two xor-multiply rounds; documented here so reruns and external
    reimplementations can reproduce every sample exactly.
    """
    x = (seed + (index + 1) * _GOLDEN) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _not3(x: bool | None) -> bool | None:
    return None if x is None else not x


def _and3(x: bool | None, y: bool | None) -> bool | None:
    if x is False or y is False:
        return False
    if x is None or y is None:
        return None
    return True


def _or3(x: bool | None, y: bool | None) -> bool | None:
    if x is True or y is True:
        return True
    if x is None or y is None:
        return None
    return False


def _evaluate_sample(cfg: ExperimentConfig, t: int, d: int, idx: int) -> SampleRecord:
    g = gnp_graph(cfg.n, cfg.p, sample_seed(cfg.seed, idx))
    delta = min_degree(g)
    delta_zero = delta == 0
    delta_lt_d = delta < d

    alpha_gt_2t: bool | None = None
    if cfg.n <= ALPHA_SIZE_GUARD:
        try:
            alpha_gt_2t = (
                alpha_tilde_exact(g, cfg.oracle_budget.max_probes) > 2 * t
            )
        except BudgetExceededError:
            pass

    has_r: bool | None = None
    if cfg.n <= _EDHC_MAX_N and cfg.r <= _EDHC_MAX_R:
        try:
            has_r = exists_edge_disjoint_hc_exact(g, cfg.r, cfg.oracle_budget)
        except BudgetExceededError:
            pass

    return SampleRecord(
        sample=idx,
        delta=delta,
        delta_zero=delta_zero,
        alpha_gt_2t=alpha_gt_2t,
        delta_lt_d=delta_lt_d,
        has_r_edhc=has_r,
        violation_lower=_and3(delta_zero, has_r),
        violation_upper=_and3(_not3(has_r), _not3(_or3(alpha_gt_2t, delta_lt_d))),
    )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    t: int
    d: int
    records: tuple[SampleRecord, ...]

    def aggregates(self) -> dict[str, object]:
        """Counts/frequencies recomputed from the records every call."""

        def counted(flags):
            flags = list(flags)
            known = sum(1 for f in flags if f is not None)
            true = sum(1 for f in flags if f is True)
            return true, known

        recs = self.records
        out: dict[str, object] = {"samples": len(recs)}
        for key in _COUNTED:
            out[key] = counted(getattr(r, key) for r in recs)
        out["reference_pow"] = (1.0 - self.config.p) ** self.config.n
        return out

    def to_csv(self) -> str:
        def cell(x):
            if x is None:
                return "NA"
            if isinstance(x, bool):
                return "1" if x else "0"
            return str(x)

        row = attrgetter(*_COLUMNS)
        lines = [",".join(_COLUMNS)]
        lines.extend(",".join(map(cell, row(r))) for r in self.records)
        cfg = self.config
        agg = self.aggregates()
        total = agg["samples"]
        lines.append(
            f"# params: n={cfg.n} p={cfg.p!r} r={cfg.r} samples={cfg.samples}"
            f" seed={cfg.seed} t={self.t} d={self.d}"
        )
        for key in _COUNTED:
            true, known = agg[key]
            lines.append(f"# count {key}: {true}/{total} known={known}")
        true, known = agg["no_r_edhc"]
        freq = repr(true / known) if known else "NA"
        lines.append(f"# freq no_r_edhc: {freq}")
        lines.append(f"# reference (1-p)^n: {agg['reference_pow']!r}")
        return "\n".join(lines)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Evaluate cfg.samples seeded G(n,p) draws; deterministic per config.

    Samples are independent: with jobs > 1 they are farmed to a process
    pool, and the report is identical to a sequential run because records
    are keyed by sample index and re-assembled in order.
    """
    t, d = lemma6_params(cfg.n, cfg.r)
    if jobs <= 1:
        records = [
            _evaluate_sample(cfg, t, d, i) for i in range(cfg.samples)
        ]
    else:
        # Imported here, so that commands without a pool skip loading it.
        from concurrent.futures import ProcessPoolExecutor

        fixed = repeat(cfg), repeat(t), repeat(d)
        indices = range(cfg.samples)
        chunk = max(1, cfg.samples // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_evaluate_sample, *fixed, indices, chunksize=chunk))
        records.sort(key=lambda r: r.sample)
    return ExperimentReport(cfg, t, d, tuple(records))
