"""Seeded Monte-Carlo experiments on G(n,p).

The central object is a per-sample event sandwich: with t = ceil(sqrt(n))
and d = r*(2t) + 3r - 3, a graph with an isolated vertex can never carry r
edge-disjoint Hamilton cycles, and a graph that fails to carry them must
either have a large bipartite hole (alpha_tilde > 2t) or small minimum
degree (delta < d).  Experiments draw seeded samples, evaluate both
inclusions exactly where oracles are feasible, and report violation
counters (zero for a correct implementation) next to the (1-p)^n reference
floor for P(no r disjoint cycles).  The alpha_tilde > 2t column is a yes/no
threshold test, never the exact value.  For n <= 20 its NA cells follow
the exact scan's budget rule, so a cell is NA exactly where
alpha_tilde_exact would run out of budget on that sample; for n > 20 the
column is NA whatever the budget.  The has_r_edhc column is NA for n > 12
or r > 2, and where its oracle runs out of budget.
"""

from __future__ import annotations

import math
import os
from itertools import repeat
from operator import attrgetter

from hamholes._record import Record
from hamholes.errors import BudgetExceededError
from hamholes.graph import gnp_graph, min_degree
from hamholes.holes import (
    ALPHA_SIZE_GUARD,
    DEFAULT_BUDGET,
    _check_scan_budget,
    alpha_tilde_at_least,
)
from hamholes.oracle import exists_edge_disjoint_hc_exact

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


# ---------------------------------------------------------------------------
# Monte-Carlo experiment


class ExperimentConfig(Record):
    n: int
    p: float
    r: int = 1
    samples: int = 1
    seed: int = 0
    oracle_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.oracle_budget < 1:
            raise ValueError("budget must be positive")
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.samples < 1:
            raise ValueError(f"need samples >= 1, got {self.samples}")


class SampleRecord(Record):
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
_COLUMNS = SampleRecord._fields
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


def _evaluate_sample(cfg: ExperimentConfig, t: int, d: int, idx: int) -> SampleRecord:
    """Flags of sample idx.  For n <= 20, alpha_tilde > 2t is decided as
    alpha_tilde_at_least(g, 2t + 1), after _check_scan_budget has applied
    the exact scan's budget rule, so the column is NA exactly where
    alpha_tilde_exact(g, cfg.oracle_budget) would raise
    BudgetExceededError; for n > 20 it is NA."""
    g = gnp_graph(cfg.n, cfg.p, sample_seed(cfg.seed, idx))
    delta = min_degree(g)
    delta_zero = delta == 0
    delta_lt_d = delta < d

    alpha_gt_2t: bool | None = None
    if cfg.n <= ALPHA_SIZE_GUARD:
        try:
            _check_scan_budget(g, cfg.oracle_budget)
            alpha_gt_2t = alpha_tilde_at_least(g, 2 * t + 1, cfg.oracle_budget)
        except BudgetExceededError:
            pass

    has_r: bool | None = None
    if cfg.n <= _EDHC_MAX_N and cfg.r <= _EDHC_MAX_R:
        try:
            has_r = exists_edge_disjoint_hc_exact(g, cfg.r, cfg.oracle_budget)
        except BudgetExceededError:
            pass

    # "alpha_tilde > 2t or delta < d", NA only when alpha_gt_2t decides it.
    covered = True if delta_lt_d else alpha_gt_2t
    # By position, in field order: the quickest and leanest way to build
    # a record.
    return SampleRecord(
        idx,
        delta,
        delta_zero,
        alpha_gt_2t,
        delta_lt_d,
        has_r,
        has_r if delta_zero else False,  # violation_lower
        _and3(_not3(has_r), _not3(covered)),  # violation_upper
    )


class ExperimentReport(Record):
    config: ExperimentConfig
    t: int
    d: int
    records: tuple[SampleRecord, ...]

    def aggregates(self) -> dict[str, object]:
        """Counts/frequencies recomputed from the records every call."""
        recs = self.records
        out: dict[str, object] = {"samples": len(recs)}
        for key in _COUNTED:
            flags = [getattr(r, key) for r in recs]
            out[key] = flags.count(True), len(flags) - flags.count(None)
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

    Samples are independent: they are farmed to a pool of
    min(jobs, samples, CPU count) worker processes, or run in this process
    when that is at most 1.  The report is identical to a sequential run
    because each sample is seeded by its index and the pool's map returns
    the records in index order.  The cap matters because a fork-based pool
    starts all its workers at the first submit.
    """
    t, d = lemma6_params(cfg.n, cfg.r)
    workers = min(jobs, cfg.samples, os.cpu_count() or 1)
    if workers <= 1:
        records = [
            _evaluate_sample(cfg, t, d, i) for i in range(cfg.samples)
        ]
    else:
        # Imported here, so that commands without a pool skip loading it.
        from concurrent.futures import ProcessPoolExecutor

        fixed = repeat(cfg), repeat(t), repeat(d)
        indices = range(cfg.samples)
        chunk = max(1, cfg.samples // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_evaluate_sample, *fixed, indices, chunksize=chunk))
    return ExperimentReport(cfg, t, d, tuple(records))
