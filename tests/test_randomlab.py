"""Event-sandwich experiments and the P1/P2/m(n,d) property checks."""

import math

import pytest

from hamholes.graph import complete_graph, disjoint_union, gnp_graph, Graph
from hamholes.holes import has_bipartite_hole
from hamholes.randomlab import (
    ExperimentConfig,
    check_P1,
    check_P2,
    lemma6_params,
    m_value,
    run_experiment,
    sample_seed,
)

# ---------------------------------------------------------------------------
# parameters


def test_lemma6_params():
    assert lemma6_params(10, 1) == (4, 8)
    assert lemma6_params(100, 2) == (10, 43)
    assert lemma6_params(1, 1) == (1, 2)
    assert lemma6_params(16, 1) == (4, 8)
    assert lemma6_params(17, 1) == (5, 10)
    with pytest.raises(ValueError):
        lemma6_params(0, 1)
    with pytest.raises(ValueError):
        lemma6_params(5, 0)


def test_m_value():
    n, d = 100.0, 10.0
    expect = (math.log(n) * math.log(math.log(math.log(n)))) / (
        math.log(d) * math.log(math.log(n))
    )
    assert m_value(n, d) == pytest.approx(expect)
    with pytest.raises(ValueError):
        m_value(10.0, 10.0)  # n <= e^e
    with pytest.raises(ValueError):
        m_value(100.0, 1.0)  # d <= 1


# ---------------------------------------------------------------------------
# P1 / P2


def test_check_P2_matches_hole_search():
    for seed in range(8):
        g = gnp_graph(14, 0.3, seed=seed)
        m_val = 2.0
        ok, hole = check_P2(g, m_val)
        a = max(1, math.ceil(g.n / (4130 * m_val)))
        direct = has_bipartite_hole(g, a, a)
        assert ok == (direct is None)
        if hole is not None:
            assert len(hole.s_side) == a and len(hole.t_side) == a


def test_check_P1_expansion():
    # cap = floor(8 / 4) = 2; K_8 gives |N(S) \ S| = 8 - |S| >= 2|S| there
    ok, witness = check_P1(complete_graph(8), d_exp=2.0, m_val=2.0)
    assert ok and witness is None
    # the K_2 component stops expanding: S = {0, 1} has no outside neighbors
    g = disjoint_union(complete_graph(2), complete_graph(6))
    ok, witness = check_P1(g, d_exp=2.0, m_val=1.0)
    assert not ok
    # the witness really violates the expansion inequality
    union = set()
    for v in witness:
        union.update(g.neighbors(v))
    assert len(union - set(witness)) < 2.0 * len(witness)


def test_check_P1_vacuous_below_one():
    ok, witness = check_P1(Graph(5), d_exp=10.0, m_val=10.0)
    assert ok and witness is None  # size cap < 1 leaves nothing to check


# ---------------------------------------------------------------------------
# seeding


def test_sample_seed_is_splitmix64():
    mask = (1 << 64) - 1

    def reference(seed, index):
        x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    for seed in (0, 1, 123456789, 2**63):
        for index in (0, 1, 7, 1000):
            assert sample_seed(seed, index) == reference(seed, index)


def test_sample_seeds_distinct():
    seen = {sample_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000


# ---------------------------------------------------------------------------
# experiments


def _cfg(**kw):
    base = dict(n=8, p=0.5, r=1, samples=20, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n=2)
    with pytest.raises(ValueError):
        _cfg(p=1.5)
    with pytest.raises(ValueError):
        _cfg(samples=0)
    with pytest.raises(ValueError):
        _cfg(r=0)


def test_experiment_deterministic_and_parallel_equal():
    cfg = _cfg(samples=30)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    c = run_experiment(cfg, jobs=3)
    assert a.to_csv() == b.to_csv() == c.to_csv()
    assert a.records == c.records


def test_experiment_p_zero_and_one():
    zero = run_experiment(_cfg(p=0.0, samples=10))
    agg = zero.aggregates()
    assert agg["delta_zero"] == (10, 10)
    assert agg["no_r_edhc"] == (10, 10)
    assert agg["violation_lower"] == (0, 10)
    assert agg["violation_upper"] == (0, 10)
    one = run_experiment(_cfg(p=1.0, samples=10))
    agg = one.aggregates()
    assert agg["delta_zero"] == (0, 10)
    assert agg["no_r_edhc"] == (0, 10)
    assert agg["violation_lower"] == (0, 10)
    assert agg["violation_upper"] == (0, 10)


def test_sandwich_holds_per_record():
    report = run_experiment(_cfg(n=10, samples=60, seed=77))
    t, d = report.t, report.d
    for rec in report.records:
        assert rec.delta_lt_d == (rec.delta < d)
        assert rec.delta_zero == (rec.delta == 0)
        if rec.has_r_edhc is not None:
            # lower inclusion: delta = 0 forbids any Hamilton cycle
            assert not (rec.delta_zero and rec.has_r_edhc)
            if rec.alpha_gt_2t is not None and not rec.has_r_edhc:
                # upper inclusion: failure implies a named cause
                assert rec.alpha_gt_2t or rec.delta_lt_d


def test_records_match_direct_recomputation():
    cfg = _cfg(n=9, samples=12, seed=31)
    report = run_experiment(cfg)
    for rec in report.records:
        g = gnp_graph(cfg.n, cfg.p, sample_seed(cfg.seed, rec.sample))
        assert rec.delta == min(g.degrees)


def test_large_n_columns_go_na():
    report = run_experiment(_cfg(n=25, samples=4))
    csv = report.to_csv()
    body = [line for line in csv.splitlines() if line and not line.startswith("#")]
    header, rows = body[0], body[1:]
    cols = header.split(",")
    for row in rows:
        cells = dict(zip(cols, row.split(",")))
        assert cells["alpha_gt_2t"] == "NA"
        assert cells["has_r_edhc"] == "NA"
        # the upper flag resolves to 0 when delta_lt_d already names a cause
        # (unknown AND False = False); it stays NA only without one
        if cells["delta_lt_d"] == "1":
            assert cells["violation_upper"] == "0"
        else:
            assert cells["violation_upper"] == "NA"
        # lower flag still resolves when delta > 0 (False and unknown = False)
        if cells["delta_zero"] == "0":
            assert cells["violation_lower"] == "0"
    agg = report.aggregates()
    assert agg["alpha_gt_2t"] == (0, 0)


def test_csv_layout():
    report = run_experiment(_cfg(samples=3))
    lines = report.to_csv().splitlines()
    assert lines[0] == (
        "sample,delta,delta_zero,alpha_gt_2t,delta_lt_d,"
        "has_r_edhc,violation_lower,violation_upper"
    )
    data = [l for l in lines if l and not l.startswith("#")]
    assert len(data) == 1 + 3
    assert any(l.startswith("# params:") for l in lines)
    assert any(l.startswith("# reference (1-p)^n:") for l in lines)
    counted = [l.split(":")[0][8:] for l in lines if l.startswith("# count ")]
    assert counted == [
        "delta_zero", "delta_lt_d", "alpha_gt_2t", "no_r_edhc",
        "violation_lower", "violation_upper",
    ]
    # the aggregate freq line mirrors the counts
    counts = report.aggregates()
    true, known = counts["no_r_edhc"]
    freq_line = next(l for l in lines if l.startswith("# freq no_r_edhc:"))
    if known:
        assert freq_line.endswith(repr(true / known))
    else:
        assert freq_line.endswith("NA")
