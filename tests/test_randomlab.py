"""Event-sandwich experiments: parameters, per-sample seeding and the CSV."""

import pytest

from hamholes.graph import gnp_graph
from hamholes.randomlab import (
    ExperimentConfig,
    lemma6_params,
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


@pytest.mark.parametrize(
    "jobs, samples, cpus, workers",
    [
        (100000, 1, 8, None),
        (100000, 3, 8, 3),
        (100000, 30, 4, 4),
        (2, 30, 4, 2),
        (4, 30, None, None),
        (1, 30, 4, None),
        (0, 30, 4, None),
        (-5, 30, 4, None),
    ],
)
def test_experiment_starts_at_most_one_worker_per_sample_and_cpu(
    monkeypatch, jobs, samples, cpus, workers
):
    # A fork-based pool starts all max_workers processes at the first
    # submit, so --jobs is capped at the samples and the CPUs; a cap of at
    # most 1 runs in this process.  The stand-in pool maps here: no process
    # starts.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    cfg = _cfg(samples=samples)
    report = run_experiment(cfg, jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert report.records == run_experiment(cfg).records


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


# Three-valued cells, per sample of each config (seed 1, 4 samples): n = 25
# is above both oracles' size rules; at n = 16 only has_r_edhc is NA, and
# violation_upper is NA unless delta_lt_d already names a cause.
NA_CASES = [
    (25, 0.9, {"alpha_gt_2t": "NA", "has_r_edhc": "NA", "violation_upper": "NA"},
     "# count violation_upper: 0/4 known=0"),
    (16, 0.9, {"alpha_gt_2t": "0", "has_r_edhc": "NA", "violation_upper": "NA"},
     "# count violation_upper: 0/4 known=0"),
    (16, 0.3, {"delta_lt_d": "1", "has_r_edhc": "NA", "violation_upper": "0"},
     "# count violation_upper: 0/4 known=4"),
]


@pytest.mark.parametrize("n, p, cells, count_line", NA_CASES)
def test_na_propagates_through_the_violation_columns(n, p, cells, count_line):
    csv = run_experiment(ExperimentConfig(n, p, samples=4, seed=1)).to_csv()
    lines = csv.splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:5]]
    for row in rows:
        assert {key: row[key] for key in cells} == cells
        assert row["violation_lower"] == "0"
    assert count_line in lines
