"""tests/tools/pairs.py: its summary reproduces the committed BENCH files,
its verdict applies the gain rule, its regression field the no-regression
rule, and its schedule alternates which side runs first.  No benchmark
runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "pairs", ROOT / "tests" / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = {m["name"]: m["better"] for m in END_TO_END}


def test_summary_of_bench_11_peel():
    bench = json.loads((ROOT / "BENCH_11.json").read_text())
    summary = pairs.summarize(bench["workloads"]["peel"]["pairs"], METRICS)
    assert summary["session_cal"] == {
        "parent": {"median": 17.087, "q1": 16.4857, "q3": 18.8864},
        "change": {"median": 14.0301, "q1": 13.3055, "q3": 14.5118},
        "change_better_pairs": 10,
        "median_change": -0.1789,
    }


@pytest.mark.parametrize("name", ["BENCH_11.json", "BENCH_12.json", "BENCH_14.json"])
def test_summary_reproduces_committed_files(name):
    bench = json.loads((ROOT / name).read_text())
    for workload in bench["workloads"].values():
        assert pairs.summarize(workload["pairs"], METRICS) == workload["summary"]


@pytest.mark.parametrize(
    "name,workload,better,gap,iqr,holds",
    [
        ("BENCH_11.json", "peel", 10, 3.0569, 2.4007, True),
        ("BENCH_11.json", "exact", 4, 0.5707, 2.1847, False),
        # 9 of 10 pairs, but the gap is inside the parent's spread.
        ("BENCH_37.json", "exact", 9, 0.821, 1.1618, False),
        ("BENCH_39.json", "dense", 9, 0.6548, 0.3048, True),
    ],
)
def test_verdict_applies_the_gain_rule(name, workload, better, gap, iqr, holds):
    bench = json.loads((ROOT / name).read_text())
    entry = bench["workloads"][workload]
    summary = entry["summary"]["session_cal"]
    assert pairs.verdict(summary, len(entry["pairs"]), "lower") == {
        "better_pairs": better,
        "pairs": 10,
        "median_gap": gap,
        "parent_iqr": iqr,
        "holds": holds,
    }


def test_verdict_counts_nine_tenths_and_higher_is_better():
    entry = {
        "parent": {"median": 10.0, "q1": 9.0, "q3": 11.0},
        "change": {"median": 13.5, "q1": 13.0, "q3": 14.0},
        "change_better_pairs": 18,
    }
    assert pairs.verdict(entry, 20, "higher")["holds"]
    assert not pairs.verdict(entry, 21, "higher")["holds"]
    # The same gap counts against a change where lower is better.
    assert pairs.verdict(entry, 20, "lower")["median_gap"] == -3.5
    assert not pairs.verdict(entry, 20, "lower")["holds"]


def _setup_pairs(parent, change):
    return [
        {"parent": {"metrics": {"setup_s": {"value": p}}},
         "change": {"metrics": {"setup_s": {"value": c}}}}
        for p, c in zip(parent, change)
    ]


TIGHT = [0.110, 0.112, 0.113, 0.114, 0.114, 0.114, 0.115, 0.116, 0.118, 0.120]
WIDE = [0.070, 0.080, 0.090, 0.100, 0.110, 0.118, 0.130, 0.140, 0.150, 0.160]


@pytest.mark.parametrize(
    "parent,change,expected",
    [
        # A dense setup_s median of 0.114 s against 0.145 s: +27%, past 25%.
        (TIGHT, [v + 0.031 for v in TIGHT], "worse"),
        (TIGHT, [v + 0.025 for v in TIGHT], "ok"),
        # The parent's IQR is 39% of its median: a tie cannot be told apart,
        (WIDE, WIDE, "unresolved"),
        # unless every change run beats every parent run.
        (WIDE, [v - 0.1 for v in TIGHT], "ok"),
    ],
    ids=["pr41-dense-setup", "within-bound", "wide-parent", "wide-parent-separated"],
)
def test_regression_applies_the_bound(parent, change, expected):
    got = pairs.regression(_setup_pairs(parent, change), "setup_s", "lower", 0.25)
    assert got == expected


@pytest.mark.parametrize("name", ["BENCH_39.json", "BENCH_40.json"])
def test_committed_pairs_show_no_regression(name):
    bench = json.loads((ROOT / name).read_text())
    for workload in bench["workloads"].values():
        for m in END_TO_END:
            got = pairs.regression(
                workload["pairs"], m["name"], m["better"], m["bound"]
            )
            assert got != "worse", m["name"]


def test_seeds_and_schedule():
    assert pairs.parse_seeds("4101-4104") == [4101, 4102, 4103, 4104]
    assert pairs.parse_seeds("7,9") == [7, 9]
    plan = pairs.schedule({"peel": [1, 2, 3], "dense": [7, 9]})
    assert plan == [
        ("peel", 1, ("parent", "change")),
        ("peel", 2, ("change", "parent")),
        ("peel", 3, ("parent", "change")),
        ("dense", 7, ("parent", "change")),
        ("dense", 9, ("change", "parent")),
    ]


def test_dry_run_prints_the_schedule_and_runs_nothing(capsys, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["no-such-ref", "no-such-ref", "--seeds", "peel=1-2", "--out", str(out)]
    assert pairs.main([*argv, "--dry-run"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  0 peel   seed 1: parent then change",
        "  1 peel   seed 2: change then parent",
    ]
    assert not out.exists()
