"""tests/tools/pairs.py: its summary reproduces the committed BENCH files,
its verdict applies the gain rule, and its schedule alternates which side
runs first.  No benchmark runs."""

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
METRICS = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


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
