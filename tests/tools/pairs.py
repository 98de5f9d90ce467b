"""Run alternated parent/change benchmark pairs and write a BENCH_*.json.

Run from the repository root:

    python tests/tools/pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        --seeds peel=4101-4120 --seeds dense=4201-4210 \\
        --change-text "what the change does" --claim peel:session_cal

PARENT and CHANGE are anything ``git archive`` takes: a commit, a branch,
or the staged tree as ``$(git write-tree)``.  Each is unpacked into a fresh
temporary directory, so neither side has cached bytecode.  For each
``--seeds WORKLOAD=SEEDS`` (a range ``A-B`` or a list ``A,B,C``) it runs
one pair per seed: ``perfbench/run.py --workload W --seed S --seconds T``
in each directory, with T the ``run_seconds`` of BENCHMARK.json, the
parent first in even-numbered pairs (counting from 0) and the change first
in odd ones.  Each side's entry is run.py's last stdout line, with its
metrics cut to the end-to-end metrics that BENCHMARK.json declares.

The output has the layout of the committed BENCH_*.json files: ``change``,
``command``, ``method``, ``host``, ``claim`` and per workload ``seeds``,
``summary`` and ``pairs``.  The summary gives, per metric, the median and
quartiles of each side (statistics.quantiles, n=4, its default exclusive
method), the number of pairs in which the change was better, and
``median_change``, median(change) / median(parent) - 1.  For the
``--claim`` metric, ``claim.verdict`` says whether the gain rule holds: the
change is better in at least nine tenths of the pairs, ties counting for
neither side, and its median beats the parent's by more than the parent's
q3 - q1.  Every metric's ``regression`` applies the no-regression rule
with the metric's ``bound`` from BENCHMARK.json: ``"worse"`` when the
change's median is worse than the parent's by more than the bound (a
fraction of the parent's median), else ``"unresolved"`` when the parent's
(q3 - q1) / median exceeds the bound and not every change run beats every
parent run, else ``"ok"``.  Each result that is not ``"ok"`` is printed
last.  The file is rewritten after every pair, so an interrupted run keeps
what it measured.
``--dry-run`` prints the schedule and runs nothing.  It needs nothing
beyond git and the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds}"


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or ``A,B,...`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def schedule(workloads: dict[str, list[int]]) -> list[tuple[str, int, tuple[str, str]]]:
    """(workload, seed, side order) for every run pair, in run order."""
    return [
        (name, seed, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
        for name, seeds in workloads.items()
        for i, seed in enumerate(seeds)
    ]


def _round(x: float) -> float:
    return round(x, 4)


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric (name -> "lower" or "higher" is better): each side's
    median and quartiles, the pairs the change won, and median_change."""
    out = {}
    for name, better in metrics.items():
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        entry = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry[side] = {"median": _round(median), "q1": _round(q1), "q3": _round(q3)}
        sign = 1 if better == "lower" else -1
        entry["change_better_pairs"] = sum(
            sign * c < sign * p for p, c in zip(sides["parent"], sides["change"])
        )
        entry["median_change"] = _round(
            statistics.median(sides["change"]) / statistics.median(sides["parent"]) - 1
        )
        out[name] = entry
    return out


def verdict(entry: dict, pairs: int, better: str) -> dict:
    """The gain rule on one metric's summary ``entry`` over ``pairs`` pairs:
    the change better in at least 9 of every 10, and the median gap, in the
    change's favour, wider than the parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    parent = entry["parent"]
    gap = sign * (parent["median"] - entry["change"]["median"])
    iqr = parent["q3"] - parent["q1"]
    won = entry["change_better_pairs"]
    return {
        "better_pairs": won,
        "pairs": pairs,
        "median_gap": _round(gap),
        "parent_iqr": _round(iqr),
        "holds": 10 * won >= 9 * pairs and gap > iqr,
    }


def regression(pairs: list[dict], name: str, better: str, bound: float) -> str:
    """The no-regression rule on metric ``name`` over ``pairs``: "worse",
    "unresolved" or "ok" (see the module docstring)."""
    sign = 1 if better == "lower" else -1
    parent, change = (
        [p[side]["metrics"][name]["value"] for p in pairs]
        for side in ("parent", "change")
    )
    median = statistics.median(parent)
    if sign * (statistics.median(change) / median - 1) > bound:
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    every_run_better = all(sign * c < sign * p for c in change for p in parent)
    if (q3 - q1) / median > bound and not every_run_better:
        return "unresolved"
    return "ok"


def unpack(ref: str, into: Path) -> None:
    """The files of ``ref`` as ``git archive`` gives them, under ``into``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def run_once(
    tree: Path, workload: str, seed: int, seconds: int, keep: list[str]
) -> dict:
    """run.py's last stdout line, its metrics cut to ``keep``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        check=True,
        capture_output=True,
        text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: result["metrics"][name] for name in keep}
    return result


def host() -> str:
    return (
        f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()}, "
        f"Python {platform.python_version()}"
    )


def method(workloads: dict[str, list[int]]) -> str:
    counts = ", ".join(f"{len(s)} on {w}" for w, s in workloads.items())
    return (
        f"pairs per workload: {counts}; parent and change run alternately, the "
        "parent first in even-numbered pairs (counting from 0); both sides from "
        "fresh directories made with git archive, so neither has cached "
        "bytecode; each entry is run.py's last stdout line. Quartiles are "
        "statistics.quantiles(n=4) (exclusive method). Written by "
        "tests/tools/pairs.py."
    )


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", action="append", required=True,
                    metavar="WORKLOAD=SEEDS")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--change-text", dest="change_text", default="")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args(argv)

    workloads = {}
    for item in args.seeds:
        name, _, seeds = item.partition("=")
        workloads[name] = parse_seeds(seeds)
    plan = schedule(workloads)
    if args.dry_run:
        for i, (name, seed, order) in enumerate(plan):
            print(f"{i:3} {name:6} seed {seed}: {order[0]} then {order[1]}")
        return 0
    if args.out is None:
        ap.error("--out is required unless --dry-run")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric, "better": metrics[metric]}
    report = {
        "change": args.change_text,
        "command": COMMAND.format(seconds=seconds),
        "method": method(workloads),
        "host": host(),
        "claim": claim,
        "workloads": {name: {"seeds": seeds, "summary": {}, "pairs": []}
                      for name, seeds in workloads.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        unpack(args.parent, trees["parent"])
        unpack(args.change, trees["change"])
        for name, seed, order in plan:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], name, seed, seconds, list(metrics))
            entry = report["workloads"][name]
            entry["pairs"].append(pair)
            if len(entry["pairs"]) > 1:  # quartiles need two runs a side
                entry["summary"] = summarize(entry["pairs"], metrics)
                for m, better in metrics.items():
                    entry["summary"][m]["regression"] = regression(
                        entry["pairs"], m, better, bounds[m]
                    )
                if claim and claim["workload"] == name:
                    claim["verdict"] = verdict(
                        entry["summary"][claim["metric"]], len(entry["pairs"]),
                        claim["better"],
                    )
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            moved = (
                f"{m} {pair['parent']['metrics'][m]['value']:.4g} -> "
                f"{pair['change']['metrics'][m]['value']:.4g}"
                for m in metrics
            )
            print(f"{name} {seed}:", "; ".join(moved), flush=True)
    if claim and "verdict" in claim:
        v = claim["verdict"]
        print(
            f"claim {claim['workload']}:{claim['metric']}: better in "
            f"{v['better_pairs']} of {v['pairs']} pairs, median gap "
            f"{v['median_gap']:.4g} against parent IQR {v['parent_iqr']:.4g}: "
            f"{'holds' if v['holds'] else 'DOES NOT HOLD'}"
        )
    for name, entry in report["workloads"].items():
        for m, stats in entry["summary"].items():
            if stats["regression"] != "ok":
                print(
                    f"regression {name}:{m}: {stats['regression']}, median "
                    f"{stats['median_change']:+.1%} against bound {bounds[m]:.0%}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
