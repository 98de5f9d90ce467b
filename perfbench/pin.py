#!/usr/bin/env python3
"""Write pins.json: the sha256 of every pinned output for the shipped seeds.

    python3 perfbench/pin.py

For each workload and each seed in SEEDS, builds the inputs, runs the ops
that carry a pin label (gen, experiment, disjoint) as ``hamholes`` children,
checks them like a benchmark run, and records the digest of each.  The pins
hold outputs byte-identical across changes; rewrite them only in a change
that alters an output format on purpose, and say so there.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402

SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    pins: dict[str, dict[str, dict[str, str]]] = {}
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work", prefix="pin-") as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                runner = run.Runner(work, time.perf_counter())
                wl = run.fresh_setup(name, seed, work, runner)
                results = [(op, runner.child(op.argv)) for op in wl.session("p") if op.pin]
                failed, _ = run.check_all(results, None)
                if failed:
                    print(f"error: {name} seed {seed} fails its checks; nothing written", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = {op.pin: op.digest(res) for op, res in results}
                shutil.rmtree(work)
                print(f"{name} seed {seed}: {len(results)} outputs pinned")
    (run.ROOT / ".bench_work").rmdir()
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
