#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``hamholes`` command.

    python3 perfbench/run.py --workload dense|peel|exact --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` it runs closed-loop sessions (one client, one child at a
time) of ``python -m hamholes.cli`` against a copy of this checkout's
``src/hamholes``, as many as fill about S seconds at the program's speed
when the benchmark was defined, and reports the end-to-end metrics of
BENCHMARK.json.  Op times are reported in units of a fixed pure-Python
calibration loop timed just before and just after each op (see
``calibrate``), so that the host's CPU speed cancels out: on a shared
2-vCPU virtual machine it drifts by up to 1.8x for tens of seconds at a
time.  With ``--trace 1`` it runs the same sessions in process, once plain
and once with every layer's public functions wrapped (see ``tracing``), and
reports the per-layer metrics.  Outputs are checked outside the timed
window by ``checks``, which shares no code with hamholes, and against the
sha256 pins in ``pins.json`` when the seed has them (``pin.py`` writes
them).

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Everything the run writes goes to a temporary directory under
``.bench_work/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 7  # set-ups per timed run; setup_s is their median
IMPORT_RUNS = 5  # fresh interpreters timed for cli.import_s
CHILD_TIMEOUT = 60.0
RUN_LIMIT = 150.0  # start no session, and no child, after this many seconds

_CAL_RNG = random.Random(0)
CAL_TEXT = "\n".join(f"{_CAL_RNG.randrange(300)} {_CAL_RNG.randrange(300)}" for _ in range(25000))


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop shaped like the program's own
    work: integer arithmetic, then an edge list parsed into a dict of sets.
    It shares no code with hamholes, so no change to the program moves it;
    only the speed of the machine at that moment does."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300000):
        total += i * i
    adj: dict[int, set[int]] = {}
    for line in CAL_TEXT.split("\n"):
        a, b = line.split()
        u, v = int(a), int(b)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return time.perf_counter() - t0


class Runner:
    """Runs ops as children of this process, inside one work directory."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        # Children import a copy of the package, so the bytecode the warm-up
        # child compiles lands in the work directory, not in the checkout.
        # The standard library keeps its own cached bytecode.
        lib = work / "lib"
        shutil.copytree(SRC / "hamholes", lib / "hamholes", ignore=shutil.ignore_patterns("__pycache__"))
        self.env = dict(os.environ, PYTHONPATH=str(lib))
        for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(var, None)
        self.count = 0

    def _paths(self):
        self.count += 1
        return self.work / f"out{self.count}.txt", self.work / f"err{self.count}.txt"

    def child(self, argv: list[str]):
        from workloads import Result

        out_path, err_path = self._paths()
        if time.perf_counter() - self.started > RUN_LIMIT:
            out_path.write_text("")
            return Result(None, 0.0, out_path)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hamholes.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.work, env=self.env,
            )
            # A blocking wait returns the moment the child exits; waiting
            # with a timeout polls and rounds times up to 50 ms steps.
            watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                proc.kill()
                proc.wait()
            wall = time.perf_counter() - t0
        return Result(None if code == -signal.SIGKILL else code, wall, out_path)

    def in_process(self, argv: list[str]):
        from hamholes import cli
        from workloads import Result

        out_path, err_path = self._paths()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # an escaped error is a failed op, not a crash
            code = None
            err.write(repr(exc))
        wall = time.perf_counter() - t0
        out_path.write_text(out.getvalue())
        err_path.write_text(err.getvalue())
        return Result(code, wall, out_path)

    def import_seconds(self) -> float:
        code = "import time; t = time.perf_counter(); import hamholes.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(IMPORT_RUNS):
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  cwd=self.work, env=self.env, timeout=CHILD_TIMEOUT, check=True)
            times.append(float(done.stdout))
        return statistics.median(times)


# ---------------------------------------------------------------------------
# checking


def evaluate(op, res, pins: dict | None) -> list[str]:
    """Problems with one op's result; an empty list means it passed."""
    if res.code not in op.exits:
        return [f"exit {res.code}, expected one of {sorted(op.exits)}"]
    try:
        problems = op.check(res)
        if not problems and pins and op.pin in pins and op.digest(res) != pins[op.pin]:
            problems = ["sha256 differs from the pinned output of this seed"]
    except Exception as exc:  # a check that cannot read an output fails the op
        problems = [f"check failed: {exc!r}"]
    return problems


def self_test(passed: list, kinds: tuple[str, ...]) -> dict[str, str]:
    """Corrupt one passing output of each kind ("cycle", "cert", "csv") the
    workload writes and confirm each is counted as a failed op (pins off, so
    the structural checks must catch it).  Returns kind -> verdict; a
    verdict starting with "ok" passed."""
    from workloads import Result

    bad = {}
    for op, res in passed:
        try:
            found = op.corrupt(res)
        except ValueError:  # nothing to corrupt in this output (say, a complete graph)
            continue
        for kind, override in found:
            bad.setdefault(kind, (op, Result(res.code, res.wall, res.stdout_path, override)))
    verdicts = {}
    for kind in kinds:
        if kind not in bad:
            verdicts[kind] = "FAIL: no passing output of this kind to corrupt"
            continue
        problems = evaluate(*bad[kind], pins=None)
        verdicts[kind] = f"ok, flagged: {problems[0]}" if problems else "FAIL: not flagged"
    return verdicts


def check_all(results: list, pins: dict | None) -> tuple[int, list]:
    """Evaluate every (op, result); print failures; return (failed, passed)."""
    passed, failed = [], 0
    for op, res in results:
        problems = evaluate(op, res, pins)
        if problems:
            failed += 1
            print(f"# FAILED {' '.join(op.argv)}: {'; '.join(problems)}")
        else:
            passed.append((op, res))
    return failed, passed


# ---------------------------------------------------------------------------
# the two modes


def fresh_setup(workload: str, seed: int, work: Path, runner: Runner):
    """Write the inputs through the library and run the warm-up child,
    which compiles the bytecode into the work directory."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed, work, workloads.Graphs())
    wl.setup()
    warm = runner.child(["analyze", str(workloads.write_warmup_graph(work))])
    if warm.code != 0:
        raise RuntimeError(f"warm-up child exited {warm.code}: {warm.read()}")
    return wl


def timed_run(args, base: Path, started: float):
    def set_up(k: int):
        work = base / f"setup{k}"
        work.mkdir()
        runner = Runner(work, started)
        t0 = time.perf_counter()
        wl = fresh_setup(args.workload, args.seed, work, runner)
        return wl, runner, time.perf_counter() - t0

    wl, runner, first = set_up(0)
    setup_times = [first]
    count = wl.session_count(args.seconds)
    # The other set-ups are spread over the run, so that a phase in which the
    # host runs slow cannot cover all of them.
    later = [count * k // SETUPS for k in range(1, SETUPS)]

    sessions = []
    for i in range(count):
        if sessions and time.perf_counter() - started > RUN_LIMIT:
            break
        for _ in range(later.count(i)):
            *_, took = set_up(len(setup_times))
            setup_times.append(took)
            shutil.rmtree(base / f"setup{len(setup_times) - 1}")
        results, ratios = [], []
        before = calibrate()
        for op in wl.session(f"s{i}"):
            res = runner.child(op.argv)
            after = calibrate()
            results.append((op, res))
            ratios.append(res.wall / ((before + after) / 2))
            before = after
        sessions.append((results, ratios))
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # On a shared host the CPU speed drifts for tens of seconds at a time,
    # longer than a run, so neither the median nor the
    # fastest wall time of an op over one run is steady from run to run.
    # The op's time over the calibration loop timed on either side of it is:
    # both slow down together.  Each op's median ratio over the sessions,
    # all on the same input, summed over the session's ops, is session_cal.
    per_op = list(zip(*(zip(results, ratios) for results, ratios in sessions)))
    medians = [statistics.median(ratio for _, ratio in runs) for runs in per_op]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "session_cal": sum(medians),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    for runs, med in zip(per_op, medians):
        walls = [res.wall for (_, res), _ in runs]
        label = " ".join(Path(a).name if "/" in a else a for a in runs[0][0][0].argv)
        print(f"# {label}: median {med:.3f} cal; wall fastest {min(walls):.4f} s, "
              f"median {statistics.median(walls):.4f} s, max {max(walls):.4f} s")
    walls = [sum(res.wall for _, res in results) for results, _ in sessions]
    print(f"# {len(sessions)} sessions of {len(per_op)} children, wall: {[round(w, 4) for w in walls]} s")
    print(f"# children per second over all sessions: {len(sessions) * len(per_op) / sum(walls):.4f}")
    print(f"# setups {[round(t, 4) for t in setup_times]} s")
    all_results = [pair for results, _ in sessions for pair in results]
    return metrics, all_results, []


def traced_run(args, base: Path, started: float):
    import tracing
    from hamholes import _kernels

    work = base / "trace"
    work.mkdir()
    runner = Runner(work, started)
    wl = fresh_setup(args.workload, args.seed, work, runner)
    import_s = runner.import_seconds()

    totals = tracing.LayerTotals()
    all_results, mismatches = [], []
    plain_s = traced_s = 0.0
    pairs = 0
    t_start = time.perf_counter()
    while True:
        # Alternate which of the pair runs first, so warm-up and drift in
        # machine speed do not all land on one side of the overhead.
        for traced in (pairs % 2, 1 - pairs % 2):
            ops = wl.session(f"{'ut'[traced]}{pairs}")
            if not traced:
                t0 = time.perf_counter()
                all_results += [(op, runner.in_process(op.argv)) for op in ops]
                plain_s += time.perf_counter() - t0
                continue
            tracer = tracing.Tracer(keep_kernel_args=_kernels._native is not None)
            t0 = time.perf_counter()
            with tracer:
                all_results += [(op, runner.in_process(op.argv)) for op in ops]
            traced_s += time.perf_counter() - t0
            totals.add(tracer.spans)
            mismatches += tracing.backend_mismatches(tracer)
        pairs += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (pairs + 1) / pairs > args.seconds:
            break

    metrics = totals.metrics(pairs)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    print(f"# {pairs} plain + {pairs} traced in-process sessions; plain {plain_s:.3f} s, traced {traced_s:.3f} s")
    for line in predictions(args.workload, metrics):
        print(line)
    return metrics, all_results, mismatches


def predictions(workload: str, m: dict) -> list[str]:
    """The layer predictions this benchmark was built on, checked."""
    out = []
    if workload in ("dense", "peel"):
        calls = m["kernels.hole_search.calls"] + m["kernels.hamilton_cycle_search.nodes"] + m["kernels.independence_number.nodes"]
        out.append(("kernels never run", calls == 0))
    if workload == "peel":
        out.append(("hamilton.rounds_per_find > 1", m["hamilton.rounds_per_find"] > 1))
    if workload == "dense":
        funcs = {k: v for k, v in m.items() if k.endswith(".self_s") and k.count(".") >= 2}
        top = max(funcs, key=funcs.get)
        out.append((f"graph.parse_graph.self_s is the largest self time (largest: {top})", top == "graph.parse_graph.self_s"))
    return [f"# prediction {text}: {'holds' if ok else 'DOES NOT HOLD'}" for text, ok in out]


# ---------------------------------------------------------------------------


def environment() -> dict:
    import hamholes

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "python": platform.python_version(),
        "backend": hamholes.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg": loadavg,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "hamholes" / "cli.py").is_file():
        print(f"error: {SRC} holds no hamholes sources; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text()).get(args.workload, {}).get(str(args.seed))

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    if env["backend"] == "pure":
        print("# note: the compiled kernel extension does not import, so only the pure backend is measured")
    print(f"# pins: {'sha256 of gen, experiment and disjoint outputs' if pins else 'none for this seed; structural checks only'}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work", prefix=f"{args.workload}-") as tmp:
            run = traced_run if args.trace else timed_run
            values, results, mismatches = run(args, Path(tmp), started)
            failed, passed = check_all(results, pins)
            verdicts = self_test(passed, workloads.WORKLOADS[args.workload].corrupted)
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    for kind, verdict in verdicts.items():
        print(f"# self-test {kind}: {verdict}")
    for problem in mismatches:
        print(f"# {problem}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# attempted {len(results)} failed {failed}")
    correct = failed == 0 and not mismatches and all(v.startswith("ok") for v in verdicts.values())
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
