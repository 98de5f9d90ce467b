"""The three workloads: seeded inputs and the op list of one session.

A session is a fixed list of ``hamholes`` invocations, run one after the
other.  Every op names the subcommand whose end-to-end metric its wall time
feeds, the exit codes it may end with, the files it writes, and the check
(from ``checks``, never from hamholes) that its outputs must pass.  Inputs
are written through the library in ``setup``; the program itself receives
only command-line arguments and those files.

Why these workloads:

- ``dense`` writes G(700, 0.5) with ``gen``, solves it with ``hamilton`` and
  checks the cycle with ``verify``, then does the same for the complete
  bipartite K(300, 400), whose answer is a certificate (exit 2).  The files
  have 120k edges: parsing dominates every op, the solver takes
  milliseconds and no kernel runs.
- ``peel`` peels ~107 edge-disjoint Hamilton cycles off G(300, 0.8) with
  ``disjoint`` and solves the sparse G(4000, 0.01) with ``hamilton``, which
  needs ~70 extend/close/reopen rounds.  The hamilton and disjoint layers
  dominate; parsing is small.
- ``exact`` runs two sandwich ``experiment`` ops (hole kernels, the nested
  edge-disjoint oracle) and ``analyze --exact`` on G(18, 0.7), G(20, 0.5)
  and fan-example(6, 2).  Ops are short, so interpreter start and import
  weigh most.  The r = 2 experiment uses p = 0.8: at p = 0.5 the 1% of
  samples whose search must prove that no two disjoint cycles exist take
  ~90% of the time, so the op's cost swings fivefold between seeds.

Each workload runs only its own subcommands.  Every session of a run gives
each op the same arguments and the same input files, so the median of an
op's times across sessions is the program's time on one fixed input.
``reduce`` is not measured: its only cost is a linear construction.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from hamholes.graph import (
    bipartite_graph,
    fan_example_graph,
    gnp_graph,
    min_degree,
    petersen_graph,
    serialize_graph,
)



@dataclass
class Result:
    """What one run of an op left behind.  ``override`` replaces file or
    stdout contents (keyed by path, or None for stdout) for the self-test."""

    code: int | None
    wall: float
    stdout_path: Path
    override: dict | None = None

    def read(self, path: Path | None = None) -> str:
        if self.override and path in self.override:
            return self.override[path]
        return (path or self.stdout_path).read_text()


@dataclass
class Op:
    cmd: str
    argv: list[str]
    exits: frozenset
    check: Callable[[Result], list[str]]
    outputs: Callable[[], list[Path]] = list
    pin: str | None = None
    # For the checker self-test: given a passing result, a list of (kind of
    # output: "cycle", "cert" or "csv"; contents that corrupt one of it).
    corrupt: Callable[[Result], list[tuple[str, dict]]] = lambda res: []

    def digest(self, res: Result) -> str:
        """sha256 of stdout followed by every output file, in order."""
        h = hashlib.sha256(res.read().encode())
        for path in self.outputs():
            h.update(res.read(path).encode())
        return h.hexdigest()


class Graphs:
    """Input graphs parsed once by the independent reader."""

    def __init__(self):
        self._cache: dict[Path, checks.EdgeGraph] = {}

    def __getitem__(self, path: Path) -> checks.EdgeGraph:
        if path not in self._cache:
            self._cache[path] = checks.parse_edge_list(path.read_text())
        return self._cache[path]


def _write_graph(path: Path, g) -> None:
    path.write_text(serialize_graph(g) + "\n")


class Workload:
    name = ""
    corrupted = ("cycle", "cert")  # output kinds the checker self-test corrupts
    session_s = 1.0  # wall time of one session, measured when the benchmark was defined

    def __init__(self, seed: int, work: Path, graphs: Graphs):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work
        self.graphs = graphs

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self) -> None:
        raise NotImplementedError

    def session(self, tag: str) -> list[Op]:
        raise NotImplementedError

    def session_count(self, seconds: float) -> int:
        """Sessions in a run of about ``seconds`` at the program's speed when
        the benchmark was defined.  The count does not depend on the speed of
        the program under test, so neither does the median over them."""
        return max(3, round(seconds / self.session_s))

    def _seed(self) -> int:
        return self.rng.randrange(1 << 31)

    # -- op builders ------------------------------------------------------

    def gen(self, n: int, p: str, seed: int, expect: Path, out: Path) -> Op:
        def check(res):
            got = checks.parse_edge_list(res.read(out))  # strict: sorted, no duplicates
            problems = checks.gnp_problems(got, n, float(p))
            if res.read(out) != expect.read_text():
                problems.append("gen output differs from the library's serialization")
            return problems

        argv = ["gen", "--family", "gnp", "--n", str(n), "--p", p, "--seed", str(seed), "--out", str(out)]
        return Op("gen", argv, frozenset({0}), check, lambda: [out], pin="gen")

    def hamilton(self, graph: Path, out: Path, exits: set[int]) -> Op:
        def check(res):
            text = res.read(out)
            if res.read() != text:
                return ["hamilton stdout differs from its --out file"]
            return checks.answer_problems(self.graphs[graph], text, res.code)

        def corrupt(res):
            g, text = self.graphs[graph], res.read(out)
            if res.code == 0:
                bad = ("cycle", checks.corrupt_cycle(g, text))
            else:
                bad = ("cert", checks.corrupt_cert(g, text))
            return [(bad[0], {out: bad[1], None: bad[1]})]

        return Op("hamilton", ["hamilton", str(graph), "--out", str(out)],
                  frozenset(exits), check, lambda: [out], corrupt=corrupt)

    def verify(self, graph: Path, answer: Path) -> Op:
        def check(res):
            text = answer.read_text()
            if text.startswith("cycle "):
                want = f"valid cycle on {self.graphs[graph].n} vertices\n"
            else:
                want = f"valid certificate: alpha-tilde >= {text.split()[1]}\n"
            got = res.read()
            return [] if got == want else [f"verify printed {got!r}, expected {want!r}"]

        return Op("verify", ["verify", str(graph), str(answer)], frozenset({0}), check)

    def analyze_exact(self, graph: Path) -> Op:
        def check(res):
            return checks.analyze_problems(self.graphs[graph], res.read())

        return Op("analyze", ["analyze", str(graph), "--exact"], frozenset({0}), check)

    def disjoint(self, graph: Path, prefix: Path) -> Op:
        def files():
            cycles = []
            while (path := Path(f"{prefix}.cycle.{len(cycles) + 1}")).exists():
                cycles.append(path)
            return cycles + [Path(f"{prefix}.residual.cert"), Path(f"{prefix}.translated.cert")]

        def check(res):
            *cycles, residual, translated = files()
            return checks.disjoint_problems(
                self.graphs[graph], res.read(), [res.read(p) for p in cycles],
                res.read(residual), res.read(translated))

        def corrupt(res):
            *cycles, residual, _ = files()
            g = self.graphs[graph]
            orders = [checks.parse_cycle_text(res.read(p)) for p in cycles]
            rest = checks.without_cycles(g, orders)
            return [("cycle", {cycles[0]: checks.corrupt_cycle(g, res.read(cycles[0]))}),
                    ("cert", {residual: checks.corrupt_cert(rest, res.read(residual))})]

        return Op("disjoint", ["disjoint", str(graph), "--out", str(prefix)], frozenset({0}),
                  check, files, pin="disjoint", corrupt=corrupt)

    def experiment(self, n: int, p: str, r: int, samples: int, seed: int, out: Path,
                   pin: str = "experiment") -> Op:
        def check(res):
            if res.read():
                return ["experiment printed to stdout despite --out"]
            return checks.csv_problems(res.read(out), n, float(p), r, samples, seed)

        def corrupt(res):
            return [("csv", {out: checks.corrupt_csv(res.read(out))})]

        argv = ["experiment", "--n", str(n), "--p", p, "--r", str(r), "--samples", str(samples),
                "--seed", str(seed), "--jobs", "1", "--out", str(out)]
        return Op("experiment", argv, frozenset({0}), check, lambda: [out], pin=pin,
                  corrupt=corrupt)


class Dense(Workload):
    name = "dense"
    session_s = 2.1

    def __init__(self, seed, work, graphs):
        super().__init__(seed, work, graphs)
        self.gnp_seed = self._seed()

    def setup(self):
        _write_graph(self.path("g.txt"), gnp_graph(700, 0.5, self.gnp_seed))
        _write_graph(self.path("bip.txt"), bipartite_graph(300, 400))

    def session(self, tag):
        g, b = self.path("g.txt"), self.path("bip.txt")
        out = lambda name: self.path(f"{tag}-{name}")  # noqa: E731
        return [
            self.gen(700, "0.5", self.gnp_seed, g, out("gen.txt")),
            # gen must write g.txt byte for byte, so the solver reads that.
            self.hamilton(g, out("g.ans"), {0}),
            self.verify(g, out("g.ans")),
            self.hamilton(b, out("b.ans"), {2}),
            self.verify(b, out("b.ans")),
        ]


class Peel(Workload):
    name = "peel"
    session_s = 1.35

    def __init__(self, seed, work, graphs):
        super().__init__(seed, work, graphs)
        self.dense_seed, self.sparse_seed = self._seed(), self._seed()

    def setup(self):
        _write_graph(self.path("p.txt"), gnp_graph(300, 0.8, self.dense_seed))
        _write_graph(self.path("s.txt"), gnp_graph(4000, 0.01, self.sparse_seed))

    def session(self, tag):
        p, s = self.path("p.txt"), self.path("s.txt")
        out = lambda name: self.path(f"{tag}-{name}")  # noqa: E731
        return [
            self.disjoint(p, out("dj")),
            # G(4000, 0.01) is far below the degree condition, so a
            # certificate is as correct an answer as a cycle.
            self.hamilton(s, out("s.ans"), {0, 2}),
        ]


class Exact(Workload):
    name = "exact"
    corrupted = ("csv",)
    session_s = 2.1
    # The exact connectivity search enumerates every removal set below
    # kappa (= min degree on these samples), so its cost follows the
    # minimum degree.  The analyze --exact graphs are the first ones the
    # seed draws at one minimum degree per family: seeds change the graphs
    # but not the size of the search.
    FAMILIES = ((18, 0.7, 10), (20, 0.5, 5))

    def __init__(self, seed, work, graphs):
        super().__init__(seed, work, graphs)
        self.exp_seeds = (self._seed(), self._seed())
        self.graph_seeds = {}
        for n, p, delta in self.FAMILIES:
            s = self._seed()
            while min_degree(gnp_graph(n, p, s)) != delta:
                s = self._seed()
            self.graph_seeds[n] = s

    def setup(self):
        for n, p, _ in self.FAMILIES:
            _write_graph(self.path(f"g{n}.txt"), gnp_graph(n, p, self.graph_seeds[n]))
        _write_graph(self.path("fan.txt"), fan_example_graph(6, 2))

    def session(self, tag):
        out = lambda name: self.path(f"{tag}-{name}")  # noqa: E731
        return [
            self.experiment(10, "0.3", 1, 3000, self.exp_seeds[0], out("exp1.csv"), "experiment.1"),
            self.experiment(12, "0.8", 2, 1000, self.exp_seeds[1], out("exp2.csv"), "experiment.2"),
            self.analyze_exact(self.path("g18.txt")),
            self.analyze_exact(self.path("g20.txt")),
            self.analyze_exact(self.path("fan.txt")),
        ]


WORKLOADS = {cls.name: cls for cls in (Dense, Peel, Exact)}


def write_warmup_graph(work: Path) -> Path:
    path = work / "warm.txt"
    _write_graph(path, petersen_graph())
    return path
