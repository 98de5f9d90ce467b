"""Command-line front end.

Subcommands: gen | analyze | hamilton | disjoint | reduce | experiment |
verify.  Exit codes are part of the contract: 0 success (for ``hamilton``,
a Hamilton cycle), 1 parse/usage/verification failure, 2 ``hamilton``
terminated with a hole certificate, 3 a size guard or work budget aborted
an exact computation, 4 an internal error (a bug: an algorithm broke one of
its own guarantees).  Inputs come from a path argument or standard input
("-" also means stdin).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hamholes.disjoint import find_edge_disjoint_hamilton
from hamholes.errors import (
    BudgetExceededError,
    ContractViolationError,
    HamholesError,
)
from hamholes.graph import FAMILIES, generate, min_degree, parse_graph, serialize_graph
from hamholes.hamilton import find_hamilton, parse_cycle, serialize_cycle
from hamholes.hardness import bcbs_to_bhn, parse_instance
from hamholes.holes import (
    alpha_tilde_exact,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from hamholes.oracle import (
    DEFAULT_BUDGET,
    WorkBudget,
    independence_number_exact,
    vertex_connectivity_exact,
)
from hamholes.randomlab import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERTIFICATE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken by the
    # certificate outcome, so usage problems are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamholes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="write a graph from a named family")
    p.add_argument("--family", required=True, help="family name or spec string")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("analyze", help="print n m delta (and exact values)")
    p.add_argument("graph", nargs="?")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=int)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("hamilton", help="Hamilton cycle or hole certificate")
    p.add_argument("graph", nargs="?")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_hamilton)

    p = sub.add_parser("disjoint", help="edge-disjoint Hamilton cycles")
    p.add_argument("graph", nargs="?")
    p.add_argument("--r", type=int, help="stop after this many cycles")
    p.add_argument("--out", help="output file prefix")
    p.set_defaults(run=_cmd_disjoint)

    p = sub.add_parser("reduce", help="biclique instance -> hole-number graph")
    p.add_argument("instance", nargs="?")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("experiment", help="seeded G(n,p) sandwich experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_experiment)

    p = sub.add_parser("verify", help="check a cycle or certificate file")
    p.add_argument("graph")
    p.add_argument("answer")
    p.set_defaults(run=_cmd_verify)

    return parser


def _cmd_gen(args) -> int:
    family = args.family.strip()
    if any(ch in family for ch in " (,"):
        spec = family
    else:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        params = []
        for flag in FAMILIES[family][1]:
            value = getattr(args, flag)
            if value is None:
                raise ValueError(f"family {family!r} requires --{flag}")
            params.append(str(value))
        spec = " ".join([family] + params)
    g = generate(spec, seed=args.seed)
    _write_text(serialize_graph(g) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = parse_graph(_read_text(args.graph))
    print(f"{g.n} {g.m} {min_degree(g)}")
    if args.exact:
        wb = WorkBudget(args.budget) if args.budget is not None else DEFAULT_BUDGET
        alpha = independence_number_exact(g, wb)
        alpha_tilde = alpha_tilde_exact(g, args.budget)
        kappa = vertex_connectivity_exact(g, wb)
        print(f"{alpha} {alpha_tilde} {kappa}")
    return EXIT_OK


def _cmd_hamilton(args) -> int:
    g = parse_graph(_read_text(args.graph))
    result = find_hamilton(g)
    if result.cycle is not None:
        text = serialize_cycle(result.cycle)
        _write_text(text + "\n", args.out or "answer.cycle")
        print(text)
        return EXIT_OK
    text = serialize_certificate(result.certificate)
    _write_text(text + "\n", args.out or "answer.cert")
    print(text)
    return EXIT_CERTIFICATE


def _cmd_disjoint(args) -> int:
    g = parse_graph(_read_text(args.graph))
    result = find_edge_disjoint_hamilton(g, r_cap=args.r)
    cycle_texts = [serialize_cycle(c) for c in result.cycles]
    residual = serialize_certificate(result.residual_certificate)
    translated = serialize_certificate(result.translated_certificate)
    if args.out:
        for i, text in enumerate(cycle_texts, start=1):
            Path(f"{args.out}.cycle.{i}").write_text(text + "\n")
        Path(f"{args.out}.residual.cert").write_text(residual + "\n")
        Path(f"{args.out}.translated.cert").write_text(translated + "\n")
    else:
        for text in cycle_texts:
            print(text)
            print()
        print(residual)
        print()
        print(translated)
        print()
    print(result.summary(g))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    _write_text(serialize_graph(bcbs_to_bhn(inst)) + "\n", args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    budget = WorkBudget(args.budget) if args.budget is not None else WorkBudget()
    cfg = ExperimentConfig(
        n=args.n,
        p=args.p,
        r=args.r,
        samples=args.samples,
        seed=args.seed,
        oracle_budget=budget,
    )
    report = run_experiment(cfg, jobs=args.jobs)
    _write_text(report.to_csv() + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_graph(_read_text(args.graph))
    answer = _read_text(args.answer)
    first = next((line.strip() for line in answer.splitlines() if line.strip()), "")
    if first.startswith("cycle"):
        cycle = parse_cycle(answer, g)
        if len(cycle) != g.n:
            raise ValueError(
                f"cycle covers {len(cycle)} of {g.n} vertices, not spanning"
            )
        print(f"valid cycle on {len(cycle)} vertices")
        return EXIT_OK
    if first.startswith("alpha-tilde-ge"):
        cert = parse_certificate(answer)
        k = verify_certificate(g, cert)
        print(f"valid certificate: alpha-tilde >= {k}")
        return EXIT_OK
    raise ValueError("answer file is neither a cycle nor a certificate")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ContractViolationError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (HamholesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
