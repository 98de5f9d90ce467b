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
    DEFAULT_BUDGET,
    _alpha_budget,
    alpha_tilde_exact,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from hamholes.oracle import independence_number_exact, vertex_connectivity_exact
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
    """Write text, then a newline, to path, or to stdout if path is None."""
    if path is None:
        print(text)
    else:
        with open(path, "w") as f:
            print(text, file=f)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamholes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="write a graph from a named family")
    p.add_argument("--family", required=True, help="family name or spec string")
    flags = {f: kind for _, params in FAMILIES.values() for f, kind in params.items()}
    for flag, kind in flags.items():
        p.add_argument(f"--{flag}", type=kind)
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    _write_text(serialize_graph(g), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = parse_graph(_read_text(args.graph))
    # Checked before the first line goes out: a bad --budget prints nothing.
    if args.budget is not None and args.budget < 1:
        raise ValueError("budget must be positive")
    print(f"{g.n} {g.m} {min_degree(g)}")
    if args.exact:
        budget = _alpha_budget(g.n, args.budget)
        alpha = independence_number_exact(g, budget)
        alpha_tilde = alpha_tilde_exact(g, budget)
        kappa = vertex_connectivity_exact(g, budget)
        print(f"{alpha} {alpha_tilde} {kappa}")
    return EXIT_OK


def _cmd_hamilton(args) -> int:
    g = parse_graph(_read_text(args.graph))
    result = find_hamilton(g)
    if result.cycle is not None:
        text, default, code = serialize_cycle(result.cycle), "answer.cycle", EXIT_OK
    else:
        text = serialize_certificate(result.certificate)
        default, code = "answer.cert", EXIT_CERTIFICATE
    _write_text(text, args.out or default)
    print(text)
    return code


def _cmd_disjoint(args) -> int:
    g = parse_graph(_read_text(args.graph))
    result = find_edge_disjoint_hamilton(g, r_cap=args.r)
    answers = [
        (f"cycle.{i}", serialize_cycle(c)) for i, c in enumerate(result.cycles, 1)
    ]
    answers += [
        ("residual.cert", serialize_certificate(result.residual_certificate)),
        ("translated.cert", serialize_certificate(result.translated_certificate)),
    ]
    for suffix, text in answers:
        if args.out:
            _write_text(text, f"{args.out}.{suffix}")
        else:
            print(text, end="\n\n")
    print(result.summary(g))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    _write_text(serialize_graph(bcbs_to_bhn(inst)), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        p=args.p,
        r=args.r,
        samples=args.samples,
        seed=args.seed,
        oracle_budget=args.budget,
    )
    report = run_experiment(cfg, jobs=args.jobs)
    _write_text(report.to_csv(), args.out)
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
