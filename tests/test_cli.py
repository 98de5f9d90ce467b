"""CLI subcommands, file formats, and the exit-code contract."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hamholes
from hamholes.cli import main
from hamholes.graph import (
    FAMILIES,
    SPEC_MAX_DEPTH,
    complete_graph,
    generate,
    parse_graph,
    serialize_graph,
)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# gen / analyze


def test_gen_writes_parseable_graph(workdir, capsys):
    assert run_cli("gen", "--family", "complete", "--n", "5", "--out", "g.txt") == 0
    g = parse_graph((workdir / "g.txt").read_text())
    assert g == complete_graph(5)


def test_gen_spec_string_with_composite(workdir):
    code = run_cli(
        "gen", "--family", "disjoint-union (complete 3) (cycle 4)", "--out", "g.txt"
    )
    assert code == 0
    assert parse_graph((workdir / "g.txt").read_text()).n == 7


def test_gen_to_stdout(capsys):
    assert run_cli("gen", "--family", "cycle", "--n", "4") == 0
    out = capsys.readouterr().out
    assert parse_graph(out).m == 4


def test_gen_missing_parameter_exits_1(capsys):
    assert run_cli("gen", "--family", "complete") == 1
    assert "requires --n" in capsys.readouterr().err
    assert run_cli("gen", "--family", "gnp", "--n", "5", "--p", "0.5") == 1
    assert "seed" in capsys.readouterr().err
    assert run_cli("gen", "--family", "mystery", "--n", "4") == 1
    assert "unknown family" in capsys.readouterr().err


FLAG_VALUES = {"n": "7", "p": "0.5", "a": "2", "b": "3", "k": "4", "l": "1"}
# Written out, not derived from FAMILIES, so a table that lists a family's
# parameters out of spec order fails here.
SPECS = {
    "complete": "complete 7",
    "bipartite": "bipartite 2 3",
    "cycle": "cycle 7",
    "path": "path 7",
    "petersen": "petersen",
    "fan-example": "fan-example 4 1",
    "gnp": "gnp 7 0.5",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_flags_and_spec_string_agree(family, capsys):
    params = FAMILIES[family][1]
    flags = [a for param in params for a in (f"--{param}", FLAG_VALUES[param])]
    assert run_cli("gen", "--family", family, *flags, "--seed", "3") == 0
    by_flags = capsys.readouterr()
    assert by_flags.err == "" and parse_graph(by_flags.out).n > 0
    assert run_cli("gen", "--family", SPECS[family], "--seed", "3") == 0
    assert capsys.readouterr() == by_flags


def test_gen_flags_come_from_the_family_table_in_first_seen_order(capsys):
    with pytest.raises(SystemExit):
        run_cli("gen", "--help")
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"--(\w+)", usage) == [
        "family", "n", "p", "a", "b", "k", "l", "seed", "out"
    ]
    # Each flag is read as its parameter's type, so argparse refuses a bad value.
    assert run_cli("gen", "--family", "complete", "--n", "7.5") == 1
    assert "argument --n: invalid int value: '7.5'" in capsys.readouterr().err
    assert run_cli("gen", "--family", "gnp", "--n", "7", "--p", "x") == 1
    assert "argument --p: invalid float value: 'x'" in capsys.readouterr().err


def test_gen_deeply_nested_spec_is_one_error_line(capsys):
    def nested(depth):
        return "complement-of (" * depth + "complete 3" + ")" * depth

    assert run_cli("gen", "--family", nested(SPEC_MAX_DEPTH)) == 0
    assert capsys.readouterr().out.startswith("3 ")
    for depth in (SPEC_MAX_DEPTH + 1, 1200):
        assert run_cli("gen", "--family", nested(depth)) == 1
        err = capsys.readouterr().err
        assert err == f"error: family spec nests deeper than {SPEC_MAX_DEPTH} levels\n"


def test_analyze_plain_and_exact(workdir, capsys):
    (workdir / "g.txt").write_text(serialize_graph(complete_graph(4)) + "\n")
    assert run_cli("analyze", "g.txt") == 0
    assert capsys.readouterr().out == "4 6 3\n"
    assert run_cli("analyze", "g.txt", "--exact") == 0
    assert capsys.readouterr().out == "4 6 3\n1 1 3\n"


def test_analyze_guard_exits_3_without_budget(workdir, capsys):
    (workdir / "big.txt").write_text(serialize_graph(complete_graph(21)) + "\n")
    assert run_cli("analyze", "big.txt", "--exact") == 3
    assert "instance too large" in capsys.readouterr().err
    assert run_cli("analyze", "big.txt", "--exact", "--budget", "1000000") == 0
    assert capsys.readouterr().out.splitlines()[1] == "1 1 20"


def test_analyze_bad_budget_prints_nothing_to_stdout(workdir, capsys):
    (workdir / "g.txt").write_text(serialize_graph(complete_graph(4)) + "\n")
    for budget in ("0", "-5"):
        assert run_cli("analyze", "g.txt", "--exact", "--budget", budget) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: budget must be positive\n"


def test_analyze_exact_on_a_huge_empty_graph_exits_3(monkeypatch, capsys):
    # Without --budget the alpha-tilde size guard aborts before any search.
    # With one, alpha of 1200 isolated vertices takes 1200 nested
    # include-branches, and then the hole search's budget aborts.  Either
    # way: exit 3 and one error line.
    for budget in ((), ("--budget", "100000000")):
        monkeypatch.setattr("sys.stdin", io.StringIO("1200 0\n"))
        assert run_cli("analyze", "-", "--exact", *budget) == 3
        out, err = capsys.readouterr()
        assert out == "1200 0 0\n"
        assert err.startswith("error: instance too large") and err.count("\n") == 1


def test_analyze_exact_refuses_n200_before_any_search(workdir):
    # The independence search alone would take minutes on this graph; the
    # size guard must refuse right after the n m delta line.
    gen = ("gen", "--family", "gnp", "--n", "200", "--p", "0.03", "--seed", "1")
    assert run_cli(*gen, "--out", "g.txt") == 0
    src = str(Path(hamholes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "hamholes.cli", "analyze", "g.txt", "--exact"],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        3,
        "200 627 1\n",
        "error: instance too large: n = 200 > 20"
        " (pass an explicit budget to override)\n",
    )


def test_analyze_oversized_header_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("100000000 0\n"))
    assert run_cli("analyze", "-") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1: header asks for more than 1000000 vertices\n"


def test_analyze_parse_error_exits_1(workdir, capsys):
    (workdir / "bad.txt").write_text("not a graph\n")
    assert run_cli("analyze", "bad.txt") == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert run_cli("analyze", "no-such-file.txt") == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# hamilton / verify round trips


def test_hamilton_cycle_roundtrip(workdir, capsys):
    run_cli("gen", "--family", "complete", "--n", "6", "--out", "g.txt")
    capsys.readouterr()
    assert run_cli("hamilton", "g.txt") == 0
    printed = capsys.readouterr().out
    assert printed.startswith("cycle 6")
    assert (workdir / "answer.cycle").read_text() == printed
    assert run_cli("verify", "g.txt", "answer.cycle") == 0
    assert "valid cycle" in capsys.readouterr().out


def test_hamilton_certificate_roundtrip(workdir, capsys):
    run_cli("gen", "--family", "bipartite", "--a", "2", "--b", "3", "--out", "g.txt")
    capsys.readouterr()
    assert run_cli("hamilton", "g.txt", "--out", "own.cert") == 2
    printed = capsys.readouterr().out
    assert printed.startswith("alpha-tilde-ge 3")
    assert (workdir / "own.cert").read_text() == printed
    assert run_cli("verify", "g.txt", "own.cert") == 0
    assert "alpha-tilde >= 3" in capsys.readouterr().out


def test_verify_rejects_mismatched_answer(workdir, capsys):
    run_cli("gen", "--family", "cycle", "--n", "6", "--out", "c6.txt")
    run_cli("gen", "--family", "complete", "--n", "6", "--out", "k6.txt")
    run_cli("hamilton", "k6.txt", "--out", "k6.cycle")
    capsys.readouterr()
    assert run_cli("verify", "c6.txt", "k6.cycle") == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_non_spanning_cycle(workdir, capsys):
    (workdir / "g.txt").write_text(serialize_graph(complete_graph(6)) + "\n")
    (workdir / "tri.txt").write_text("cycle 3\n0 1 5\n")
    assert run_cli("verify", "g.txt", "tri.txt") == 1
    assert "not spanning" in capsys.readouterr().err


def test_verify_unrecognised_answer(workdir, capsys):
    (workdir / "g.txt").write_text(serialize_graph(complete_graph(3)) + "\n")
    (workdir / "junk.txt").write_text("gibberish\n")
    assert run_cli("verify", "g.txt", "junk.txt") == 1
    assert "neither" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# disjoint


def test_disjoint_stdout_bundle(workdir, capsys):
    run_cli("gen", "--family", "complete", "--n", "5", "--out", "k5.txt")
    capsys.readouterr()
    assert run_cli("disjoint", "k5.txt") == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert sum(b.startswith("cycle 5") for b in blocks) == 2
    assert sum(b.lstrip().startswith("alpha-tilde-ge") for b in blocks) == 2
    assert out.rstrip().endswith("r=2 delta=4 m=1")


def test_disjoint_out_prefix_files(workdir, capsys):
    run_cli("gen", "--family", "complete", "--n", "5", "--out", "k5.txt")
    capsys.readouterr()
    assert run_cli("disjoint", "k5.txt", "--out", "k5") == 0
    assert capsys.readouterr().out.strip() == "r=2 delta=4 m=1"
    for name in ("k5.cycle.1", "k5.cycle.2", "k5.residual.cert", "k5.translated.cert"):
        assert (workdir / name).exists()
    assert run_cli("verify", "k5.txt", "k5.cycle.2") == 0
    assert run_cli("verify", "k5.txt", "k5.translated.cert") == 0


@pytest.mark.parametrize("spec", ["complete 7", "gnp 40 0.5"])
def test_disjoint_stdout_is_the_out_files_in_order(workdir, capsys, spec):
    (workdir / "g.txt").write_text(serialize_graph(generate(spec, seed=1)) + "\n")
    assert run_cli("disjoint", "g.txt") == 0
    stdout = capsys.readouterr().out
    assert run_cli("disjoint", "g.txt", "--out", "p") == 0
    summary = capsys.readouterr().out
    r = len(list(workdir.glob("p.cycle.*")))
    assert r >= 1 and summary.startswith(f"r={r} ")
    suffixes = [f"cycle.{i}" for i in range(1, r + 1)]
    suffixes += ["residual.cert", "translated.cert"]
    files = [(workdir / f"p.{suffix}").read_text() for suffix in suffixes]
    assert stdout == "".join(text + "\n" for text in files) + summary


def test_disjoint_r_cap(workdir, capsys):
    run_cli("gen", "--family", "complete", "--n", "9", "--out", "k9.txt")
    capsys.readouterr()
    assert run_cli("disjoint", "k9.txt", "--r", "1") == 0
    out = capsys.readouterr().out
    assert out.count("cycle 9") == 1
    assert out.rstrip().endswith("r=1 delta=8 m=1")


# ---------------------------------------------------------------------------
# reduce / experiment


def test_reduce_roundtrip(workdir, capsys):
    (workdir / "inst.txt").write_text("2 2 2\n0 2\n0 3\n1 2\n1 3\n")
    assert run_cli("reduce", "inst.txt", "--out", "img.txt") == 0
    img = parse_graph((workdir / "img.txt").read_text())
    assert img.n == 9
    assert run_cli("reduce", "inst.txt") == 0
    assert parse_graph(capsys.readouterr().out) == img


def test_reduce_bad_instance_exits_1(workdir, capsys):
    (workdir / "inst.txt").write_text("2 3 1\n")
    assert run_cli("reduce", "inst.txt") == 1


def test_reduce_oversized_image_exits_1(monkeypatch, capsys):
    # The header is inside the vertex limit; the image is not inside the
    # edge limit.
    monkeypatch.setattr("sys.stdin", io.StringIO("500000 500000 1\n"))
    assert run_cli("reduce", "-") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: reduction image would have 500001500001 edges, more than 5000000\n"
    )


def test_experiment_csv_deterministic(workdir, capsys):
    args = ("experiment", "--n", "8", "--p", "0.5", "--samples", "5", "--seed", "3")
    assert run_cli(*args, "--out", "a.csv") == 0
    assert run_cli(*args, "--jobs", "2", "--out", "b.csv") == 0
    a = (workdir / "a.csv").read_text()
    assert a == (workdir / "b.csv").read_text()
    assert a.startswith("sample,delta,")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == a


def test_experiment_bad_budget_writes_nothing(workdir, capsys):
    for budget in ("0", "-5"):
        for out in ((), ("--out", "e.csv")):
            args = ("experiment", "--n", "8", "--p", "0.5", "--budget", budget)
            assert run_cli(*args, *out) == 1
            assert capsys.readouterr() == ("", "error: budget must be positive\n")
            assert not (workdir / "e.csv").exists()


def test_experiment_rejects_bad_params(capsys):
    assert run_cli("experiment", "--n", "2", "--p", "0.5") == 1
    assert run_cli("experiment", "--n", "8", "--p", "1.5") == 1


# ---------------------------------------------------------------------------
# usage plumbing


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli("frobnicate") == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert run_cli("gen") == 1
    assert run_cli("experiment", "--n", "8") == 1


def test_internal_error_exits_4(workdir, capsys, monkeypatch):
    from hamholes.errors import ContractViolationError

    def broken(g):
        raise ContractViolationError("no edge attaches the cycle to the rest")

    monkeypatch.setattr("hamholes.cli.find_hamilton", broken)
    (workdir / "g.txt").write_text(serialize_graph(complete_graph(4)) + "\n")
    assert run_cli("hamilton", "g.txt") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: no edge attaches the cycle to the rest\n"


@pytest.mark.parametrize(
    "command, spec, what",
    [
        ("hamilton", "bipartite 2 3", "extracted"),
        ("hamilton", "disjoint-union (complete 3) (complete 3)", "component"),
        ("disjoint", "complete 7", "translated"),
    ],
)
def test_a_failed_self_check_exits_4(
    workdir, capsys, fail_checks_on, command, spec, what
):
    g = generate(spec)
    fail_checks_on(g)
    (workdir / "g.txt").write_text(serialize_graph(g) + "\n")
    assert run_cli(command, "g.txt") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: internal: {what} certificate invalid: pair 1: forced failure\n"
    )


def test_stdin_dash(workdir, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(serialize_graph(complete_graph(4)) + "\n")
    )
    assert run_cli("analyze", "-") == 0
    assert capsys.readouterr().out == "4 6 3\n"


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "hamholes.cli", "gen", "--family", "petersen"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert parse_graph(out.stdout).n == 10


# What no `hamholes` process may import just by starting: only
# `experiment --jobs J` with J > 1 needs the process pool, and the records
# build no code, so nothing needs dataclasses or the introspection it loads.
STARTUP_EXCLUDED = ("concurrent.futures", "dataclasses", "inspect")


def test_cli_import_leaves_startup_excluded_modules_out():
    # Every command runs as a fresh process and would pay for the imports.
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, hamholes.cli\n"
            f"print([m for m in {STARTUP_EXCLUDED!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _readme_examples():
    """README's Examples block as [command, stated exit code, stated last
    line]; a code is stated by ``# exit N`` on the command's own line (a
    comment line may not state one), a last line by a ``# ... last line: X``
    comment right after the command."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("### Examples", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if command:
            code = re.match(r"exit (\d+)", comment)
            examples.append([command, int(code.group(1)) if code else 0, None])
            continue
        assert "exit " not in comment, line
        if last := re.match(r"\.\.\. last line: (.*)", comment):
            examples[-1][2] = last.group(1)
    return examples


def test_readme_examples_run_as_documented(tmp_path):
    shim = tmp_path / "bin" / "hamholes"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m hamholes.cli "$@"\n')
    shim.chmod(0o755)
    src = str(Path(hamholes.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    examples = _readme_examples()
    assert len(examples) == 7
    assert sum(last is not None for *_, last in examples) == 1
    for command, code, last_line in examples:
        out = subprocess.run(
            command, shell=True, cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert out.returncode == code, (command, out.stderr)
        if last_line is not None:
            assert out.stdout.splitlines()[-1] == last_line, command
