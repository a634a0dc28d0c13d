"""The command-line interface, pinned against the shipped golden files.

Every expected-output file under fixtures/golden corresponds to one
invocation here; the exit-code contract (0 ok, 1 findings, 2 usage,
3 failure/no-result, 4 fuel) gets a dedicated test per code.
"""

import io
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

import stratkit
from stratkit.cli import main

#: directory holding the imported stratkit package, so child interpreters
#: run the same code whether it is installed or on PYTHONPATH
SOURCE_ROOT = Path(stratkit.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: golden file -> (exit code, argv with paths relative to fixtures/)
GOLDENS = {
    "run_stop_increment_tree1.out": (
        0,
        ["run", "nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term"],
    ),
    "run_stop_increment_tree2.out": (
        0,
        ["run", "nat_tree.sig", "programs/stop_increment.strat", "terms/tree2.term"],
    ),
    "run_full_bu_fail_tree1.out": (
        3,
        [
            "run",
            "nat_tree.sig",
            "programs/full_bu_fail_increment.strat",
            "terms/tree1.term",
        ],
    ),
    "run_diverge_tree1.out": (
        4,
        ["run", "nat_tree.sig", "programs/diverge.strat", "terms/tree1.term"],
    ),
    "run_full_bu_id_succ_zero.out": (
        0,
        [
            "run",
            "nat_tree.sig",
            "programs/full_bu_id_increment.strat",
            "terms/succ_zero.term",
        ],
    ),
    "run_dominated_tree1.out": (
        0,
        ["run", "nat_tree.sig", "programs/dominated.strat", "terms/tree1.term"],
    ),
    "run_mchoice_tree1.out": (
        0,
        ["run", "nat_tree.sig", "programs/mchoice.strat", "terms/tree1.term"],
    ),
    "query_total_salaries_c0.out": (
        0,
        [
            "query",
            "company.sig",
            "queries/total_salaries.query",
            "terms/c0.term",
            "--monoid",
            "float-sum",
        ],
    ),
    "query_non_managers_c0.out": (
        0,
        [
            "query",
            "company.sig",
            "queries/non_managers.query",
            "terms/c0.term",
            "--monoid",
            "float-sum",
        ],
    ),
    "query_find_employee_empty.out": (
        3,
        [
            "query",
            "company.sig",
            "queries/find_employee.query",
            "terms/empty_company.term",
            "--monoid",
            "float-sum",
        ],
    ),
    "reach_inc_salary_company.out": (
        0,
        [
            "analyze",
            "reach",
            "company.sig",
            "programs/inc_salary.strat",
            "--root",
            "Company",
        ],
    ),
    "reach_stop_increment_booltree.out": (
        1,
        [
            "analyze",
            "reach",
            "nat_tree.sig",
            "programs/stop_increment.strat",
            "--root",
            "BoolTree",
        ],
    ),
    "termination_diverge.out": (
        1,
        ["analyze", "termination", "nat_tree.sig", "programs/diverge.strat"],
    ),
    "fallibility_stop_increment.out": (
        0,
        ["analyze", "fallibility", "nat_tree.sig", "programs/stop_increment.strat"],
    ),
    "fallibility_strict_lint_bait.out": (
        1,
        [
            "analyze",
            "fallibility",
            "nat_tree.sig",
            "programs/lint_bait.strat",
            "--strict",
        ],
    ),
    "lint_bait.out": (
        1,
        ["lint", "nat_tree.sig", "programs/lint_bait.strat"],
    ),
    "laws_seed7_cases50.out": (0, ["laws", "--seed", "7", "--cases", "50"]),
}


def _resolve(fixtures_dir, argv):
    return [
        str(fixtures_dir / a) if ("." in a and "/" in a or a.endswith(".sig")) else a
        for a in argv
    ]


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def call_main(argv):
    """main(argv) in this process; argparse raises SystemExit on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def invoke(fixtures_dir, argv):
    return call_main(_resolve(fixtures_dir, argv))


def _child_env():
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE_ROOT)] + ([inherited] if inherited else [])
    )
    return env


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_golden(fixtures_dir, golden):
    # each invocation gets its own interpreter, as it does from a shell
    code, argv = GOLDENS[golden]
    proc = subprocess.run(
        [sys.executable, "-m", "stratkit", *_resolve(fixtures_dir, argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    expected = (fixtures_dir / "golden" / golden).read_text()
    assert proc.stdout == expected
    assert proc.returncode == code


@pytest.mark.parametrize(
    "golden",
    [
        "run_stop_increment_tree1.out",
        "query_total_salaries_c0.out",
        "fallibility_strict_lint_bait.out",
        "reach_stop_increment_booltree.out",
        "termination_diverge.out",
        "lint_bait.out",
    ],
)
def test_golden_with_the_standard_library_alone(fixtures_dir, tmp_path, golden):
    # a copy of the package, run without `site` and without PYTHONPATH:
    # no site-packages directory is on the path, so a command that
    # imported a third-party module would fail here
    shutil.copytree(SOURCE_ROOT / "stratkit", tmp_path / "stratkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, argv = GOLDENS[golden]
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "stratkit", *_resolve(fixtures_dir, argv)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    expected = (fixtures_dir / "golden" / golden).read_text()
    assert (proc.returncode, proc.stdout) == (code, expected), proc.stderr


# ---------------------------------------------------------------------------
# Exit code 2: usage and load problems


def test_fuel_must_be_positive(fixtures_dir):
    result = invoke(
        fixtures_dir,
        [
            "run",
            "nat_tree.sig",
            "programs/stop_increment.strat",
            "terms/tree1.term",
            "--fuel",
            "0",
        ],
    )
    assert result.exit_code == 2


def test_missing_file_is_a_usage_error(fixtures_dir):
    result = invoke(
        fixtures_dir,
        ["run", "nat_tree.sig", "programs/no_such.strat", "terms/tree1.term"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["analyze", "reach", "nat_tree.sig", "programs/stop_increment.strat"],
        ["laws", "--cases", "0"],
        ["query", "company.sig", "queries/total_salaries.query", "terms/c0.term",
         "--monoid", "mean"],
        # an option's prefix is not the option
        ["run", "nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term",
         "--fu", "5"],
    ],
    ids=["no-command", "no-analysis", "no-root", "no-cases", "unknown-monoid",
         "option-prefix"],
)
def test_usage_errors_print_the_usage_line(fixtures_dir, argv):
    result = invoke(fixtures_dir, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: stratkit")


RUN_ARGV = ["run", "nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term"]
QUERY_ARGV = ["query", "company.sig", "queries/total_salaries.query", "terms/c0.term",
              "--monoid", "float-sum"]


@pytest.mark.parametrize(
    "argv, at",
    [(RUN_ARGV, 1), (RUN_ARGV, 2), (RUN_ARGV, 3), (QUERY_ARGV, 2)],
    ids=["signature", "program", "term", "query"],
)
@pytest.mark.parametrize(
    "problem, message",
    [
        # was a UnicodeDecodeError traceback and exit 1
        ("not UTF-8", "not UTF-8: byte 0xff at offset 0"),
        ("missing", "cannot read: No such file or directory"),
        ("a directory", "cannot read: Is a directory"),
    ],
    ids=["not-utf8", "missing", "directory"],
)
def test_a_file_that_cannot_be_read_is_named(
    fixtures_dir, tmp_path, argv, at, problem, message
):
    argv = _resolve(fixtures_dir, argv)
    path = tmp_path / "input"
    if problem == "not UTF-8":
        path.write_bytes(b"\xff" + Path(argv[at]).read_bytes())
    elif problem == "a directory":
        path.mkdir()
    argv[at] = str(path)
    result = call_main(argv)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{path}: {message}\n"


def _run_on_term_file(fixtures_dir, path):
    return call_main(
        [
            "run",
            str(fixtures_dir / "nat_tree.sig"),
            str(fixtures_dir / "programs" / "stop_increment.strat"),
            str(path),
        ],
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "nat_tree.sig", "programs/stop_increment.strat", "terms/tree1.term"],
        ["laws", "--cases", "5"],
    ],
    ids=["run", "laws"],
)
def test_a_closed_stdout_exits_2_without_a_traceback(fixtures_dir, argv, unbuffered):
    # the reader is gone before the first write, as in `stratkit … | head -c 0`;
    # buffered, the write fails at the flush, unbuffered at the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stratkit", *_resolve(fixtures_dir, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_bad_term_file(fixtures_dir, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(Succ\n")
    result = _run_on_term_file(fixtures_dir, bad)
    assert result.exit_code == 2
    assert result.stderr == f"{bad}:1:1: unclosed '(' for 'Succ'\n"


def test_a_term_file_without_a_term_is_named(fixtures_dir, tmp_path):
    empty = tmp_path / "empty.term"
    empty.write_text("; no term here\n")
    result = _run_on_term_file(fixtures_dir, empty)
    assert result.exit_code == 2
    assert result.stderr == f"{empty}: empty input, expected a term\n"


def test_ill_sorted_term_is_rejected_before_running(fixtures_dir, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(Succ (True))\n")
    result = call_main(
        [
            "run",
            str(fixtures_dir / "nat_tree.sig"),
            str(fixtures_dir / "programs" / "stop_increment.strat"),
            str(bad),
        ],
    )
    assert result.exit_code == 2


def test_nan_literal_in_a_term_file(fixtures_dir, tmp_path):
    bad = tmp_path / "nan.term"
    bad.write_text(
        '(Company (Cons_Department (Department "R":Name (Manager (Employee '
        '"m":Name nan:Salary)) (Nil_Unit)) (Nil_Department)))\n'
    )
    result = call_main(
        [
            "query",
            str(fixtures_dir / "company.sig"),
            str(fixtures_dir / "queries" / "total_salaries.query"),
            str(bad),
            "--monoid",
            "float-sum",
        ],
    )
    assert result.exit_code == 2
    assert "1:76: bad literal payload 'nan': NaN is not equal to itself" in (
        result.stderr
    )


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        (["run"], "bad.strat", "main = 1.5.3\n", "1:8: expected a strategy, found '1.5'"),
        # a digit that int() rejects was a ValueError traceback and exit 1
        (["run"], "bad.strat", "main = ²\n", "1:8: unexpected character '²'"),
        (["lint"], "bad.strat", "\nmain = try(\n", "2:11: expected a strategy, found "
         "end of input"),
        (["query"], "bad.query", "main = constq(²)\n", "1:15: unexpected character '²'"),
    ],
)
def test_program_parse_errors_name_the_file(
    fixtures_dir, tmp_path, command, name, text, message
):
    prog = tmp_path / name
    prog.write_text(text, encoding="utf-8")
    sig, term = ("company.sig", "c0.term") if name.endswith("query") else (
        "nat_tree.sig", "tree1.term")
    argv = [*command, str(fixtures_dir / sig), str(prog)]
    if command != ["lint"]:
        argv.append(str(fixtures_dir / "terms" / term))
    result = call_main(argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{prog}:{message}\n"


def test_signature_parse_errors_name_the_file_then_line_and_column(
    fixtures_dir, tmp_path
):
    bad = tmp_path / "bad.sig"
    bad.write_text("# nats\n  sort Nat Nat\n", encoding="utf-8")
    argv = ["lint", str(bad), str(fixtures_dir / "programs" / "stop_increment.strat")]
    result = call_main(argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{bad}:2:3: bad sort declaration 'sort Nat Nat'\n"


@pytest.mark.parametrize("golden", ["lint_bait.out", "fallibility_strict_lint_bait.out"])
def test_binder_names_do_not_depend_on_earlier_loads(fixtures_dir, golden):
    # one process, two runs: each prints what a fresh process prints
    code, argv = GOLDENS[golden]
    expected = (fixtures_dir / "golden" / golden).read_text()
    for _ in range(2):
        result = invoke(fixtures_dir, argv)
        assert result.stdout == expected
        assert result.exit_code == code


def _cli(argv):
    # a real process: a quadratic layer fails the timeout instead of hanging
    return subprocess.run(
        [sys.executable, "-m", "stratkit", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )


def test_deep_chain_runs_from_the_cli(fixtures_dir, tmp_path):
    depth = 100_000
    term = tmp_path / "deep.term"
    term.write_text("(Succ " * depth + "(Zero)" + ")" * depth + "\n")
    proc = _cli(
        [
            "run",
            str(fixtures_dir / "nat_tree.sig"),
            str(fixtures_dir / "programs" / "full_bu_id_increment.strat"),
            str(term),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("Succ") == 2 * depth + 1


def test_bad_leaf_deep_in_a_chain_names_its_full_path(fixtures_dir, tmp_path):
    depth = 50_000
    term = tmp_path / "deep.term"
    term.write_text("(Succ " * depth + "(Nope)" + ")" * depth + "\n")
    proc = _cli(
        [
            "run",
            str(fixtures_dir / "nat_tree.sig"),
            str(fixtures_dir / "programs" / "full_bu_id_increment.strat"),
            str(term),
        ]
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"at {'/'.join(['0'] * depth)}: unknown constructor 'Nope'\n"


@pytest.mark.parametrize(
    "scheme, qrule, want",
    [
        # every Nat on the chain
        ("full_cl", "one : Nat = n -> 1:Count", 100_001),
        # a miss at every Succ, so the walk reaches the bottom
        ("stop_cl", "one : Nat = (Zero) -> 1:Count", 1),
        ("once_cl", "one : Nat = (Zero) -> 1:Count", 1),
    ],
)
def test_deep_chain_queries_from_the_cli(fixtures_dir, tmp_path, scheme, qrule, want):
    depth = 100_000
    term = tmp_path / "deep.term"
    term.write_text("(Succ " * depth + "(Zero)" + ")" * depth + "\n")
    query = tmp_path / "count.query"
    query.write_text(f"qrule {qrule}\nmain = {scheme}(adhocq(failq, one))\n")
    proc = _cli(
        ["query", str(fixtures_dir / "nat_tree.sig"), str(query), str(term),
         "--monoid", "count"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{want}\n"


@pytest.mark.parametrize(
    "command",
    [["run"], ["lint"], ["analyze", "fallibility"], ["analyze", "termination"]],
)
def test_nesting_beyond_the_recursion_limit_is_a_usage_error(
    fixtures_dir, tmp_path, command
):
    # strategies are walked on an explicit stack; the parser still
    # recurses on nested forms
    prog = tmp_path / "deep.strat"
    prog.write_text("main = " + "all(" * 1000 + "id" + ")" * 1000 + "\n")
    term = tmp_path / "zero.term"
    term.write_text("(Zero)\n")
    argv = [*command, str(fixtures_dir / "nat_tree.sig"), str(prog)]
    proc = _cli(argv + [str(term)] if command == ["run"] else argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "input nested too deeply: it exceeds the Python recursion limit of "
        "1000 frames\n"
    )


LONG_MAIN_STEPS = 10_000


@pytest.mark.parametrize(
    "command, stdout",
    [
        (["run"], "(Succ " * LONG_MAIN_STEPS + "(Zero)" + ")" * LONG_MAIN_STEPS + "\n"),
        (["lint"], "clean\n"),
        (["lint", "--root", "Nat", "--measure", "count:Succ,depth"], "clean\n"),
        (["analyze", "fallibility"], "main: sf=ForallSuccess type=True\n"),
        (["analyze", "fallibility", "--strict"], "main: sf=ForallSuccess type=True\n"),
        (["analyze", "termination"], "main: [Any]\n"),
        (
            ["analyze", "reach", "--root", "Nat"],
            "Bool: {}\nBoolTree: {}\nNat: {increment}\nNatTree: {}\n"
            "[BoolTree]: {}\n[NatTree]: {}\n"
            "note: reachable sets may over-report; cases listed as "
            "unreachable are definitely dead\n",
        ),
    ],
)
def test_a_long_main_runs_and_is_analysed_at_the_default_recursion_limit(
    fixtures_dir, tmp_path, command, stdout
):
    prog = tmp_path / "long.strat"
    prog.write_text(
        "@infallible\nrule increment : Nat = n -> (Succ n)\nmain = "
        + " ; ".join(["try(adhoc(fail, increment))"] * LONG_MAIN_STEPS)
        + "\n"
    )
    term = tmp_path / "zero.term"
    term.write_text("(Zero)\n")
    argv = [*command, str(fixtures_dir / "nat_tree.sig"), str(prog)]
    proc = _cli(argv + [str(term)] if command == ["run"] else argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout


def test_a_long_query_choice_chain_runs_at_the_default_recursion_limit(
    fixtures_dir, tmp_path
):
    # a <+q chain is compiled on an explicit stack and run as one loop
    queryfile = tmp_path / "long.query"
    queryfile.write_text(
        "qrule getsal : Salary = s -> s\nmain = "
        + "failq <+q " * (LONG_MAIN_STEPS - 1)
        + "full_cl(adhocq(constq(unit), getsal))\n"
    )
    proc = _cli(
        ["query", "--monoid", "float-sum", str(fixtures_dir / "company.sig"),
         str(queryfile), str(fixtures_dir / "terms" / "c0.term")]
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "130.0\n", "")


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_nested_innermost_levels_are_analysed_from_the_cli(fixtures_dir, tmp_path, levels):
    # a search over every candidate vector at each rec took about 15 s
    # at 2 levels under this measure, and over 10 minutes at 3
    body = "innermost(adhoc(fail, increment))"
    for _ in range(levels - 1):
        body = f"innermost(try({body}))"
    prog = tmp_path / "ladder.strat"
    prog.write_text(f"@infallible\nrule increment : Nat = n -> (Succ n)\nmain = {body}\n")
    proc = _cli(
        ["analyze", "termination", "--measure", "count:Succ,count:Node,depth",
         str(fixtures_dir / "nat_tree.sig"), str(prog)]
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "main: NOT PROVEN\n", "")


def test_query_monoid_kind_mismatch(fixtures_dir):
    result = invoke(
        fixtures_dir,
        [
            "query",
            "company.sig",
            "queries/total_salaries.query",
            "terms/c0.term",
            "--monoid",
            "int-sum",
        ],
    )
    assert result.exit_code == 2


def test_a_kind_mismatch_names_the_first_constant(fixtures_dir, tmp_path):
    query = tmp_path / "two.query"
    query.write_text("main = bothq(constq(1.5), constq(2.5))\n")
    result = invoke(
        fixtures_dir,
        ["query", "--monoid", "int-sum", "company.sig", str(query), "terms/c0.term"],
    )
    message = "constant 1.5 does not fit monoid 'int-sum'\n"
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", message)


def test_bad_measure_spec(fixtures_dir):
    result = invoke(
        fixtures_dir,
        [
            "analyze",
            "termination",
            "nat_tree.sig",
            "programs/diverge.strat",
            "--measure",
            "size",
        ],
    )
    assert result.exit_code == 2


def test_a_measure_with_depth_twice_is_rejected_by_message(fixtures_dir):
    result = invoke(
        fixtures_dir,
        ["analyze", "termination", "nat_tree.sig", "programs/diverge.strat",
         "--measure", "depth,depth"],
    )
    message = "depth may appear only once, in last position\n"
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", message)


def test_unknown_reach_root(fixtures_dir):
    result = invoke(
        fixtures_dir,
        [
            "analyze",
            "reach",
            "nat_tree.sig",
            "programs/stop_increment.strat",
            "--root",
            "Ghost",
        ],
    )
    assert result.exit_code == 2
    assert "unknown root sort" in result.stderr


@pytest.mark.parametrize(
    "option, message",
    [
        (["--measure", "size"], "unknown measure component 'size'"),
        (["--root", "Ghost"], "unknown root sort 'Ghost'"),
    ],
)
def test_lint_checks_its_options_before_printing_findings(fixtures_dir, option, message):
    result = invoke(fixtures_dir, ["lint", "nat_tree.sig", "programs/lint_bait.strat", *option])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"{message}\n")


@pytest.mark.parametrize("command", [["lint"], ["analyze", "termination"]])
def test_a_measure_counting_an_undeclared_constructor_is_rejected(fixtures_dir, command):
    files = ["nat_tree.sig", "programs/stop_increment.strat"]
    result = invoke(fixtures_dir, [*command, *files, "--measure", "count:Nope,depth"])
    message = "measure 'count:Nope,depth' counts an unknown constructor 'Nope'\n"
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", message)


@pytest.mark.parametrize("command", [["analyze", "reach"], ["lint"]])
@pytest.mark.parametrize("root, code, runs", [("BoolTree", 1, 1), ("Ghost", 2, 0)])
def test_reachability_runs_once_and_not_for_an_unknown_root(
    fixtures_dir, monkeypatch, command, root, code, runs
):
    from stratkit import reachability

    calls = []
    analyse = reachability.reach_analyse

    def counted(*args):
        calls.append(args)
        return analyse(*args)

    monkeypatch.setattr(reachability, "reach_analyse", counted)
    result = invoke(
        fixtures_dir,
        [*command, "nat_tree.sig", "programs/stop_increment.strat", "--root", root],
    )
    assert result.exit_code == code  # a dead case from BoolTree
    assert len(calls) == runs


# ---------------------------------------------------------------------------
# Remaining surfaces


def test_lint_clean_program(fixtures_dir):
    result = invoke(
        fixtures_dir, ["lint", "nat_tree.sig", "programs/stop_increment.strat"]
    )
    assert result.exit_code == 0
    assert result.stdout == "clean\n"


def test_laws_command_reports_every_check():
    result = call_main(["laws", "--cases", "25", "--seed", "7"])
    assert result.exit_code == 0, result.stdout
    lines = result.stdout.splitlines()
    assert len(lines) == 28  # 17 laws + 3 non-laws + 7 properties + soundness
    assert sum(1 for x in lines if x.startswith("LAW ")) == 17
    assert sum(1 for x in lines if x.startswith("NONLAW ")) == 3
    assert sum(1 for x in lines if x.startswith("PROPERTY ")) == 8
    assert all(" FAIL" not in x for x in lines)
    assert all("NO-COUNTEREXAMPLE" not in x for x in lines)


def test_laws_command_exits_1_when_a_check_fails(monkeypatch):
    import stratkit.laws as laws

    # a false law checked as a law, and a true one searched as a non-law
    false_law, true_law = laws.NONLAWS[1], laws.LAWS[0]
    monkeypatch.setattr(laws, "LAWS", (false_law,))
    monkeypatch.setattr(laws, "NONLAWS", (true_law,))
    result = call_main(["laws", "--cases", "25"])
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("LAW choice-commutative FAIL s1=")
    assert lines[1] == "NONLAW seq-unit-left NO-COUNTEREXAMPLE"
    assert all(" PASS" in x for x in lines[2:])


#: claim on dropSucc -> command -> (exit code, stdout) for `main = repeat(dropSucc)`
EFFECT_CLAIMS = {
    # the claim fits the depth measure and proves the recursion
    "less": {"termination": (0, "main: [Leq]\n"), "lint": (0, "clean\n")},
    # a weaker claim that fits is used as it stands, and proves nothing
    "leq": {
        "termination": (1, "main: NOT PROVEN\n"),
        "lint": (1, "main: termination NOT PROVEN under depth\n"),
    },
    # two components against a one-component measure: reported, then ignored
    "less, any": {
        "termination": (
            1,
            "main: [Leq]\n"
            "rule dropSucc: effect claim has 2 components but measure depth has 1\n",
        ),
        "lint": (1, "rule dropSucc: effect claim has 2 components but measure depth has 1\n"),
    },
}


@pytest.mark.parametrize("claim", sorted(EFFECT_CLAIMS))
@pytest.mark.parametrize("command", ["termination", "lint"])
def test_effect_claims_get_a_verdict(fixtures_dir, tmp_path, claim, command):
    prog = tmp_path / "claimed.strat"
    prog.write_text(
        f"@effect({claim})\nrule dropSucc : Nat = (Succ n) -> n\nmain = repeat(dropSucc)\n"
    )
    argv = ["analyze", "termination"] if command == "termination" else ["lint"]
    result = call_main([*argv, str(fixtures_dir / "nat_tree.sig"), str(prog)])
    assert (result.exit_code, result.stdout, result.stderr) == (*EFFECT_CLAIMS[claim][command], "")


def test_termination_command_with_compound_measure(fixtures_dir):
    result = invoke(
        fixtures_dir,
        [
            "analyze",
            "termination",
            "nat_tree.sig",
            "programs/full_bu_fail_increment.strat",
            "--measure",
            "count:Succ,depth",
        ],
    )
    assert result.exit_code == 0
    assert result.stdout == "main: [Any,Any]\n"


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "run" in proc.stdout and "analyze" in proc.stdout


def test_console_script_is_installed():
    # Resolve the declared [project.scripts] entry the way an installer's
    # wrapper does, so the declaration is checked without an install; an
    # installed executable on PATH is exercised as well.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts.get("stratkit") == "stratkit.cli:main"
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'stratkit'\n"
        f"ep = EntryPoint(name='stratkit', value={scripts['stratkit']!r},"
        " group='console_scripts')\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    _assert_help(proc)

    installed = shutil.which("stratkit")
    if installed is not None:
        _assert_help(
            subprocess.run(
                [installed, "--help"], capture_output=True, text=True, timeout=60
            )
        )
