"""Tests of the benchmark itself: every workload passes its checks at a
small size, and every check rejects a corrupted output.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from meter import Meter, growth  # noqa: E402

from stratkit.files import parse_term  # noqa: E402
from stratkit.interp import Failure, FuelExhausted, Success  # noqa: E402
from stratkit.laws import (  # noqa: E402
    GenConfig,
    builtin_rules,
    builtin_signature,
    check_laws,
    check_scheme_properties,
    check_soundness,
    find_nonlaw_counterexamples,
)
from stratkit.terms import Lit, Node  # noqa: E402


@pytest.fixture
def meter():
    m = Meter()
    yield m
    m.close()


@pytest.mark.parametrize("workload", ["rewrite", "query", "check"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_passes_its_checks_at_small_size(workload, trace, tmp_path, meter):
    m = gen.generate(workload, 7, str(tmp_path), scale=0.25)
    tr = worker.TracedCalls(meter, trace)
    wl = worker.WORKLOADS[workload](str(tmp_path), m, tr)
    passes, op_layers, totals, once, attempted, failed, errors = worker.run_passes(wl, meter, tr, 0, 1)
    assert failed == 0, errors
    once_ops = len(list(getattr(wl, "once_ops", tuple)()))
    assert attempted == len(list(wl.ops())) + once_ops and len(passes) == 1
    e2e = wl.end_to_end(passes[0])
    assert e2e["wall_s"] > 0 and all(v > 0 for v in e2e.values())
    if trace:
        layers = worker.layer_metrics(wl, totals, op_layers, once, tr, meter)
        assert set(layers) | set(run.WORKLOAD_LAYERS) | set(run.PROBE_LAYERS) | {
            "cli.overhead_s", "host.ref_s"} >= set(run.PER_LAYER)
        called = {"rewrite": "interp.run.s", "query": "queries.run_query.list.s",
                  "check": "termination.s"}[workload]
        assert layers[called] > 0


def test_seed_fixes_the_inputs(tmp_path):
    a = gen.generate("query", 3, str(tmp_path / "a"))
    b = gen.generate("query", 3, str(tmp_path / "b"))
    c = gen.generate("query", 4, str(tmp_path / "c"))
    assert a["terms"] == b["terms"] and a["terms"] != c["terms"]


# ---------------------------------------------------------------------------
# Oracles against hand-computed values


def test_query_oracle_on_the_paper_company():
    emp = lambda n, s: gen.C("Employee", gen.L(n, "Name"), gen.L(s, "Salary"))  # noqa: E731
    units = gen.cons_list("Unit", [gen.C("EmployeeUnit", emp("a", 10.0)),
                                   gen.C("EmployeeUnit", emp("b", 20.0))])
    dept = gen.C("Department", gen.L("R", "Name"), gen.C("Manager", emp("m", 100.0)), units)
    c0 = gen.C("Company", gen.cons_list("Department", [dept]))
    assert gen.query_line("salary", "full_cl", "float-sum", c0) == "130.0"
    assert gen.query_line("nonmgr", "stop_cl", "float-sum", c0) == "30.0"
    assert gen.query_line("salary", "once_cl", "list", c0) == "[100.0:Salary]"
    assert gen.query_line("headcount", "full_cl", "count", c0) == "3"
    assert gen.query_line("salary", "full_cl", "max", c0) == "100.0"
    empty = gen.C("Company", gen.cons_list("Department", []))
    assert gen.query_line("salary", "once_cl", "max", empty) == "NO-RESULT"
    assert gen.query_line("salary", "full_cl", "max", empty) == "none"


def test_rewrite_oracle_and_growth_slope():
    t = gen.C("Node", gen.nat(2), gen.cons_list("NatTree", []))
    assert gen.sexpr(gen.map_nats(t, lambda n: 2 * n + 1)) == \
        "(Node (Succ (Succ (Succ (Succ (Succ (Zero)))))) (Nil_NatTree))"
    assert growth([1, 2, 4], [3.0, 12.0, 48.0]) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Every check rejects one corrupted output


def test_rewrite_check_rejects_wrong_term():
    text = "(Node (Succ (Zero)) (Nil_NatTree))"
    good = Success(parse_term(text))
    worker.check_rewrite(text, good, text)
    with pytest.raises(worker.CheckFailed):
        worker.check_rewrite(text, good, text.replace("(Succ (Zero))", "(Zero)"))
    with pytest.raises(worker.CheckFailed):
        worker.check_rewrite(text, Success(parse_term("(Node (Zero) (Nil_NatTree))")), text)
    with pytest.raises(worker.CheckFailed):
        worker.check_rewrite(text, Failure(), None)


def test_zeroed_check_rejects_a_kept_salary():
    def emp(s):
        return Node("Employee", (Lit("e", "Name"), Lit(s, "Salary")))

    worker.check_zeroed(Node("Manager", (emp(0.0),)), 1)
    with pytest.raises(worker.CheckFailed):
        worker.check_zeroed(Node("Manager", (emp(5.0),)), 1)
    with pytest.raises(worker.CheckFailed):
        worker.check_zeroed(Node("Manager", (emp(0.0),)), 2)


def test_query_check_rejects_wrong_element_and_value():
    worker.check_query("[1.0:Salary, 2.0:Salary]", "[1.0:Salary, 2.0:Salary]")
    for bad in ("[2.0:Salary, 1.0:Salary]", "[1.0:Salary]", "3.0"):
        with pytest.raises(worker.CheckFailed):
            worker.check_query("[1.0:Salary, 2.0:Salary]", bad)
    with pytest.raises(worker.CheckFailed):
        worker.check_query("130.0", "131.0")


def test_verdict_check_rejects_each_broken_property():
    v = {"terminates": True, "infallible": True, "dead": {"Nat": ["atEven"]}}
    ok = Success(Node("Zero"))
    worker.check_verdicts(v, [("Nat", ok, {"increment"})])
    for outcome, fired in ((FuelExhausted(10), set()), (Failure(), set()), (ok, {"atEven"})):
        with pytest.raises(worker.CheckFailed):
            worker.check_verdicts(v, [("Nat", outcome, fired)])


def test_divergent_check_rejects_other_outcomes():
    worker.check_divergent(FuelExhausted(1000), 1000)
    for bad in (FuelExhausted(999), Failure(), Success(Node("Zero"))):
        with pytest.raises(worker.CheckFailed):
            worker.check_divergent(bad, 1000)


def test_table_check_rejects_a_changed_cell(meter):
    wl = worker.Check.__new__(worker.Check)
    wl.tr = worker.TracedCalls(meter, False)
    cells = wl.tables()
    worker.check_tables(cells)
    cells["C05", "full_bu", 2] = (worker.LEQ,)
    with pytest.raises(worker.CheckFailed):
        worker.check_tables(cells)


def test_law_suite_check_rejects_a_failed_law():
    sig, rules, cfg = builtin_signature(), builtin_rules(), GenConfig(cases=5)
    r = {"laws": check_laws(sig, rules, cfg),
         "props": check_scheme_properties(sig, rules, cfg),
         "soundness": check_soundness(sig, rules, cfg, runs=50)}
    worker.check_law_suite(r, 5)
    r["laws"][0].passed = False
    with pytest.raises(worker.CheckFailed):
        worker.check_law_suite(r, 5)
    nonlaws = find_nonlaw_counterexamples(sig, rules)
    worker.check_nonlaws(nonlaws)
    nonlaws[1].counterexample = None
    with pytest.raises(worker.CheckFailed):
        worker.check_nonlaws(nonlaws)


@pytest.mark.parametrize("workload", ["rewrite", "query", "check"])
def test_cli_prints_what_the_generator_expects(workload, tmp_path):
    m = gen.generate(workload, 7, str(tmp_path), scale=0.25)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "stratkit", *m["cli"]["args"]], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert run.cli_ok(m["cli"], proc.returncode, proc.stdout), (proc.returncode, proc.stdout)


def test_cli_check_rejects_wrong_output(tmp_path):
    cli = {"expected": "130.0\n", "exit": 0}
    assert run.cli_ok(cli, 0, "130.0\n")
    assert not run.cli_ok(cli, 0, "131.0\n")
    assert not run.cli_ok(cli, 3, "130.0\n")
    lint = gen.generate("check", 1, str(tmp_path), scale=0.25)["cli"]
    finding = "main: termination NOT PROVEN under depth\n"
    assert run.cli_ok(lint, 1, finding)
    for code, out in ((0, "clean\n"), (1, "clean\n"), (0, finding), (1, finding + finding)):
        assert not run.cli_ok(lint, code, out)


# ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "rewrite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_documented_keys(trace):
    """One short end-to-end run of the cheapest workload."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "query",
                           "--seed", "2", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == (run.PER_LAYER if trace else run.END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
