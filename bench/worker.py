"""The measured process: whole passes over one workload's operations.

Usage: python3 bench/worker.py DIR --seconds S --trace 0|1

DIR holds the files and manifest.json that gen.generate wrote. The
worker imports stratkit, loads the workload's programs, then runs whole
passes until S seconds have gone by (at least MIN_PASSES), checking
every operation's output. It prints one JSON object: attempted and
failed operations, per-pass figures in reference seconds (see
meter.py) and, with --trace 1, per-layer self times from spans around
each call into stratkit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from meter import REF_NOMINAL_S, Meter, Timed, Tracer, growth, median

from stratkit.dsl import load_program, load_query_program
from stratkit.fallibility import Sf, scan_dead_choices, sf_analyse, sf_type_of
from stratkit.files import load_term, parse_term, term_to_sexpr
from stratkit.interp import CompiledStrategy, Failure, FuelExhausted, Success
from stratkit.laws import (
    LAWS,
    NONLAWS,
    GenConfig,
    builtin_rules,
    builtin_signature,
    check_laws,
    check_scheme_properties,
    check_soundness,
    find_nonlaw_counterexamples,
)
from stratkit.queries import NO_RESULT, check_query_kinds, get_monoid, run_query
from stratkit.reachability import dead_case_report, reach_analyse
from stratkit.strategies import (
    Adhoc,
    FAIL,
    Var,
    full_bu,
    full_td,
    innermost,
    once_bu,
    repeat,
    stop_td,
    try_,
)
from stratkit.termination import (
    ANY,
    DEPTH_MEASURE,
    LEQ,
    LESS,
    parse_measure,
    term_type_of,
    verify_annotations,
)
from stratkit.terms import Lit, Node, validate_term

MIN_PASSES = 3
LAW_SEED = 2026
# Fuel for the run-time checks of the generated corpus. Proven-
# terminating programs need far less on the small check terms. Others
# get a small budget: the parity guards walk the whole number at every
# step, so a run whose numbers keep growing costs time quadratic in fuel.
PROVEN_FUEL = 50_000
UNPROVEN_FUEL = 1_000


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def gc_collections():
    return sum(s["collections"] for s in gc.get_stats())


def node_from_json(j):
    if j[0] == "L":
        return Lit(j[1], j[2])
    return Node(j[1], tuple(node_from_json(c) for c in j[2]))


# ---------------------------------------------------------------------------
# Output checks. Each raises CheckFailed on a wrong output.


def check_rewrite(expected, out, text):
    expect(isinstance(out, Success), f"outcome {out!r} is not a success")
    expect(text == expected, "printed term differs from the generator's")
    expect(parse_term(text) == out.term, "printed term does not read back as the result")


def check_zeroed(term, salaries):
    """A walk of its own over the result: every Salary literal is 0.0."""
    seen = 0
    stack = [term]
    while stack:
        x = stack.pop()
        if isinstance(x, Lit):
            if x.sort == "Salary":
                expect(type(x.value) is float and x.value == 0.0, f"salary {x.value!r} not zeroed")
                seen += 1
        else:
            stack.extend(x.children)
    expect(seen == salaries, f"{seen} salaries in the result, {salaries} in the input")


def check_query(expected, text):
    """Lists element by element in preorder, then the whole line."""
    if expected.startswith("["):
        want = expected[1:-1].split(", ") if expected != "[]" else []
        expect(text.startswith("[") and text.endswith("]"), f"{text[:40]!r} is not a list")
        got = text[1:-1].split(", ") if text != "[]" else []
        expect(len(got) == len(want), f"{len(got)} list elements, expected {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            expect(g == w, f"list element {i} is {g}, expected {w}")
    expect(text == expected, f"query printed {text[:40]!r}, expected {expected[:40]!r}")


def check_verdicts(v, outcomes):
    """Run-time behaviour against one program's static verdicts.
    outcomes: (root sort, outcome, names of the rules that fired)."""
    for root, out, fired in outcomes:
        if v["terminates"]:
            expect(not isinstance(out, FuelExhausted),
                   f"proven-terminating program ran out of fuel from {root}")
        if v["infallible"]:
            expect(not isinstance(out, Failure), f"type=True program failed from {root}")
        dead = fired & set(v["dead"][root])
        expect(not dead, f"cases listed dead from {root} fired: {sorted(dead)}")


def check_divergent(out, fuel):
    expect(type(out) is FuelExhausted and out.steps == fuel, f"divergent run gave {out!r}")


# The paper's termination tables: scheme applied to a variable whose
# effect is Any, Leq or Less under the depth measure (C05), and Less,Any
# under count:Succ,depth (C06). None is NOT PROVEN.
TABLE_C05 = {
    "full_bu": ((ANY,), (LEQ,), (LESS,)),
    "full_td": (None, (LEQ,), (LEQ,)),
    "stop_td": ((ANY,), (LEQ,), (LEQ,)),
    "once_bu": ((ANY,), (LEQ,), (LEQ,)),
    "repeat": (None, None, (LEQ,)),
    "innermost": (None, None, None),
}
TABLE_C06 = {
    "full_td": (LESS, ANY),
    "once_bu": (LESS, ANY),
    "repeat": (LEQ, ANY),
    "innermost": (LEQ, ANY),
}
SCHEME_BUILDERS = {
    "full_bu": full_bu, "full_td": full_td, "stop_td": stop_td,
    "once_bu": once_bu, "repeat": repeat, "innermost": innermost,
}


def check_tables(cells):
    for name, row in TABLE_C05.items():
        for col, want in enumerate(row):
            expect(cells["C05", name, col] == want, f"C05 {name} column {col}")
    for name, want in TABLE_C06.items():
        expect(cells["C06", name] == want, f"C06 {name}")


def check_law_suite(r, cases):
    expect(len(r["laws"]) == len(LAWS), "law count")
    for x in r["laws"]:
        expect(x.passed and x.cases == cases, x.line())
    expect(len(r["props"]) == 7, "scheme property count")
    for x in r["props"]:
        expect(x.passed and x.cases == cases, x.line())
    s = r["soundness"]
    expect(s.failures == 0 and s.runs == 10 * cases, s.line())


def check_nonlaws(results):
    expect(len(results) == len(NONLAWS), "non-law count")
    for x in results:
        expect(x.counterexample is not None, x.line())


def cli_text(result):
    """A query result as `stratkit query` prints it."""
    if result is NO_RESULT:
        return "NO-RESULT"
    if isinstance(result, list):
        return "[" + ", ".join(term_to_sexpr(x) for x in result) + "]"
    if result is None:
        return "none"
    return str(result)


# ---------------------------------------------------------------------------
# Workloads. ops() yields (groups, key, fn, check): fn runs timed and its
# time is charged to each group; check runs untimed on fn's result.
# layer_work() gives the nodes (or steps) each layer handles in one pass.


class Rewrite:
    def __init__(self, d, m, tr):
        self.d, self.m, self.tr = d, m, tr
        self.progs = {p: load_program(os.path.join(d, s), os.path.join(d, p)) for s, p in m["programs"]}

    def pipeline(self, prog, path):
        tr = self.tr
        t = tr.call("files.parse_term", load_term, path)
        tr.call("terms.validate_term", validate_term, prog.signature, t)
        cs = tr.call("interp.compile", CompiledStrategy, prog.main, prog.signature)
        out = tr.run(cs, t)
        text = tr.call("files.term_to_sexpr", term_to_sexpr, out.term) if isinstance(out, Success) else None
        return out, text

    def ops(self):
        for i, op in enumerate(self.m["ops"]):
            prog = self.progs[op["program"]]
            path = os.path.join(self.d, op["term"])

            def check(res, op=op):
                check_rewrite(op["expected"], *res)
                if "salaries" in op:
                    check_zeroed(res[0].term, op["salaries"])

            yield ("all", op["group"]), i, (lambda p=prog, f=path: self.pipeline(p, f)), check

    def cli_op(self):
        """In-process equivalent of the timed `stratkit run`."""
        op = self.m["ops"][self.m["cli"]["op"]]

        def run():
            prog = load_program(os.path.join(self.d, op["sig"]), os.path.join(self.d, op["program"]))
            return self.pipeline(prog, os.path.join(self.d, op["term"]))[1]

        return run

    def end_to_end(self, p):
        front = sum(o["nodes"] for o in self.m["ops"] if o["group"] == "front")
        return {"wall_s": p["all"], "deep_s": p["deep"], "nodes_per_s": front / p["front"]}

    def layer_work(self):
        inp = sum(o["nodes"] for o in self.m["ops"])
        return {"files.parse_term": inp, "terms.validate_term": inp, "interp.run": inp,
                "files.term_to_sexpr": sum(o["out_nodes"] for o in self.m["ops"])}

    def growth_sets(self):
        deep = [(i, o["nodes"]) for i, o in enumerate(self.m["ops"]) if o["group"] == "deep"]
        return {layer: deep for layer in ("files.parse_term", "terms.validate_term", "interp.run")}


class Query:
    def __init__(self, d, m, tr):
        self.d, self.m, self.tr = d, m, tr
        self.progs = {q: load_query_program(os.path.join(d, s), os.path.join(d, q)) for s, q in m["programs"]}
        self.sig = next(iter(self.progs.values())).signature
        self.current = None

    def load(self, path):
        t = self.tr.call("files.parse_term", load_term, path)
        self.tr.call("terms.validate_term", validate_term, self.sig, t)
        self.current = t

    def query(self, q):
        tr = self.tr
        qp = self.progs[q["query"]]
        monoid = get_monoid(q["monoid"])
        tr.call("queries.check_query_kinds", check_query_kinds, qp.main, monoid)
        name = "queries.run_query.list" if q["monoid"] == "list" else "queries.run_query"
        result = tr.call(name, run_query, qp.signature, qp.main, self.current, monoid)
        if isinstance(result, list):
            return tr.call("files.term_to_sexpr", cli_text, result)
        return cli_text(result)

    def ops(self):
        for k, term in enumerate(self.m["terms"]):
            path = os.path.join(self.d, term["term"])
            yield ("all",), ("load", k), (lambda f=path: self.load(f)), (lambda _: None)
            for q, expected in zip(self.m["queries"], term["expected"]):
                yield (("all", "query"), (q["monoid"], k), (lambda q=q: self.query(q)),
                       (lambda text, e=expected: check_query(e, text)))

    def cli_op(self):
        """In-process equivalent of the timed `stratkit query`."""
        c = self.m["cli"]
        q = self.m["queries"][c["query"]]

        def run():
            qp = load_query_program(os.path.join(self.d, "company.sig"), os.path.join(self.d, q["query"]))
            t = load_term(os.path.join(self.d, self.m["terms"][c["term"]]["term"]))
            validate_term(qp.signature, t)
            monoid = get_monoid(q["monoid"])
            check_query_kinds(qp.main, monoid)
            return cli_text(run_query(qp.signature, qp.main, t, monoid))

        return run

    def end_to_end(self, p):
        work = sum(t["nodes"] for t in self.m["terms"]) * len(self.m["queries"])
        return {"wall_s": p["all"], "nodes_per_s": work / p["query"]}

    def layer_work(self):
        nodes = sum(t["nodes"] for t in self.m["terms"])
        return {"files.parse_term": nodes, "terms.validate_term": nodes,
                "queries.run_query": nodes * len(self.m["queries"]),
                "files.term_to_sexpr": sum(t["list_elements"] for t in self.m["terms"])}

    def growth_sets(self):
        loads = [(("load", k), t["nodes"]) for k, t in enumerate(self.m["terms"])]
        lists = [(("list", k), t["nodes"]) for k, t in enumerate(self.m["terms"])]
        return {"files.parse_term": loads, "terms.validate_term": loads,
                "queries.run_query.list": lists}


class Check:
    def __init__(self, d, m, tr):
        self.d, self.m, self.tr = d, m, tr
        self.sig_path = os.path.join(d, "nat.sig")
        self.check_terms = [(c["root"], node_from_json(c["term"])) for c in m["check_terms"]]
        self.roots = sorted({r for r, _ in self.check_terms})
        self.divergent = [(load_program(self.sig_path, os.path.join(d, x["program"])),
                           node_from_json(x["term"])) for x in m["divergent"]]
        self.cases = m["law_cases"]
        self.verdicts = {}
        self.law_results = {}

    def lint(self, entry):
        """What `stratkit lint --root NatTree --measure M` computes."""
        tr = self.tr
        prog = tr.call("dsl.parse_program", load_program, self.sig_path, os.path.join(self.d, entry["program"]))
        m = parse_measure(entry["measure"])
        items = [(d.body, d.params) for d in prog.defs.values()] + [(prog.main, ())]
        unknown = ((ANY,) * len(m), False)
        for body, params in items:
            tr.call("fallibility", scan_dead_choices, body, dict.fromkeys(params, False))
        tr.call("reachability", dead_case_report, prog.signature, prog.main, "NatTree")
        for body, params in items:
            tr.call("termination", term_type_of, body, m, dict.fromkeys(params, unknown))
        tr.call("termination", verify_annotations, prog.rules.values(), m)
        return prog

    def cli_op(self):
        """In-process equivalent of the timed `stratkit lint`."""
        return lambda: self.lint(self.m["cli"]["lint"])

    def analyse(self, entry):
        """What `stratkit lint --root NatTree`, `analyze fallibility
        --strict`, `analyze reach` (for each root sort of the check
        terms) and `analyze termination` compute for one program."""
        tr = self.tr
        prog = self.lint(entry)
        sig = prog.signature
        m = parse_measure(entry["measure"])
        items = [(d.body, d.params) for d in prog.defs.values()] + [(prog.main, ())]
        unknown = ((ANY,) * len(m), False)
        # analyze fallibility --strict
        for body, params in items:
            tr.call("fallibility", sf_analyse, body, dict.fromkeys(params, Sf.ANY))
            main_type = tr.call("fallibility", sf_type_of, body, dict.fromkeys(params, False), strict=True)
            tr.call("fallibility", scan_dead_choices, body, dict.fromkeys(params, False))
        # analyze reach
        tr.call("reachability", reach_analyse, sig, prog.main)
        dead = {root: [case for case, _ in tr.call("reachability", dead_case_report, sig, prog.main, root)]
                for root in self.roots}
        # analyze termination
        for body, params in items:
            vec = tr.call("termination", term_type_of, body, m, dict.fromkeys(params, unknown))
        tr.call("termination", verify_annotations, prog.rules.values(), m)
        self.verdicts[entry["program"]] = {
            "terminates": vec is not None, "infallible": main_type is True, "dead": dead, "prog": prog,
        }

    def verify(self, entry):
        v = self.verdicts[entry["program"]]
        prog = v["prog"]
        fuel = PROVEN_FUEL if v["terminates"] else UNPROVEN_FUEL
        cs = self.tr.call("interp.compile", CompiledStrategy, prog.main, prog.signature)
        outcomes = []
        for root, t in self.check_terms:
            fired = set()
            outcomes.append((root, self.tr.run(cs, t, fuel, fired), fired))
        return outcomes

    def tables(self):
        cells = {}
        for name, row in TABLE_C05.items():
            s = SCHEME_BUILDERS[name](Var("s"))
            for col, arg in enumerate((ANY, LEQ, LESS)):
                cells["C05", name, col] = self.tr.call(
                    "termination", term_type_of, s, DEPTH_MEASURE, {"s": ((arg,), False)})
        m = parse_measure("count:Succ,depth")
        for name in TABLE_C06:
            cells["C06", name] = self.tr.call(
                "termination", term_type_of, SCHEME_BUILDERS[name](Var("s")), m, {"s": ((LESS, ANY), False)})
        return cells

    def diverge(self, prog, t):
        cs = self.tr.call("interp.compile", CompiledStrategy, prog.main, prog.signature)
        return self.tr.run(cs, t, self.m["divergent_fuel"], span="interp.run.divergent")

    def law_suite(self):
        tr = self.tr
        sig, rules = builtin_signature(), builtin_rules()
        cfg = GenConfig(seed=LAW_SEED, cases=self.cases)
        r = {
            "laws": tr.call("laws.check_laws", check_laws, sig, rules, cfg),
            "props": tr.call("laws.check_scheme_properties", check_scheme_properties, sig, rules, cfg),
            "soundness": tr.call("laws.check_soundness", check_soundness, sig, rules, cfg,
                                 runs=10 * self.cases),
        }
        self.law_results = r
        return r

    def nonlaws(self):
        sig, rules = builtin_signature(), builtin_rules()
        return self.tr.call("laws.find_nonlaw_counterexamples", find_nonlaw_counterexamples,
                            sig, rules, fuel=GenConfig().fuel)

    def law_cases(self):
        r = self.law_results
        return sum(x.cases for x in r["laws"]) + sum(x.cases for x in r["props"]) + r["soundness"].runs

    def once_ops(self):
        # The non-law search is checked once per run, outside the passes:
        # about 75% of its time is gc over the 1.7M candidate tuples it
        # builds, which varied 15-25% between runs where the rest of the
        # pass varied 3%, so in the passes it would hide every other
        # change to this workload.
        yield (), "nonlaws", self.nonlaws, check_nonlaws

    def ops(self):
        for entry in self.m["corpus"]:
            yield ("all", "lint"), entry["program"], (lambda e=entry: self.analyse(e)), (lambda _: None)
        for entry in self.m["corpus"]:
            yield (("all",), entry["program"] + ":run", (lambda e=entry: self.verify(e)),
                   (lambda outs, e=entry: check_verdicts(self.verdicts[e["program"]], outs)))
        yield ("all",), "tables", self.tables, check_tables
        for prog, t in self.divergent:
            yield (("all", "diverge"), "diverge", (lambda p=prog, t=t: self.diverge(p, t)),
                   (lambda out: check_divergent(out, self.m["divergent_fuel"])))
        yield ("all", "laws"), "laws", self.law_suite, (lambda r: check_law_suite(r, self.cases))

    def end_to_end(self, p):
        steps = len(self.divergent) * self.m["divergent_fuel"]
        return {"wall_s": p["all"], "lint_s": p["lint"], "steps_per_s": steps / p["diverge"],
                "law_cases_per_s": self.law_cases() / p["laws"]}

    def layer_work(self):
        return {"interp.run.divergent": len(self.divergent) * self.m["divergent_fuel"]}

    def growth_sets(self):
        return {}

    def extra_layers(self, meter):
        """Per-layer figures that need their own measurements."""
        r = self.law_results["laws"]
        out = {"laws.check_laws.useful_ratio": sum(x.cases - x.discards for x in r) / sum(x.cases for x in r)}
        # termination cost per added binder level: repeat^k over a body the
        # analysis cannot prove, under a two-component measure
        m = parse_measure("count:Succ,depth")
        inc = self.divergent[0][0].rules["increment"]
        times = []
        for k in (1, 3):
            s = Adhoc(FAIL, inc)
            for _ in range(k):
                s = repeat(try_(s))
            runs = []
            for _ in range(3):
                timed = Timed(meter)
                timed.run(("t",), term_type_of, s, m, {})
                runs.append(timed.reference_seconds("t", meter.mean_sample()))
            times.append(median(runs))
        out["termination.binder_ratio"] = (times[1] / times[0]) ** 0.5
        return out


WORKLOADS = {"rewrite": Rewrite, "query": Query, "check": Check}

# Layer metrics every traced run prints; a workload that never calls a
# layer reports 0 for it.
LAYER_SPANS = ("files.parse_term", "terms.validate_term", "interp.compile", "interp.run",
               "queries.run_query", "queries.run_query.list", "files.term_to_sexpr",
               "fallibility", "reachability", "termination", "laws.check_laws",
               "laws.find_nonlaw_counterexamples", "laws.check_scheme_properties",
               "laws.check_soundness")


class TracedCalls(Tracer):
    """Tracer plus the interpreter-run span, which also counts gc
    collections (read outside the call)."""

    def __init__(self, meter, enabled):
        super().__init__(meter, enabled)
        self.gc = 0

    def run(self, cs, t, fuel=None, trace=None, span="interp.run"):
        args = (t,) if fuel is None else (t, fuel, trace)
        if not self.enabled:
            return cs.run(*args)
        g0 = gc_collections()
        out = self.call(span, cs.run, *args)
        self.gc += gc_collections() - g0
        return out


# ---------------------------------------------------------------------------


def run_passes(wl, meter, tr, seconds, min_passes):
    passes = []      # per pass: {group: reference seconds}
    op_layers = []   # per pass: {op key: {span: reference seconds, summed over ops with that key}}
    layer_totals = []
    attempted = failed = 0
    errors = []

    def attempt(timed, key, groups, fn, check):
        nonlocal attempted, failed
        mark = len(tr.spans)
        attempted += 1
        try:
            check(timed.run(groups, fn))
        except Exception as exc:  # a raising or wrong operation counts as failed
            failed += 1
            if len(errors) < 5:
                errors.append(f"{key}: {type(exc).__name__}: {exc}"[:300])
        return tr.self_times(mark) if tr.enabled else {}

    once = {}
    for groups, key, fn, check in getattr(wl, "once_ops", tuple)():
        timed = Timed(meter)
        spans = attempt(timed, key, ("once",), fn, check)
        speed, _ = meter.speed(timed.intervals["once"])
        scale = REF_NOMINAL_S / (speed or meter.mean_sample())
        for name, v in spans.items():
            once[name] = once.get(name, 0.0) + v * scale
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        timed = Timed(meter)
        per_op = {}
        for groups, key, fn, check in wl.ops():
            acc = per_op.setdefault(key, {})
            for name, v in attempt(timed, key, groups, fn, check).items():
                acc[name] = acc.get(name, 0.0) + v
        speed, _ = meter.speed(timed.intervals.get("all", ()))
        speed = speed or meter.mean_sample()
        passes.append({g: timed.reference_seconds(g, speed) for g in timed.work})
        scale = REF_NOMINAL_S / speed
        op_layers.append({k: {n: v * scale for n, v in d.items()} for k, d in per_op.items()})
        totals = {}
        for d in op_layers[-1].values():
            for n, v in d.items():
                totals[n] = totals.get(n, 0.0) + v
        layer_totals.append(totals)
    return passes, op_layers, layer_totals, once, attempted, failed, errors


def layer_metrics(wl, passes_layers, op_layers, once, tr, meter):
    """Per-pass self time of each layer (operations run once per run
    count once), throughput, growth over the n/2n/4n inputs and counts."""
    def per_pass(name):
        return median([t.get(name, 0.0) for t in passes_layers]) + once.get(name, 0.0)

    out = {}
    for name in LAYER_SPANS:
        out[name + ".s"] = per_pass(name)
    out["queries.run_query.s"] += out["queries.run_query.list.s"]
    work = wl.layer_work()
    for name in ("files.parse_term", "terms.validate_term", "interp.run", "queries.run_query",
                 "files.term_to_sexpr"):
        s = out[name + ".s"]
        out[name + ".nodes_per_s"] = work.get(name, 0) / s if s and work.get(name) else 0.0
    div = per_pass("interp.run.divergent")
    out["interp.run.steps_per_s"] = work.get("interp.run.divergent", 0) / div if div else 0.0
    out["interp.run.gc_collections"] = tr.gc / len(passes_layers)
    for name in ("files.parse_term", "terms.validate_term", "interp.run", "queries.run_query.list"):
        points = wl.growth_sets().get(name)
        if points:
            times = [median([p.get(key, {}).get(name, 0.0) for p in op_layers]) for key, _ in points]
            out[name + ".growth"] = growth([n for _, n in points], times)
        else:
            out[name + ".growth"] = 0.0
    out["laws.check_laws.useful_ratio"] = 0.0
    out["termination.binder_ratio"] = 0.0
    if hasattr(wl, "extra_layers"):
        out.update(wl.extra_layers(meter))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("dir")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        m = json.load(fh)
    meter = Meter()
    try:
        tr = TracedCalls(meter, bool(args.trace))
        wl = WORKLOADS[m["workload"]](args.dir, m, tr)
        passes, op_layers, layer_totals, once, attempted, failed, errors = run_passes(
            wl, meter, tr, args.seconds, MIN_PASSES)
        result = {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "passes": len(passes),
            "end_to_end": {k: median([wl.end_to_end(p)[k] for p in passes])
                           for k in wl.end_to_end(passes[0])},
            "ref_s": meter.mean_sample(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.trace:
            result["layers"] = layer_metrics(wl, layer_totals, op_layers, once, tr, meter)
            tr.enabled = False
            runs = []
            for _ in range(3):
                timed = Timed(meter)
                timed.run(("cli",), wl.cli_op())
                runs.append(timed.reference_seconds("cli", meter.mean_sample()))
            result["cli_inprocess_s"] = median(runs)
            tr.dump(os.path.join(args.dir, "trace.jsonl"))
    finally:
        meter.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
