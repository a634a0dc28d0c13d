"""Fuel is step-exact: the machine against a step-counting reference.

One unit of fuel is one application of a strategy construct to a term
(`rec` itself is free). The machine fuses constructs into fewer
instructions, so that it dispatches less often than it charges; it must
still give, at every budget, the outcome, result term, trace and error
that step_oracle.py gives. That is checked at every budget in a window
of two steps around the exact step count, on generated closed
strategies, on each fused shape by name and at each way a spine loop
ends, and pinned by a table of settling budgets taken from the machine
before any fusion.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from genlib import nat, nat_composites, terms
from stratkit.files import load_term, parse_signature
from stratkit.interp import (
    OP_ADHOC,
    OP_ALL,
    OP_ONE,
    OP_TRY,
    OP_VAR,
    CompiledStrategy,
    Failure,
    FuelExhausted,
    Success,
)
from stratkit.laws import builtin_rules, builtin_signature
from stratkit.strategies import (
    FAIL,
    GUARDS,
    ID,
    Adhoc,
    All,
    BogusSchemeWarning,
    Choice,
    One,
    Rec,
    RuleDef,
    RuleRef,
    Seq,
    Var,
    binder_numbering,
    free_vars,
    full_bu,
    full_td,
    innermost,
    once_bu,
    once_td,
    repeat,
    stop_bu,
    stop_td,
    try_,
)
from stratkit.terms import Lit, Node, PVar

SIG = builtin_signature()
RULES = builtin_rules()
RULE = {r.name: r for r in RULES}
#: what a generated strategy applies: the rules and composites of them
POOL = RULES + nat_composites()
NAMES = ("x", "y", "z")
#: the most steps a generated run is followed for
CAP = 300


def _stop_bu(s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BogusSchemeWarning)
        return stop_bu(s)


SCHEMES = {
    "full_td": full_td,
    "full_bu": full_bu,
    "once_td": once_td,
    "once_bu": once_bu,
    "stop_td": stop_td,
    "stop_bu": _stop_bu,
    "innermost": innermost,
    "repeat": repeat,
    "try": try_,
}


SCHEME_NAMES = st.sampled_from(sorted(SCHEMES))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception type is part of the result
        return type(exc), str(exc)


def assert_same_at(s, t, sig, budgets):
    """At each budget the machine gives the reference's outcome, or its
    error, and its trace."""
    compiled = outcome(CompiledStrategy, s, sig)
    for fuel in budgets:
        got_trace, want_trace = set(), set()
        if compiled[0] == "ok":
            got = outcome(compiled[1].run, t, fuel, got_trace)
        else:
            got = compiled
        want = outcome(step_oracle.run, s, t, sig, fuel, want_trace)
        assert got == want, fuel
        assert got_trace == want_trace, fuel


def assert_step_exact(s, t, sig=SIG):
    """The window of budgets n - 2 ... n + 2 around the exact step count
    n, or around CAP when the run takes more."""
    n = step_oracle.steps(s, t, sig, CAP)
    mid = CAP if n is None else n
    assert_same_at(s, t, sig, range(max(0, mid - 2), mid + 3))


# ---------------------------------------------------------------------------
# Generated closed strategies


def closed_strategies(max_leaves=8):
    """Strategies with rec, every derived scheme and nestings of them,
    closed by a rec around each free variable."""
    leaves = st.one_of(
        st.sampled_from([ID, FAIL] + [RuleRef(r) for r in POOL]),
        st.sampled_from(NAMES).map(Var),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: Seq(*p)),
            st.tuples(sub, sub).map(lambda p: Choice(*p)),
            sub.map(All),
            sub.map(One),
            st.tuples(sub, st.sampled_from(POOL)).map(lambda p: Adhoc(*p)),
            st.tuples(st.sampled_from(NAMES), sub).map(lambda p: Rec(*p)),
            st.tuples(SCHEME_NAMES, sub).map(lambda p: SCHEMES[p[0]](p[1])),
        )

    def close(s):
        for name in sorted(free_vars(s)):
            s = Rec(name, s)
        return s

    return st.recursive(leaves, extend, max_leaves=max_leaves).map(close)


@settings(deadline=None)
@given(closed_strategies(), terms)
def test_the_machine_is_step_exact_on_generated_strategies(s, t):
    assert_step_exact(s, t)


@settings(deadline=None, max_examples=50)
@given(SCHEME_NAMES, SCHEME_NAMES, closed_strategies(4), terms)
def test_nested_schemes_are_step_exact(outer, inner, s, t):
    assert_step_exact(SCHEMES[outer](SCHEMES[inner](s)), t)


# ---------------------------------------------------------------------------
# Each fused shape by name


def instructions(code):
    """Every instruction reachable from code, each once."""
    seen, todo = {}, [code]
    while todo:
        ins = todo.pop()
        if id(ins) not in seen:
            seen[id(ins)] = ins
            todo.extend(f for f in ins[2:] if type(f) is list)
    return list(seen.values())


ZERO = Node("Zero")
TREE1 = Node("Node", (ZERO, Node("Nil_NatTree")))
TREE2 = Node("BNode", (Node("True"), Node("Nil_BoolTree")))
FOREST = Node("Node", (nat(2), Node("Cons_NatTree", (TREE1, Node("Nil_NatTree")))))
SHAPE_TERMS = (ZERO, nat(3), TREE1, TREE2, FOREST)
UNDECLARED = Node("Succ", (Node("Mystery", (ZERO,)),))
BODIES = (ID, FAIL, RuleRef(RULE["dropSucc"]), Adhoc(FAIL, RULE["increment"]), All(ID), One(ID))
ADHOCS = [Adhoc(d, r) for d in (ID, FAIL) for r in RULES]


def assert_every_budget(s, t, sig=SIG):
    """Every budget from 0 to two past the exact step count."""
    n = step_oracle.steps(s, t, sig, CAP)
    assert n is not None
    assert_same_at(s, t, sig, range(n + 3))


@pytest.mark.parametrize("body", BODIES)
def test_try_is_fused_and_charges_id_only_on_failure(body):
    assert CompiledStrategy(try_(body), SIG)._code[0] == OP_TRY
    for t in SHAPE_TERMS + (UNDECLARED,):
        assert_every_budget(try_(body), t)
        assert_step_exact(repeat(Seq(body, Adhoc(FAIL, RULE["dropSucc"]))), t)


@pytest.mark.parametrize("adhoc", ADHOCS)
@pytest.mark.parametrize("then", BODIES)
def test_adhoc_then_a_strategy_is_fused(adhoc, then):
    code = CompiledStrategy(Seq(adhoc, then), SIG)._code
    assert code[0] == OP_ADHOC and code[6] is not None
    for t in SHAPE_TERMS + (UNDECLARED,):
        assert_every_budget(Seq(adhoc, then), t)


# a bare rule is an adhoc without a default: it fails at once on another sort
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_a_bare_rule_then_a_strategy_is_fused(rule):
    for then in BODIES:
        code = CompiledStrategy(Seq(RuleRef(rule), then), SIG)._code
        assert code[0] == OP_ADHOC and code[2] is None and code[6] is not None
        for t in SHAPE_TERMS + (UNDECLARED,):
            assert_every_budget(Seq(RuleRef(rule), then), t)


@pytest.mark.parametrize("adhoc", ADHOCS)
def test_full_td_over_adhoc_links_its_variable_to_the_fused_adhoc(adhoc):
    code = CompiledStrategy(full_td(adhoc), SIG)._code
    assert OP_VAR not in [ins[0] for ins in instructions(code)]
    assert code[0] == OP_ADHOC and code[6][2][0] == OP_ADHOC and code[6][2][1] == code[1] + 1
    for t in SHAPE_TERMS:
        assert_step_exact(full_td(adhoc), t)


# one(x) <+ id is a try
@pytest.mark.parametrize("fallback", BODIES[1:] + tuple(ADHOCS))
def test_one_or_else_is_one_fused_frame(fallback):
    s = Choice(One(Adhoc(FAIL, RULE["dropSucc"])), fallback)
    code = CompiledStrategy(s, SIG)._code
    assert code[0] == OP_ONE and code[3] is not None
    for t in SHAPE_TERMS + (UNDECLARED,):
        assert_every_budget(s, t)
        assert_step_exact(once_bu(fallback), t)


@pytest.mark.parametrize("adhoc", ADHOCS)
def test_innermost_is_fused_at_every_level(adhoc):
    code = CompiledStrategy(innermost(adhoc), SIG)._code
    ops = [ins[0] for ins in instructions(code)]
    assert OP_VAR not in ops and OP_TRY in ops and OP_ONE in ops
    for t in SHAPE_TERMS + (UNDECLARED,):
        assert_step_exact(innermost(adhoc), t)


@pytest.mark.parametrize(
    "s",
    [
        Rec("x", Var("x")),
        Rec("x", Rec("y", Var("x"))),
        Rec("x", Rec("y", Var("y"))),
        Choice(Rec("x", Var("x")), ID),
        Seq(Adhoc(ID, RULE["increment"]), Rec("x", Rec("y", Var("x")))),
    ],
)
def test_a_pure_variable_cycle_is_a_jump_that_charges_each_turn(s):
    code = CompiledStrategy(s, SIG)._code
    cycles = [ins for ins in instructions(code) if ins[0] == OP_VAR]
    assert len(cycles) == 1 and cycles[0][2] is cycles[0]
    for t in SHAPE_TERMS:
        assert_same_at(s, t, SIG, range(12))


def test_nested_binders_link_through_each_other():
    inc, drop = Adhoc(FAIL, RULE["increment"]), Adhoc(FAIL, RULE["dropSucc"])
    for s in (
        Rec("x", Rec("y", Choice(Seq(drop, Var("y")), One(Var("x"))))),
        Rec("x", Seq(Rec("y", Choice(drop, One(Var("y")))), Choice(Seq(inc, Var("x")), ID))),
        Rec("x", Choice(One(Rec("y", Seq(drop, Choice(Var("x"), Var("y"))))), ID)),
    ):
        assert OP_VAR not in [ins[0] for ins in instructions(CompiledStrategy(s, SIG)._code)]
        for t in SHAPE_TERMS:
            assert_step_exact(s, t)


def test_literals_and_a_foreign_signature_are_step_exact(company_sig, fixtures_dir):
    c0 = load_term(fixtures_dir / "terms" / "c0.term")
    for name in ("full_td", "full_bu", "once_bu", "stop_td", "innermost"):
        for adhoc in ADHOCS[:2]:
            assert_step_exact(SCHEMES[name](adhoc), c0, company_sig)


# ---------------------------------------------------------------------------
# full_td's and once_bu's loops down a one-child spine, at each way a spine ends

SPINE_SIG = parse_signature(
    """
    sort Nat
    sort Box
    prim Int : int
    Zero : -> Nat
    Succ : Nat -> Nat
    Pair : Nat * Nat -> Nat
    Num : Int -> Nat
    Unbox : Box -> Nat
    Box : Nat -> Box
    """
)
SAME = RuleDef("same", "Nat", PVar("n"), PVar("n"))
POSITIVE = RuleDef("positive", "Int", PVar("n"), PVar("n"), guard="lit_positive")
SPINE_RULES = (RULE["increment"], RULE["dropSucc"], RULE["atEven"], SAME, POSITIVE)
SPINE_ENDS = {
    "leaf": nat(5),
    "lit": Node("Succ", (Node("Succ", (Node("Num", (Lit(3, "Int"),)),)),)),
    "two children": Node("Succ", (Node("Succ", (Node("Pair", (nat(1), nat(0))),)),)),
    "sort change": Node("Succ", (Node("Unbox", (Node("Box", (nat(2),)),)),)),
    # atEven fires on Succ (Succ Zero) and fails on the Succ^3 below its result
    "guard fails": Node("Box", (nat(2),)),
    "undeclared": Node("Succ", (Node("Succ", (Node("Mystery", (ZERO,)),)),)),
}


def spine_loops(code):
    """The full_td and once_bu instructions that loop down a spine."""
    full = [i for i in instructions(code) if i[0] == OP_ALL and i[2][0] == OP_ADHOC and i[2][6] is i]
    once = [i for i in instructions(code) if i[0] == OP_ONE and i[2] is i and i[3] is not None]
    return full, once


@pytest.mark.parametrize("scheme", ["full_td", "once_bu", "innermost"])
@pytest.mark.parametrize("end", sorted(SPINE_ENDS))
def test_the_spine_loops_are_step_exact_at_each_end(scheme, end):
    t = SPINE_ENDS[end]
    for default in (ID, FAIL):
        for rule in SPINE_RULES:
            s = SCHEMES[scheme](Adhoc(default, rule))
            cs = CompiledStrategy(s, SPINE_SIG)
            full, once = spine_loops(cs._code)
            assert (len(full), len(once)) == ((1, 0) if scheme == "full_td" else (0, 1))
            n = step_oracle.steps(s, t, SPINE_SIG, CAP)
            mid = CAP if n is None else n
            budgets = range(max(0, mid - 2), mid + 3)
            assert_same_at(s, t, SPINE_SIG, budgets)
            for fuel in budgets:  # and with no trace
                want = outcome(step_oracle.run, s, t, SPINE_SIG, fuel)
                assert outcome(cs.run, t, fuel) == want, fuel


def test_a_rule_that_fails_down_the_spine_is_applied_once(monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return GUARDS["even_nat"](t)

    monkeypatch.setitem(GUARDS, "counting", counting)
    at_even = RuleDef("atEven", "Nat", PVar("n"), RULE["atEven"].rhs, guard="counting")
    s = full_td(Adhoc(ID, at_even))
    t = SPINE_ENDS["guard fails"]
    assert step_oracle.run(s, t, SPINE_SIG, CAP) == Failure()
    want = len(calls)
    del calls[:]
    assert CompiledStrategy(s, SPINE_SIG).run(t, CAP) == Failure()
    assert len(calls) == want == 2


# ---------------------------------------------------------------------------
# The settling budgets of the derived schemes

#: The least budget at which each scheme over adhoc(default, rule)
#: settles, with S for success and F for failure; - is more than 2^16.
#: Recorded from the machine that dispatched every construct alone.
SETTLING_BUDGETS = """
scheme     default rule      tree1  tree2  succ1  nat50     c0
full_td    id    increment       -    14S      -      -    99S
full_td    id    dropSucc       7F    14S     3S   102F    99S
full_td    fail  increment      3F     3F      -      -     3F
full_td    fail  dropSucc       3F     3F     3S   102F     3F
full_bu    id    increment     13S    14S     7S   203S    99S
full_bu    id    dropSucc       6F    14S     6F   153F    99S
full_bu    fail  increment     11F     7F     7S   203S    13F
full_bu    fail  dropSucc       6F     7F     6F   153F    13F
once_td    id    increment      3S     3S     2S     2S     3S
once_td    id    dropSucc       3S     3S     2S     2S     3S
once_td    fail  increment      7S    14F     2S     2S    99F
once_td    fail  dropSucc      13F    14F     2S     2S    99F
once_bu    id    increment      6S     7S     6S   153S    13S
once_bu    id    dropSucc      11S     7S     7S   154S    13S
once_bu    fail  increment      6S    14F     6S   153S    99F
once_bu    fail  dropSucc      13F    14F     7S   154S    99F
stop_td    id    increment      3S     3S     2S     2S     3S
stop_td    id    dropSucc       3S     3S     2S     2S     3S
stop_td    fail  increment     12S    14S     2S     2S    99S
stop_td    fail  dropSucc      13S    14S     2S     2S    99S
innermost  id    increment       -      -      -      -      -
innermost  id    dropSucc        -      -    16S  4181S      -
innermost  fail  increment       -    17S      -      -   102S
innermost  fail  dropSucc      16S    17S    16S  4181S   102S
repeat     id    increment       -      -      -      -      -
repeat     id    dropSucc        -      -     8S   204S      -
repeat     fail  increment      5S     5S      -      -     5S
repeat     fail  dropSucc       5S     5S     8S   204S     5S
try        id    increment      3S     3S     2S     2S     3S
try        id    dropSucc       3S     3S     2S     2S     3S
try        fail  increment      4S     4S     2S     2S     4S
try        fail  dropSucc       4S     4S     2S     2S     4S
"""
GOLDEN_CAP = 1 << 16


def settling_budget(cs, t):
    """The least budget at which cs settles on t, with its outcome."""
    if isinstance(cs.run(t, GOLDEN_CAP), FuelExhausted):
        return "-"
    lo, hi = 0, GOLDEN_CAP  # exhausted at lo, settled at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(cs.run(t, mid), FuelExhausted):
            lo = mid
        else:
            hi = mid
    return f"{hi}{'S' if isinstance(cs.run(t, hi), Success) else 'F'}"


def test_derived_schemes_settle_at_their_recorded_budgets(company_sig, fixtures_dir):
    targets = {
        "tree1": (TREE1, SIG),
        "tree2": (TREE2, SIG),
        "succ1": (nat(1), SIG),
        "nat50": (nat(50), SIG),
        "c0": (load_term(fixtures_dir / "terms" / "c0.term"), company_sig),
    }
    header, *rows = SETTLING_BUDGETS.strip().splitlines()
    columns = header.split()[3:]
    assert columns == list(targets)
    for row in rows:
        name, default, rule, *want = row.split()
        with binder_numbering():
            s = SCHEMES[name](Adhoc({"id": ID, "fail": FAIL}[default], RULE[rule]))
        got = [settling_budget(CompiledStrategy(s, targets[c][1]), targets[c][0]) for c in columns]
        assert got == want, row
