"""The strategy machine against a direct recursive evaluator.

The shipped interpreter is an iterative opcode machine, which is the
part most likely to harbour control-flow bugs. Here the same semantics
is restated as the obvious recursive function and the two are compared
on random (strategy, term) pairs. The recursive version cannot be the
shipped engine (deep terms would blow the Python stack), which is
exactly what makes it an independent oracle.
"""

import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genlib import apply_rule, nat, nat_composites, strategy_exprs, terms
from stratkit.errors import EngineError, SignatureError, TermError
from stratkit.interp import (
    DEFAULT_FUEL,
    CompiledStrategy,
    Failure,
    FuelExhausted,
    Success,
    evaluate,
)
from stratkit.laws import builtin_rules
from stratkit.strategies import (
    FAIL,
    ID,
    Adhoc,
    All,
    Choice,
    One,
    RuleDef,
    RuleRef,
    Seq,
    Var,
    full_bu,
    full_td,
    innermost,
    once_bu,
    once_td,
    rule_choice,
    stop_td,
    try_,
)
from stratkit.terms import Lit, Node, PNode, PVar, sort_of, validate_term
from test_fuel import SAME

FAILED = object()


def _rebuild(t, kids):
    if not isinstance(t, Node):
        return t
    return Node(t.constr, tuple(kids))


def ref_eval(s, t, sig):
    """Big-step evaluation, written the naive recursive way."""
    kind = type(s).__name__
    if kind == "Id":
        return t
    if kind == "Fail":
        return FAILED
    if kind == "Seq":
        mid = ref_eval(s.left, t, sig)
        if mid is FAILED:
            return FAILED
        return ref_eval(s.right, mid, sig)
    if kind == "Choice":
        out = ref_eval(s.left, t, sig)
        if out is not FAILED:
            return out
        return ref_eval(s.right, t, sig)
    if kind == "All":
        kids = []
        for c in t.children:
            r = ref_eval(s.body, c, sig)
            if r is FAILED:
                return FAILED
            kids.append(r)
        return _rebuild(t, kids)
    if kind == "One":
        for i, c in enumerate(t.children):
            r = ref_eval(s.body, c, sig)
            if r is not FAILED:
                kids = list(t.children)
                kids[i] = r
                return _rebuild(t, kids)
        return FAILED
    if kind == "RuleRef":
        out = apply_rule(s.rule, t, sig)
        return FAILED if out is None else out
    if kind == "Adhoc":
        if sort_of(sig, t) == s.rule.sort:
            out = apply_rule(s.rule, t, sig)
            return FAILED if out is None else out
        return ref_eval(s.default, t, sig)
    raise AssertionError(f"reference cannot evaluate {s!r}")


# Recursive restatements of the six traversal schemes, bypassing the
# Rec/Var machinery entirely.


def ref_full_td(s, t, sig):
    mid = ref_eval(s, t, sig)
    if mid is FAILED:
        return FAILED
    kids = []
    for c in mid.children:
        r = ref_full_td(s, c, sig)
        if r is FAILED:
            return FAILED
        kids.append(r)
    return _rebuild(mid, kids)


def ref_full_bu(s, t, sig):
    kids = []
    for c in t.children:
        r = ref_full_bu(s, c, sig)
        if r is FAILED:
            return FAILED
        kids.append(r)
    return ref_eval(s, _rebuild(t, kids), sig)


def ref_once_td(s, t, sig):
    out = ref_eval(s, t, sig)
    if out is not FAILED:
        return out
    for i, c in enumerate(t.children):
        r = ref_once_td(s, c, sig)
        if r is not FAILED:
            kids = list(t.children)
            kids[i] = r
            return _rebuild(t, kids)
    return FAILED


def ref_once_bu(s, t, sig):
    for i, c in enumerate(t.children):
        r = ref_once_bu(s, c, sig)
        if r is not FAILED:
            kids = list(t.children)
            kids[i] = r
            return _rebuild(t, kids)
    return ref_eval(s, t, sig)


def ref_stop_td(s, t, sig):
    out = ref_eval(s, t, sig)
    if out is not FAILED:
        return out
    kids = []
    for c in t.children:
        r = ref_stop_td(s, c, sig)
        if r is FAILED:
            return FAILED
        kids.append(r)
    return _rebuild(t, kids)


def ref_innermost(s, t, sig, bound=50_000):
    cur = t
    for _ in range(bound):
        nxt = ref_once_bu(s, cur, sig)
        if nxt is FAILED:
            return cur
        cur = nxt
    raise AssertionError("reference innermost did not settle")


SCHEMES = {
    "full_td": (full_td, ref_full_td),
    "full_bu": (full_bu, ref_full_bu),
    "once_td": (once_td, ref_once_td),
    "once_bu": (once_bu, ref_once_bu),
    "stop_td": (stop_td, ref_stop_td),
    "innermost": (innermost, ref_innermost),
}


def assert_same(outcome, want):
    if want is FAILED:
        assert isinstance(outcome, Failure)
    else:
        assert isinstance(outcome, Success)
        assert outcome.term == want


# ---------------------------------------------------------------------------
# Machine vs reference


@given(strategy_exprs(builtin_rules() + nat_composites()), terms)
def test_machine_agrees_with_reference(sig, s, t):
    got = evaluate(s, t, sig, fuel=100_000)
    # rec-free strategies always terminate, and well within this fuel
    assert not isinstance(got, FuelExhausted)
    assert_same(got, ref_eval(s, t, sig))


def shrinking_exprs(max_leaves=4):
    """Rec-free strategies that make the term smaller wherever they
    succeed (fewer nodes, or as many with fewer True): failure is their
    only leaf besides the two shrinking rules, and all() is left out."""
    pool = [r for r in builtin_rules() if r.name in ("dropSucc", "flipTrue")]
    leaves = st.sampled_from([FAIL] + [RuleRef(r) for r in pool])

    def extend(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: Seq(*p)),
            st.tuples(sub, sub).map(lambda p: Choice(*p)),
            sub.map(One),
            st.tuples(sub, st.sampled_from(pool)).map(lambda p: Adhoc(*p)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


#: innermost stops only at a normal form, so its argument must shrink
#: the term, or most draws would run out of fuel
SCHEME_ARGS = {name: strategy_exprs(max_leaves=4) for name in SCHEMES}
SCHEME_ARGS["innermost"] = shrinking_exprs()


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=60)
@given(st.data(), terms)
def test_scheme_agrees_with_reference(name, sig, data, t):
    s = data.draw(SCHEME_ARGS[name], label="s")
    scheme, ref = SCHEMES[name]
    got = evaluate(scheme(s), t, sig, fuel=20_000)
    assume(not isinstance(got, FuelExhausted))
    assert_same(got, ref(s, t, sig))


# ---------------------------------------------------------------------------
# The seven fixed regressions

TREE1 = Node("Node", (nat(0), Node("Nil_NatTree")))
TREE2 = Node("BNode", (Node("True"), Node("Nil_BoolTree")))


def test_stop_td_rewrites_at_the_root_payload(sig, rules):
    s = stop_td(Adhoc(FAIL, rules["increment"]))
    out = evaluate(s, TREE1, sig)
    assert out == Success(Node("Node", (nat(1), Node("Nil_NatTree"))))


def test_full_bu_with_fail_default_fails(sig, rules):
    s = full_bu(Adhoc(FAIL, rules["increment"]))
    assert evaluate(s, TREE1, sig) == Failure()


def test_stop_td_leaves_foreign_trees_alone(sig, rules):
    s = stop_td(Adhoc(FAIL, rules["increment"]))
    assert evaluate(s, TREE2, sig) == Success(TREE2)


def test_full_td_with_id_default_diverges(sig, rules):
    s = full_td(Adhoc(ID, rules["increment"]))
    out = evaluate(s, TREE1, sig, fuel=1000)
    assert out == FuelExhausted(1000)
    assert out != Failure()


def test_full_bu_with_id_default_doubles_and_one(sig, rules):
    s = full_bu(Adhoc(ID, rules["increment"]))
    assert evaluate(s, nat(1), sig) == Success(nat(3))
    for n in range(5):
        out = evaluate(s, nat(n), sig)
        assert isinstance(out, Success)
        assert out.term == nat(2 * n + 1)


def test_dominated_adhoc_case_never_fires(sig, rules):
    s = stop_td(Adhoc(Adhoc(FAIL, rules["atEven"]), rules["atOdd"]))
    trace = set()
    out = CompiledStrategy(s, sig).run(TREE1, trace=trace)
    assert out == Success(TREE1)
    assert trace == set()


def test_rule_choice_restores_the_even_case(sig, rules):
    s = stop_td(Adhoc(FAIL, rule_choice(rules["atEven"], rules["atOdd"])))
    out = evaluate(s, TREE1, sig)
    assert out == Success(Node("Node", (nat(2), Node("Nil_NatTree"))))


# ---------------------------------------------------------------------------
# Structural properties of the child combinators


@given(strategy_exprs(), terms)
def test_one_changes_at_most_one_child(sig, s, t):
    out = evaluate(One(s), t, sig, fuel=100_000)
    if isinstance(out, Success):
        r = out.term
        assert isinstance(t, Node) and isinstance(r, Node)
        assert r.constr == t.constr
        assert len(r.children) == len(t.children)
        changed = sum(a != b for a, b in zip(t.children, r.children))
        assert changed <= 1


@given(strategy_exprs(), terms)
def test_all_preserves_the_constructor(sig, s, t):
    out = evaluate(All(s), t, sig, fuel=100_000)
    if isinstance(out, Success) and isinstance(t, Node):
        assert isinstance(out.term, Node)
        assert out.term.constr == t.constr
        assert len(out.term.children) == len(t.children)


@given(strategy_exprs(), terms)
def test_success_preserves_sort_and_validity(sig, s, t):
    out = evaluate(s, t, sig, fuel=100_000)
    if isinstance(out, Success):
        assert sort_of(sig, out.term) == sort_of(sig, t)
        validate_term(sig, out.term)


@given(strategy_exprs(), terms, st.integers(min_value=1, max_value=50))
def test_more_fuel_never_changes_a_settled_outcome(sig, s, t, extra):
    first = evaluate(s, t, sig, fuel=2000)
    assume(not isinstance(first, FuelExhausted))
    assert evaluate(s, t, sig, fuel=2000 + extra) == first


# ---------------------------------------------------------------------------
# Fuel and outcome plumbing


def test_fuel_exhaustion_reports_the_budget(sig, rules):
    s = full_td(Adhoc(ID, rules["increment"]))
    out = evaluate(s, TREE1, sig, fuel=77)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 77


def _traced_peak(s, t, sig, fuel):
    """The outcome of a run, and the peak bytes that it allocated."""
    tracemalloc.start()
    try:
        out = evaluate(s, t, sig, fuel=fuel)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_repeat_runs_in_constant_stack(sig, rules):
    # innermost is repeat(once_bu(s)); each round's try starts on the
    # frame of the last round's, which would otherwise hold its term
    s = innermost(Adhoc(FAIL, rules["increment"]))
    out, peak = _traced_peak(s, nat(0), sig, 300_000)
    assert out == FuelExhausted(300_000)
    assert peak < 2_000_000


# A descent through a one-child node keeps the node as its frame: the
# stack's own slot, 8 bytes a level, is all that a level of a chain holds.
CHAIN_LEVELS = 200_000


@pytest.fixture(scope="module")
def chain():
    return nat(CHAIN_LEVELS)


def test_full_td_over_a_chain_keeps_no_frame_per_level(sig, chain):
    out, peak = _traced_peak(full_td(ID), chain, sig, 10**7)
    assert out.term is chain
    assert peak / CHAIN_LEVELS < 24


def test_once_td_over_a_chain_keeps_no_frame_per_level(sig, rules, chain):
    s = once_td(Adhoc(FAIL, rules["flipTrue"]))
    out, peak = _traced_peak(s, chain, sig, 10**7)
    assert out == Failure()
    assert peak / CHAIN_LEVELS < 24


def test_growing_full_td_holds_little_beyond_its_terms(sig, rules):
    # each level costs 4 units of fuel and holds the Succ that increment
    # built there (about 104 bytes), as the frame for the way up
    s = full_td(Adhoc(ID, rules["increment"]))
    out, peak = _traced_peak(s, TREE1, sig, 400_000)
    assert out == FuelExhausted(400_000)
    assert peak / 100_000 < 150


@pytest.mark.parametrize("t", [nat(1), TREE1], ids=["one child", "two children"])
@pytest.mark.parametrize("combinator", [All, One])
def test_identity_child_step_returns_its_input(sig, combinator, t):
    assert evaluate(combinator(ID), t, sig).term is t


@pytest.mark.parametrize(
    "s, t",
    [(Choice(One(ID), FAIL), nat(1)), (once_bu(Adhoc(FAIL, SAME)), nat(40))],
    ids=["one(id) <+ fail", "once_bu down a chain"],
)
def test_fused_one_child_step_returns_its_input(sig, s, t):
    # one(x) <+ s over a one-child node is one fused frame, and once_bu
    # runs it in a loop down the chain
    assert evaluate(s, t, sig).term is t


def test_full_bu_id_over_a_deep_chain_returns_its_input(sig, chain):
    assert evaluate(full_bu(ID), chain, sig, fuel=10**7).term is chain


def test_all_keeps_the_children_that_it_leaves_alone(sig, rules):
    out = evaluate(All(Adhoc(ID, rules["increment"])), TREE1, sig).term
    assert out.children[0] == nat(1)
    assert out.children[1] is TREE1.children[1]


@pytest.mark.parametrize(
    "scheme, default, outcome",
    [(full_td, ID, FuelExhausted), (innermost, FAIL, FuelExhausted), (full_bu, ID, Success)],
    ids=["full_td", "innermost", "full_bu"],
)
def test_rewriting_runs_build_no_node_through_its_class(
    sig, rules, monkeypatch, scheme, default, outcome
):
    # a rewriting run builds a node per step, so the machine and the
    # rule appliers build them with terms._node or its inline copies,
    # not with the generic Node(...) call, a large share of a step. A
    # structural pin, as no time bound holds on every machine. full_bu
    # rebuilds both a one-child and a two-child node here.
    code = CompiledStrategy(scheme(Adhoc(default, rules["increment"])), sig)
    t = Node("Node", (nat(2), Node("Nil_NatTree")))
    calls = []
    init = Node.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Node, "__init__", counted)
    assert type(code.run(t, fuel=10_000)) is outcome
    assert calls == []


def test_outcome_types_are_distinct():
    assert Failure() != FuelExhausted(5)
    assert Success(nat(0)) != Failure()


def test_compiled_strategy_is_reusable(sig, rules):
    cs = CompiledStrategy(stop_td(Adhoc(FAIL, rules["increment"])), sig)
    a = cs.run(TREE1)
    b = cs.run(TREE1)
    assert a == b


def test_trace_collects_the_fired_rule_block(sig, rules):
    s = stop_td(Adhoc(FAIL, rules["increment"]))
    trace = set()
    CompiledStrategy(s, sig).run(TREE1, trace=trace)
    assert trace == {"increment"}
    # a fired composite is recorded as its whole leaf set
    s2 = stop_td(Adhoc(FAIL, rule_choice(rules["atEven"], rules["atOdd"])))
    trace2 = set()
    CompiledStrategy(s2, sig).run(TREE1, trace=trace2)
    assert trace2 == {"atEven", "atOdd"}


def test_unbound_variable_is_rejected_at_compile_time(sig):
    with pytest.raises(EngineError, match="unbound"):
        CompiledStrategy(Var("ghost"), sig)


@pytest.mark.parametrize("lhs", [PVar("n"), PNode("Succ", (PVar("n"),))])
def test_an_unbound_rule_variable_is_rejected_at_compile_time(sig, lhs):
    # a rule whose right side the parser would reject, built directly
    ghost = RuleDef("ghost", "Nat", lhs, PNode("Succ", (PVar("m"),)))
    for s in (RuleRef(ghost), Adhoc(ID, rule_choice(ghost, ghost))):
        with pytest.raises(TermError) as exc:
            CompiledStrategy(s, sig)
        assert str(exc.value) == "unbound pattern variable 'm'"


@pytest.mark.parametrize("form", ["adhoc", "rule", "under all"])
def test_an_undeclared_constructor_is_a_signature_error(sig, rules, form):
    inc = rules["increment"]
    s, t = {
        "adhoc": (Adhoc(ID, inc), Node("Bogus")),
        "rule": (RuleRef(inc), Node("Bogus")),
        "under all": (All(RuleRef(inc)), Node("Succ", (Node("Bogus"),))),
    }[form]
    with pytest.raises(SignatureError) as exc:
        CompiledStrategy(s, sig).run(t)
    assert str(exc.value) == "unknown constructor 'Bogus'"


def test_a_rule_fails_on_a_term_of_another_sort(sig, rules):
    # one fuel unit, as the dispatch of any rule
    out = evaluate(RuleRef(rules["increment"]), TREE1, sig, fuel=1)
    assert out == Failure()


# ---------------------------------------------------------------------------
# Deep terms


def test_deep_spine_traversal_stays_iterative(sig, rules):
    n = 150_000
    s = full_bu(try_(RuleRef(rules["dropSucc"])))
    out = evaluate(s, nat(n), sig, fuel=10_000_000)
    # bottom-up dropSucc collapses the whole spine to Zero
    assert out == Success(nat(0))


def test_default_fuel_is_a_million():
    assert DEFAULT_FUEL == 1_000_000
