"""Strategy expressions, scheme expansion, and rule application."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratkit.errors import StratkitError
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
    family,
    free_vars,
    full_bu,
    full_bu1,
    full_td,
    full_td1,
    innermost,
    once_bu,
    once_bu1,
    once_td,
    once_td1,
    print_strategy,
    repeat,
    rule_choice,
    rule_names,
    rule_seq,
    stop_bu,
    stop_td,
    stop_td1,
    substitute,
    try_,
)
from stratkit.terms import Lit, Node, PNode, PVar

from genlib import apply_rule, canon, nat, strategy_exprs


@pytest.fixture(scope="module")
def inc():
    return RuleDef("inc", "Nat", PVar("n"), PNode("Succ", (PVar("n"),)))


# ---------------------------------------------------------------------------
# Scheme expansion shapes


def test_scheme_expansions(inc):
    x = RuleRef(inc)
    v = Var("r0")
    assert canon(full_td(x)) == Rec("r0", Seq(x, All(v)))
    assert canon(full_bu(x)) == Rec("r0", Seq(All(v), x))
    assert canon(once_td(x)) == Rec("r0", Choice(x, One(v)))
    assert canon(once_bu(x)) == Rec("r0", Choice(One(v), x))
    assert canon(stop_td(x)) == Rec("r0", Choice(x, All(v)))
    assert canon(repeat(x)) == Rec("r0", Choice(Seq(x, v), ID))
    assert try_(x) == Choice(x, ID)


def test_innermost_is_repeat_of_once_bu(inc):
    x = RuleRef(inc)
    assert canon(innermost(x)) == Rec(
        "r0", Choice(Seq(Rec("r1", Choice(One(Var("r1")), x)), Var("r0")), ID)
    )


def test_stop_bu_warns_that_it_is_a_deep_identity(inc):
    with pytest.warns(BogusSchemeWarning, match="identity"):
        s = stop_bu(RuleRef(inc))
    assert canon(s) == Rec("r0", Choice(All(Var("r0")), RuleRef(inc)))


def test_primed_schemes_lift_with_the_right_default(inc):
    assert canon(full_td1(inc)) == canon(full_td(Adhoc(ID, inc)))
    assert canon(full_bu1(inc)) == canon(full_bu(Adhoc(ID, inc)))
    assert canon(once_td1(inc)) == canon(once_td(Adhoc(FAIL, inc)))
    assert canon(once_bu1(inc)) == canon(once_bu(Adhoc(FAIL, inc)))
    assert canon(stop_td1(inc)) == canon(stop_td(Adhoc(FAIL, inc)))


def test_fresh_binders_never_collide(inc):
    outer = full_td(stop_td(RuleRef(inc)))
    binders = []
    stack = [outer]
    while stack:
        s = stack.pop()
        if isinstance(s, Rec):
            binders.append(s.name)
            stack.append(s.body)
        elif isinstance(s, (Seq, Choice)):
            stack.extend((s.left, s.right))
        elif isinstance(s, (All, One)):
            stack.append(s.body)
    assert len(binders) == 2
    assert len(set(binders)) == 2


# ---------------------------------------------------------------------------
# Substitution


def test_substitute_replaces_free_occurrences():
    s = Seq(Var("x"), Rec("v", Choice(Var("x"), Var("v"))))
    out = substitute(s, {"x": ID})
    assert out == Seq(ID, Rec("v", Choice(ID, Var("v"))))


def test_substitute_is_capture_avoiding():
    s = Rec("v", Seq(Var("v"), Var("x")))
    out = substitute(s, {"x": Var("v")})
    assert isinstance(out, Rec)
    assert out.name != "v"
    assert free_vars(out) == {"v"}
    assert out.body == Seq(Var(out.name), Var("v"))


def test_renamed_binder_avoids_names_free_in_the_body():
    # `$1` comes from another numbering; a fresh one restarts at `$1`
    s = Rec("v", Seq(Var("v"), Seq(Var("x"), Var("$1"))))
    with binder_numbering():
        out = substitute(s, {"x": Var("v")})
    assert out.name not in ("v", "$1")
    assert free_vars(out) == {"v", "$1"}
    assert out.body == Seq(Var(out.name), Seq(Var("v"), Var("$1")))


def test_substitute_does_not_touch_bound_occurrences():
    s = Rec("x", Seq(Var("x"), Var("y")))
    out = substitute(s, {"x": FAIL})
    assert out == s


def test_free_vars():
    assert free_vars(Rec("v", Seq(Var("v"), Var("w")))) == {"w"}
    assert free_vars(ID) == frozenset()
    assert free_vars(All(One(Var("z")))) == {"z"}
    assert free_vars(Rec("v", Adhoc(Choice(Var("v"), Var("w")), RuleDef(
        "r", "Nat", PVar("n"), PVar("n"))))) == {"w"}


def ref_free_vars(s):
    """The recursive definition free_vars must agree with."""
    if isinstance(s, Var):
        return frozenset((s.name,))
    if isinstance(s, Rec):
        return ref_free_vars(s.body) - {s.name}
    if isinstance(s, (Seq, Choice)):
        return ref_free_vars(s.left) | ref_free_vars(s.right)
    if isinstance(s, (All, One)):
        return ref_free_vars(s.body)
    if isinstance(s, Adhoc):
        return ref_free_vars(s.default)
    return frozenset()


names = st.sampled_from(["v", "w", "x"])
open_exprs = st.recursive(
    st.one_of(strategy_exprs(max_leaves=3), names.map(Var)),
    lambda sub: st.one_of(
        st.tuples(names, sub).map(lambda p: Rec(*p)),
        st.tuples(sub, sub).map(lambda p: Seq(*p)),
        st.tuples(sub, sub).map(lambda p: Choice(*p)),
        sub.map(All),
        sub.map(One),
        sub.map(lambda d: Adhoc(d, RuleDef("r", "Nat", PVar("n"), PVar("n")))),
    ),
    max_leaves=12,
)


@given(open_exprs)
def test_free_vars_agrees_with_the_recursive_definition(s):
    assert free_vars(s) == ref_free_vars(s)


def test_free_vars_of_a_ten_thousand_step_chain():
    s = Var("x")
    for i in range(10_000):
        s = Seq(s, Rec("v", Var("v" if i % 2 else "y")))
    assert free_vars(s) == {"x", "y"}


def test_substitute_reaches_an_adhoc_default(inc):
    s = Adhoc(Var("s"), inc)
    assert substitute(s, {"s": ID}) == Adhoc(ID, inc)


# ---------------------------------------------------------------------------
# Rule combination and ad hoc families


def test_family_layers_cases_first_wins(inc):
    other = RuleDef("flip", "Bool", PNode("True"), PNode("False"))
    s = family([inc, other], ID)
    assert s == Adhoc(Adhoc(ID, other), inc)


def test_family_rejects_two_cases_on_one_sort(inc):
    other = RuleDef("dec", "Nat", PNode("Succ", (PVar("n"),)), PVar("n"))
    with pytest.raises(StratkitError, match="inc shadows dec"):
        family([inc, other], ID)


def test_rule_choice_and_seq_validate_their_members(inc):
    flip = RuleDef("flip", "Bool", PNode("True"), PNode("False"))
    with pytest.raises(StratkitError, match="mixes sorts"):
        rule_choice(inc, flip)
    with pytest.raises(StratkitError, match="at least two"):
        rule_seq(inc)
    rc = rule_choice(inc, inc)
    assert rc.name == "rule_choice(inc,inc)"
    assert rc.sort == "Nat"
    assert rule_names(rule_seq(rc, inc)) == ("inc", "inc", "inc")


# ---------------------------------------------------------------------------
# Rule application


def test_apply_rule_basics(sig, rules):
    assert apply_rule(rules["increment"], nat(0), sig) == nat(1)
    assert apply_rule(rules["increment"], Node("True"), sig) is None
    assert apply_rule(rules["dropSucc"], nat(3), sig) == nat(2)
    assert apply_rule(rules["dropSucc"], nat(0), sig) is None


def test_apply_rule_guards(sig, rules):
    assert apply_rule(rules["atEven"], nat(0), sig) == nat(2)
    assert apply_rule(rules["atEven"], nat(1), sig) is None
    assert apply_rule(rules["atOdd"], nat(1), sig) == nat(2)
    assert apply_rule(rules["atOdd"], nat(2), sig) is None


def test_apply_rule_composites(sig, rules):
    total = rule_choice(rules["atEven"], rules["atOdd"])
    for n in range(6):
        assert apply_rule(total, nat(n), sig) is not None
    twice = rule_seq(rules["increment"], rules["increment"])
    assert apply_rule(twice, nat(1), sig) == nat(3)
    broken = rule_seq(rules["increment"], rules["dropSucc"], rules["dropSucc"])
    assert apply_rule(broken, nat(0), sig) is None


def test_literal_guards(company_sig):
    keep = RuleDef("keep", "Salary", PVar("s"), PVar("s"), guard="lit_positive")
    assert apply_rule(keep, Lit(10.0, "Salary"), company_sig) == Lit(10.0, "Salary")
    assert apply_rule(keep, Lit(-1.0, "Salary"), company_sig) is None
    assert apply_rule(keep, Lit(0.0, "Salary"), company_sig) is None


def test_guard_registry_names():
    assert set(GUARDS) == {
        "even_nat",
        "odd_nat",
        "lit_zero",
        "lit_nonzero",
        "lit_positive",
        "lit_negative",
    }


def test_even_guard_walks_deep_spines(sig, rules):
    # parity guard must not recurse
    assert apply_rule(rules["atEven"], nat(150_000), sig) is not None


# ---------------------------------------------------------------------------
# Printing


def test_print_precedence(inc):
    r = RuleRef(inc)
    assert print_strategy(Seq(r, Choice(r, ID))) == "inc ; (inc <+ id)"
    assert print_strategy(Choice(Seq(r, r), ID)) == "inc ; inc <+ id"
    assert print_strategy(Seq(Seq(r, r), r)) == "inc ; inc ; inc"
    assert print_strategy(Seq(r, Seq(r, r))) == "inc ; (inc ; inc)"
    assert print_strategy(All(Choice(r, FAIL))) == "all(inc <+ fail)"
    assert print_strategy(Adhoc(ID, inc)) == "adhoc(id,inc)"


def test_print_rec_binds_loosest(inc):
    s = Seq(Rec("v", Var("v")), ID)
    assert print_strategy(s) == "(rec v. v) ; id"
    assert print_strategy(Rec("v", Seq(Var("v"), ID))) == "rec v. v ; id"
