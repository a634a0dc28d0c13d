"""The randomized law harness: generator contracts, determinism, the
law table itself, and hand-verified witnesses for the three non-laws."""

import itertools
import random

import pytest

import stratkit.laws as laws
from stratkit.interp import CompiledStrategy, Failure, Success
from stratkit.laws import (
    LAWS,
    NONLAWS,
    GenConfig,
    Law,
    builtin_rules,
    builtin_signature,
    check_laws,
    check_scheme_properties,
    check_soundness,
    find_nonlaw_counterexamples,
    gen_constant_term,
    gen_nonconstant_term,
    gen_strategy,
    gen_term,
)
from stratkit.strategies import FAIL, ID, Choice, RuleRef, Seq
from stratkit.terms import Node, depth, sort_of, validate_term

SMALL = GenConfig(cases=150)


def _eval(s, t, sig, fuel=2000):
    return CompiledStrategy(s, sig).run(t, fuel)


# ---------------------------------------------------------------------------
# Generators


def test_gen_term_is_well_sorted_and_bounded(sig, rng):
    for _ in range(300):
        t = gen_term(sig, rng, 4)
        assert sort_of(sig, t) in sig.sorts
        validate_term(sig, t)
        assert depth(t) <= 4


def test_gen_term_honours_a_requested_sort(sig, rng):
    for _ in range(50):
        assert sort_of(sig, gen_term(sig, rng, 3, "NatTree")) == "NatTree"


def test_constant_and_nonconstant_generators(sig, rng):
    for _ in range(100):
        assert not gen_constant_term(sig, rng).children
        assert gen_nonconstant_term(sig, rng, 4).children


def test_gen_strategy_size_one_is_a_leaf(rules, rng):
    pool = list(rules.values())
    for _ in range(100):
        s = gen_strategy(pool, rng, 1)
        assert s == ID or s == FAIL or isinstance(s, RuleRef)


def test_seeded_runs_are_reproducible(sig, rules):
    pool = list(rules.values())
    cfg = GenConfig(cases=60)
    a = [r.line() for r in check_laws(sig, pool, cfg)]
    b = [r.line() for r in check_laws(sig, pool, cfg)]
    assert a == b
    assert check_soundness(sig, pool, cfg, runs=200) == check_soundness(
        sig, pool, cfg, runs=200
    )


# ---------------------------------------------------------------------------
# The law table


def test_law_table_shape():
    assert len(LAWS) == 17
    assert len({law.name for law in LAWS}) == 17
    assert {law.term_condition for law in LAWS} == {None, "constant", "nonconstant"}


def test_all_laws_hold(sig, rules):
    results = check_laws(sig, list(rules.values()), SMALL)
    assert [r.name for r in results] == [law.name for law in LAWS]
    for r in results:
        assert r.passed, r.line()
        assert r.counterexample is None
        assert r.line() == f"LAW {r.name} PASS"
        assert r.discards / r.cases < 0.10, r.line()


def test_a_false_law_fails_with_a_shrunk_case(sig, rules, monkeypatch):
    bogus = Law(
        "bogus-choice-commutes",
        2,
        None,
        lambda a, b: Choice(a, b),
        lambda a, b: Choice(b, a),
    )
    monkeypatch.setattr(laws, "LAWS", (bogus,))
    (r,) = check_laws(sig, list(rules.values()), SMALL)
    assert not r.passed
    assert r.counterexample and "s1=" in r.counterexample and "t=" in r.counterexample
    assert r.line().startswith("LAW bogus-choice-commutes FAIL")


# ---------------------------------------------------------------------------
# Non-laws

ZERO = Node("Zero")


#: the smallest counterexample of each non-law, in the search's order
NONLAW_LINES = [
    "NONLAW seq-commutative COUNTEREXAMPLE s1=increment s2=dropSucc t=(Zero)"
    " left=(Zero) right=FAIL",
    "NONLAW choice-commutative COUNTEREXAMPLE s1=id s2=increment t=(Zero)"
    " left=(Zero) right=(Succ (Zero))",
    "NONLAW seq-right-dist COUNTEREXAMPLE s1=id s2=increment s3=dropSucc"
    " t=(Zero) left=FAIL right=(Zero)",
]


def test_nonlaw_search_finds_all_three(sig, rules):
    results = find_nonlaw_counterexamples(sig, list(rules.values()))
    assert [r.name for r in results] == [n.name for n in NONLAWS]
    assert [r.line() for r in results] == NONLAW_LINES


@pytest.mark.parametrize("slots, stride", [(2, 1), (3, 5)])
def test_candidates_are_the_product_stably_sorted_by_size(rules, slots, stride):
    # The lazy enumeration must try candidates in exactly the order of
    # sorting the whole product by total size (sorted() is stable).
    # Every 5th element of the universe still mixes all three sizes.
    universe = laws._strategy_universe(list(rules.values()))[::stride]
    product = itertools.product(universe, repeat=slots)
    expected = sorted(product, key=lambda ts: sum(n for n, _ in ts))
    assert list(laws._candidates(universe, slots)) == [
        tuple(s for _, s in ts) for ts in expected
    ]


def test_hand_picked_witnesses_refute_each_nonlaw(sig, rules):
    inc = RuleRef(rules["increment"])
    drop = RuleRef(rules["dropSucc"])

    # seq is not commutative: increment;dropSucc succeeds on Zero,
    # dropSucc;increment does not
    assert isinstance(_eval(Seq(inc, drop), ZERO, sig), Success)
    assert isinstance(_eval(Seq(drop, inc), ZERO, sig), Failure)

    # choice is not commutative: the left branch is preferred
    left = _eval(Choice(ID, inc), ZERO, sig)
    right = _eval(Choice(inc, ID), ZERO, sig)
    assert left.term == ZERO
    assert right.term == Node("Succ", (ZERO,))

    # seq does not distribute over choice on the right: committed
    # choice cannot backtrack into the second branch
    lhs = _eval(Seq(Choice(ID, inc), drop), ZERO, sig)
    rhs = _eval(Choice(Seq(ID, drop), Seq(inc, drop)), ZERO, sig)
    assert isinstance(lhs, Failure)
    assert isinstance(rhs, Success) and rhs.term == ZERO


# ---------------------------------------------------------------------------
# Scheme properties and empirical soundness


def test_scheme_properties_smoke(sig, rules):
    results = check_scheme_properties(sig, list(rules.values()), GenConfig(cases=80))
    assert {r.name for r in results} == {
        "stop_td-never-fails",
        "innermost-never-fails",
        "full_td-infallible-arg",
        "full_bu-infallible-arg",
        "once_td-failure-witnessed",
        "once_bu-failure-witnessed",
        "stop_bu-deep-identity",
    }
    for r in results:
        assert r.passed, r.line()
        assert r.line() == f"PROPERTY {r.name} PASS"


def test_soundness_smoke(sig, rules):
    result = check_soundness(sig, list(rules.values()), GenConfig(cases=60), runs=300)
    assert result.failures == 0
    assert result.runs == 300
    assert "typed-infallible-never-fails PASS" in result.line()


def test_builtin_corpus_is_reusable():
    s1 = builtin_signature()
    s2 = builtin_signature()
    assert s1.sorts == s2.sorts
    assert [r.name for r in builtin_rules()] == [
        "increment",
        "dropSucc",
        "atEven",
        "atOdd",
        "flipTrue",
    ]
