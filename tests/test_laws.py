"""The law harness: generator contracts, determinism, the size-ordered
case stream, the law table itself, and hand-verified witnesses for the
three non-laws."""

import itertools
import random
import re

import pytest

import stratkit.laws as laws
from stratkit.interp import Failure, FuelExhausted, Success, evaluate
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
    gen_constant_term,
    gen_nonconstant_term,
    gen_strategy,
    gen_term,
)
from stratkit.files import term_to_sexpr
from stratkit.strategies import FAIL, ID, Choice, RuleRef, Seq, print_strategy
from stratkit.terms import Node, depth, sort_of, validate_term


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


def test_a_signature_keeps_its_least_term_depths():
    sig = builtin_signature()
    depths = sig.min_depths
    lists = {"[NatTree]": 1, "[BoolTree]": 1}
    assert depths == {"Nat": 1, "Bool": 1, "NatTree": 2, "BoolTree": 2, **lists}
    gen_term(sig, random.Random(1), 3)
    assert sig.min_depths is depths


def test_constant_and_nonconstant_generators(sig, rng):
    for _ in range(100):
        assert not gen_constant_term(sig, rng).children
        assert gen_nonconstant_term(sig, rng, 4).children


def test_gen_strategy_size_one_is_a_leaf(rules, rng):
    pool = list(rules.values())
    for _ in range(100):
        s = gen_strategy(pool, rng, 1)
        assert s == ID or s == FAIL or isinstance(s, RuleRef)


def _stream(law, sig, pool, seed, n):
    """The first n cases of law's stream, as text."""
    return [
        (tuple(print_strategy(s) for s in strategies), term_to_sexpr(t))
        for strategies, t in itertools.islice(laws._cases(law, sig, pool, seed), n)
    ]


def test_seeded_runs_are_reproducible(sig, rules):
    pool = list(rules.values())
    # past the 770 small cases of a 1-slot law, into its random draws
    cfg = GenConfig(cases=900)
    a = [(r.line(), r.discards) for r in check_laws(sig, pool, cfg)]
    b = [(r.line(), r.discards) for r in check_laws(sig, pool, cfg)]
    assert a == b
    first = _stream(LAWS[0], sig, pool, 2026, 900)
    assert _stream(LAWS[0], sig, pool, 2026, 900) == first
    # another seed changes the draws only, not the small universe
    other = _stream(LAWS[0], sig, pool, 7, 900)
    assert other[:770] == first[:770] and other[770:] != first[770:]
    assert check_soundness(sig, pool, cfg, runs=200) == check_soundness(
        sig, pool, cfg, runs=200
    )


# ---------------------------------------------------------------------------
# The case stream


def test_the_stream_starts_with_the_small_universe_in_size_order(sig, rules):
    pool = list(rules.values())
    universe = laws._strategy_universe(pool)
    assert len(universe) == 154  # with adhoc(a, r) among the size-2 shapes
    terms = laws._term_universe()
    law = LAWS[0]
    assert (law.slots, law.term_condition) == (1, None)
    n = len(universe) * len(terms)
    head = list(itertools.islice(laws._cases(law, sig, pool, 2026), n + 1))
    assert head[:n] == [
        (strategies, t) for strategies in laws._candidates(universe, 1) for t in terms
    ]
    # then the law's own seeded draws
    rng = random.Random(f"2026:{law.name}")
    strategies, t = head[n]
    assert strategies == (laws._draw(pool, rng),)
    assert t == laws._gen_case_term(law, sig, rng)


@pytest.mark.parametrize(
    "condition, terms",
    [
        ("constant", ["(Zero)", "(True)"]),
        ("nonconstant", ["(Succ (Zero))", "(Succ (Succ (Zero)))", "(Node (Zero) (Nil_NatTree))"]),
    ],
)
def test_a_conditioned_law_sees_only_the_small_terms_that_meet_it(
    sig, rules, condition, terms
):
    pool = list(rules.values())
    universe = laws._strategy_universe(pool)
    conditioned = [law for law in LAWS if law.term_condition == condition]
    assert conditioned
    for law in conditioned:
        tuples = len(list(laws._candidates(universe, law.slots)))
        head = _stream(law, sig, pool, 2026, tuples * len(terms))
        assert [t for _, t in head] == terms * tuples, law.name


# ---------------------------------------------------------------------------
# The law table


def test_law_table_shape():
    assert len(LAWS) == 17
    assert len({law.name for law in LAWS}) == 17
    assert {law.term_condition for law in LAWS} == {None, "constant", "nonconstant"}


@pytest.mark.parametrize("seed", [1, 7, 99, 2026])
def test_all_laws_hold(sig, rules, seed):
    results = check_laws(sig, list(rules.values()), GenConfig(seed=seed, cases=1000))
    assert [r.name for r in results] == [law.name for law in LAWS]
    for r in results:
        assert r.passed, r.line()
        assert (r.kind, r.detail) == ("LAW", "")
        assert r.line() == f"LAW {r.name} PASS"
        assert r.discards / r.cases < 0.10, r.line()


#: the smallest counterexample of each non-law, in the search's order
NONLAW_LINES = [
    "NONLAW seq-commutative COUNTEREXAMPLE s1=increment s2=dropSucc t=(Zero)"
    " left=(Zero) right=FAIL",
    "NONLAW choice-commutative COUNTEREXAMPLE s1=id s2=increment t=(Zero)"
    " left=(Zero) right=(Succ (Zero))",
    "NONLAW seq-right-dist COUNTEREXAMPLE s1=id s2=increment s3=dropSucc"
    " t=(Zero) left=FAIL right=(Zero)",
]


@pytest.mark.parametrize(
    "nonlaw, line", zip(NONLAWS, NONLAW_LINES), ids=[n.name for n in NONLAWS]
)
def test_a_false_law_fails_with_its_smallest_counterexample(
    sig, rules, monkeypatch, nonlaw, line
):
    # checked as a law, a non-law fails on the case its search finds
    monkeypatch.setattr(laws, "LAWS", (nonlaw,))
    (r,) = check_laws(sig, list(rules.values()), GenConfig(cases=100))
    counterexample = line.split(" COUNTEREXAMPLE ")[1]
    assert (r.passed, r.detail) == (False, counterexample)
    assert r.line() == f"LAW {nonlaw.name} FAIL {counterexample}"


# ---------------------------------------------------------------------------
# Non-laws

ZERO = Node("Zero")


def test_nonlaw_search_finds_all_three(sig, rules):
    assert {n.term_condition for n in NONLAWS} == {None}
    results = find_nonlaw_counterexamples(sig, list(rules.values()))
    assert [r.name for r in results] == [n.name for n in NONLAWS]
    assert [r.line() for r in results] == NONLAW_LINES
    assert all(r.passed for r in results)


def test_a_nonlaw_without_counterexample_fails(sig, rules, monkeypatch):
    # a true equality searched as a non-law: no counterexample exists
    monkeypatch.setattr(laws, "NONLAWS", LAWS[:1])
    (r,) = find_nonlaw_counterexamples(sig, list(rules.values()))
    assert r.counterexample is None and not r.passed
    assert r.line() == "NONLAW seq-unit-left NO-COUNTEREXAMPLE"
    # the verdict follows the field, as for a result edited in place
    r.counterexample = "x"
    assert r.passed


@pytest.mark.parametrize("slots, stride", [(0, 1), (1, 1), (2, 1), (3, 5)])
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
    assert isinstance(evaluate(Seq(inc, drop), ZERO, sig), Success)
    assert isinstance(evaluate(Seq(drop, inc), ZERO, sig), Failure)

    # choice is not commutative: the left branch is preferred
    left = evaluate(Choice(ID, inc), ZERO, sig)
    right = evaluate(Choice(inc, ID), ZERO, sig)
    assert left.term == ZERO
    assert right.term == Node("Succ", (ZERO,))

    # seq does not distribute over choice on the right: committed
    # choice cannot backtrack into the second branch
    lhs = evaluate(Seq(Choice(ID, inc), drop), ZERO, sig)
    rhs = evaluate(Choice(Seq(ID, drop), Seq(inc, drop)), ZERO, sig)
    assert isinstance(lhs, Failure)
    assert isinstance(rhs, Success) and rhs.term == ZERO


# ---------------------------------------------------------------------------
# Scheme properties and empirical soundness


SCHEME_PROPERTIES = (
    "stop_td-never-fails",
    "innermost-never-fails",
    "full_td-infallible-arg",
    "full_bu-infallible-arg",
    "once_td-failure-witnessed",
    "once_bu-failure-witnessed",
    "stop_bu-deep-identity",
)


def test_scheme_properties_smoke(sig, rules):
    results = check_scheme_properties(sig, list(rules.values()), GenConfig(cases=80))
    assert [r.name for r in results] == list(SCHEME_PROPERTIES)
    for r in results:
        assert r.passed, r.line()
        assert r.line() == f"PROPERTY {r.name} PASS"


#: discards of innermost-never-fails and full_td-infallible-arg at 300
#: cases per seed; every other property has none, and all pass
PINNED_DISCARDS = {2026: (165, 48), 1: (168, 40), 7: (168, 39), 99: (163, 32)}


@pytest.mark.parametrize("seed", sorted(PINNED_DISCARDS))
def test_scheme_property_results_are_pinned(sig, rules, seed):
    # the draws of each property come from its own labelled generator,
    # so these numbers change only if a label or the draw order does
    results = check_scheme_properties(
        sig, list(rules.values()), GenConfig(seed=seed, cases=300)
    )
    innermost, full_td = PINNED_DISCARDS[seed]
    discards = dict.fromkeys(SCHEME_PROPERTIES, 0)
    discards["innermost-never-fails"] = innermost
    discards["full_td-infallible-arg"] = full_td
    assert [(r.kind, r.name, r.passed, r.cases, r.discards, r.detail) for r in results] == [
        ("PROPERTY", name, True, 300, n, "") for name, n in discards.items()
    ]


WITNESSED = {"once_td-failure-witnessed", "once_bu-failure-witnessed"}


@pytest.mark.parametrize(
    "outcome, passing, discards",
    [
        # every run fails: a counterexample for each predicate, and a
        # witness for each fallible scheme at the first case
        (Failure(), WITNESSED, 0),
        # every run returns its term: the fallible schemes miss a witness
        (None, set(SCHEME_PROPERTIES) - WITNESSED, 0),
        # every run is discarded: nothing refutes, nothing witnesses
        (FuelExhausted(5), set(SCHEME_PROPERTIES) - WITNESSED, 20),
    ],
)
def test_scheme_properties_report_counterexamples_and_missing_witnesses(
    sig, rules, monkeypatch, outcome, passing, discards
):
    monkeypatch.setattr(
        laws, "evaluate", lambda s, t, sig, fuel: outcome or Success(t)
    )
    results = check_scheme_properties(sig, list(rules.values()), GenConfig(cases=20))
    assert [r.name for r in results] == list(SCHEME_PROPERTIES)
    for r in results:
        assert r.passed == (r.name in passing), r.line()
        assert (r.cases, r.discards) == (20, discards)
        if r.passed or r.name in WITNESSED:
            assert r.detail == ""
            assert r.line() == f"PROPERTY {r.name} {'PASS' if r.passed else 'FAIL'}"
        else:
            # the first generated case, with its argument as the scheme got it
            assert re.fullmatch(r"s1=.+ t=\(.+\)", r.detail), r.detail
            assert r.line() == f"PROPERTY {r.name} FAIL {r.detail}"
            assert (" <+ id t=" in r.detail) == r.name.startswith("full_")


def test_soundness_smoke(sig, rules):
    result = check_soundness(sig, list(rules.values()), GenConfig(cases=60), runs=300)
    assert result.failures == 0 and result.passed
    assert result.runs == 300
    assert "typed-infallible-never-fails PASS" in result.line()
    result.failures = 1
    assert not result.passed
    assert "typed-infallible-never-fails FAIL" in result.line()


def test_only_seed_and_cases_are_settable():
    assert GenConfig.__match_args__ == ("seed", "cases")
    cfg = GenConfig(seed=1, cases=2)
    assert (cfg.max_term_depth, cfg.max_strategy_size, cfg.fuel) == (5, 7, 2000)
    with pytest.raises(TypeError):
        GenConfig(fuel=10)


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
