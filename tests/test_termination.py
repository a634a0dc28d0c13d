"""Termination analysis: relation algebra, rule effects judged from
patterns, the frozen scheme tables, and an empirical check that proven
effect vectors hold on actual runs."""

import itertools
import random
import time

import pytest

import walker_oracle as oracle
from stratkit.errors import EngineError, ParseError
from stratkit.interp import Success, evaluate
from stratkit.laws import GenConfig, builtin_rules, builtin_signature, gen_strategy, gen_term
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
    repeat,
    stop_td,
    try_,
)
from stratkit.termination import (
    ANY,
    DEPTH_MEASURE,
    LEQ,
    LESS,
    Measure,
    lex_admissible,
    parse_measure,
    parse_rel,
    rel_decrease,
    rel_increase,
    rel_leq,
    rel_lub,
    rel_plus,
    rule_effect,
    rule_effect_check,
    show_vec,
    term_type_of,
    verify_annotations,
)
from stratkit.terms import PNode, PVar, count, depth

from stratkit.strategies import rule_choice, rule_seq

RELS = (LESS, LEQ, ANY)


# ---------------------------------------------------------------------------
# Relation algebra, exhaustive


def test_rel_leq_is_a_partial_order():
    for x in RELS:
        assert rel_leq(x, x)
    for x, y in itertools.product(RELS, repeat=2):
        if rel_leq(x, y) and rel_leq(y, x):
            assert x is y
    for x, y, z in itertools.product(RELS, repeat=3):
        if rel_leq(x, y) and rel_leq(y, z):
            assert rel_leq(x, z)


def test_rel_lub_is_the_least_upper_bound():
    for x, y in itertools.product(RELS, repeat=2):
        j = rel_lub(x, y)
        assert rel_leq(x, j) and rel_leq(y, j)
        for z in RELS:
            if rel_leq(x, z) and rel_leq(y, z):
                assert rel_leq(j, z)


def test_rel_plus_algebra():
    for x, y in itertools.product(RELS, repeat=2):
        assert rel_plus(x, y) is rel_plus(y, x)
        assert rel_plus(LEQ, x) is x  # not-increased is the unit
        assert rel_plus(ANY, x) is ANY
    for x, y, z in itertools.product(RELS, repeat=3):
        assert rel_plus(rel_plus(x, y), z) is rel_plus(x, rel_plus(y, z))
    for x, x2, y in itertools.product(RELS, repeat=3):
        if rel_leq(x, x2):
            assert rel_leq(rel_plus(x, y), rel_plus(x2, y))
            assert rel_leq(rel_lub(x, y), rel_lub(x2, y))


def test_decrease_and_increase_bracket_identity():
    assert rel_decrease(LEQ) is LESS
    assert rel_decrease(LESS) is LESS
    assert rel_decrease(ANY) is ANY
    assert rel_increase(LESS) is LEQ
    assert rel_increase(LEQ) is ANY
    for x in RELS:
        # losing one level then regaining one never claims more than x
        assert rel_leq(x, rel_increase(rel_decrease(x)))
        if rel_leq(x, LEQ):
            assert rel_leq(rel_decrease(x), x)


def test_lex_admissibility():
    assert lex_admissible((LESS,))
    assert not lex_admissible((LEQ,))
    assert not lex_admissible((ANY,))
    assert lex_admissible((LESS, ANY))
    assert lex_admissible((LEQ, LESS))
    assert not lex_admissible((ANY, LESS))
    assert not lex_admissible((LEQ, LEQ))


# ---------------------------------------------------------------------------
# Measures


def test_parse_measure_and_roundtrip():
    for text in ("depth", "count:Succ,depth", "count:A,count:B,depth"):
        m = parse_measure(text)
        assert str(m) == text
        assert parse_measure(str(m)) == m
    assert len(parse_measure("count:Succ,depth")) == 2
    assert parse_measure("depth") == DEPTH_MEASURE


MEASURE_ERRORS = [
    # each part is checked in turn, before the place of depth
    ("count:,size", "count component needs a constructor name"),
    ("size,count:", "unknown measure component 'size'"),
    ("size", "unknown measure component 'size'"),
    ("count:,depth", "count component needs a constructor name"),
    ("", "unknown measure component ''"),
    ("count:Succ", "measure must end with the depth component"),
    ("depth,count:Succ", "measure must end with the depth component"),
    ("depth,depth", "depth may appear only once, in last position"),
    ("count:A,depth,depth", "depth may appear only once, in last position"),
]


@pytest.mark.parametrize(
    "text, message", MEASURE_ERRORS, ids=[text or "empty" for text, _ in MEASURE_ERRORS]
)
def test_measure_validation(text, message):
    with pytest.raises(ParseError) as info:
        parse_measure(text)
    assert str(info.value) == message


def test_measure_parts_are_read_without_surrounding_blanks():
    assert str(parse_measure("count: Succ ,depth")) == "count:Succ,depth"
    assert parse_measure("count: Succ ,depth") == parse_measure("count:Succ,depth")


def test_parse_rel_and_show_vec():
    assert parse_rel(" Less ") is LESS
    with pytest.raises(ParseError, match="unknown measure relation"):
        parse_rel("smaller")
    assert show_vec(None) == "NOT PROVEN"
    assert show_vec((LESS, ANY)) == "[Less,Any]"


# ---------------------------------------------------------------------------
# Rule effects from patterns

SUCC_DEPTH = parse_measure("count:Succ,depth")


def test_builtin_rule_effects(rules):
    assert rule_effect_check(rules["increment"], DEPTH_MEASURE) == (ANY,)
    assert rule_effect_check(rules["dropSucc"], DEPTH_MEASURE) == (LESS,)
    assert rule_effect_check(rules["atEven"], DEPTH_MEASURE) == (ANY,)
    assert rule_effect_check(rules["increment"], SUCC_DEPTH) == (ANY, ANY)
    assert rule_effect_check(rules["dropSucc"], SUCC_DEPTH) == (LESS, LESS)
    zero_depth = parse_measure("count:Zero,depth")
    assert rule_effect_check(rules["increment"], zero_depth) == (LEQ, ANY)


def test_variable_duplication_defeats_count_decrease():
    n = PVar("n")
    dup = RuleDef("dup", "Nat", PNode("Succ", (n,)), PNode("Pair", (n, n)))
    assert rule_effect_check(dup, SUCC_DEPTH) == (ANY, LEQ)


def test_identity_rule_is_leq():
    keep = RuleDef("keep", "Nat", PVar("n"), PVar("n"))
    assert rule_effect_check(keep, SUCC_DEPTH) == (LEQ, LEQ)


def test_composite_rule_effects(rules):
    both = rule_choice(rules["increment"], rules["dropSucc"])
    assert rule_effect(both, DEPTH_MEASURE) == (ANY,)
    twice = rule_seq(rules["dropSucc"], rules["dropSucc"])
    assert rule_effect(twice, DEPTH_MEASURE) == (LESS,)


def test_claims_override_only_when_they_fit(rules):
    claimed = RuleDef(
        "c", "Nat", PVar("n"), PNode("Succ", (PVar("n"),)), effect_claim=(ANY,)
    )
    assert rule_effect(claimed, DEPTH_MEASURE) == (ANY,)
    # wrong arity: the claim is ignored, the checked effect used
    wrong = RuleDef(
        "w", "Nat", PNode("Succ", (PVar("n"),)), PVar("n"),
        effect_claim=(LESS, ANY),
    )
    assert rule_effect(wrong, DEPTH_MEASURE) == (LESS,)


def test_verify_annotations(rules):
    ok = RuleDef(
        "ok", "Nat", PNode("Succ", (PVar("n"),)), PVar("n"), effect_claim=(LEQ,)
    )
    assert verify_annotations([ok], DEPTH_MEASURE) == []  # weaker claim is fine
    bad = RuleDef(
        "bad", "Nat", PVar("n"), PNode("Succ", (PVar("n"),)), effect_claim=(LESS,)
    )
    msgs = verify_annotations([bad, ok], DEPTH_MEASURE)
    assert len(msgs) == 1
    assert "claims [Less]" in msgs[0] and "only support [Any]" in msgs[0]
    short = RuleDef(
        "short", "Nat", PVar("n"), PVar("n"), effect_claim=(LEQ, LEQ)
    )
    msgs = verify_annotations([short], DEPTH_MEASURE)
    assert len(msgs) == 1 and "components" in msgs[0]


# ---------------------------------------------------------------------------
# The frozen scheme tables

DEPTH_TABLE = {
    "full_bu": ((ANY,), (LEQ,), (LESS,)),
    "full_td": (None, (LEQ,), (LEQ,)),
    "stop_td": ((ANY,), (LEQ,), (LEQ,)),
    "once_bu": ((ANY,), (LEQ,), (LEQ,)),
    "repeat": (None, None, (LEQ,)),
    "innermost": (None, None, None),
}

SCHEMES = {
    "full_bu": full_bu,
    "full_td": full_td,
    "stop_td": stop_td,
    "once_bu": once_bu,
    "repeat": repeat,
    "innermost": innermost,
}


@pytest.mark.parametrize("name", sorted(DEPTH_TABLE))
def test_scheme_depth_row(name):
    s = SCHEMES[name](Var("s"))
    for arg, want in zip((ANY, LEQ, LESS), DEPTH_TABLE[name]):
        env = {"s": ((arg,), False)}
        assert term_type_of(s, DEPTH_MEASURE, env) == want


COMPOUND_TABLE = {
    "full_td": (LESS, ANY),
    "once_bu": (LESS, ANY),
    "repeat": (LEQ, ANY),
    "innermost": (LEQ, ANY),
}


@pytest.mark.parametrize("name", sorted(COMPOUND_TABLE))
def test_scheme_compound_row(name):
    s = SCHEMES[name](Var("s"))
    env = {"s": ((LESS, ANY), False)}
    assert term_type_of(s, SUCC_DEPTH, env) == COMPOUND_TABLE[name]


def test_concrete_programs(rules):
    assert term_type_of(full_td(Adhoc(ID, rules["increment"])), DEPTH_MEASURE) is None
    assert term_type_of(stop_td(Adhoc(FAIL, rules["increment"])), DEPTH_MEASURE) == (ANY,)
    assert term_type_of(repeat(RuleRef(rules["dropSucc"])), DEPTH_MEASURE) == (LEQ,)
    assert term_type_of(full_bu(RuleRef(rules["dropSucc"])), DEPTH_MEASURE) == (LESS,)
    assert term_type_of(innermost(RuleRef(rules["dropSucc"])), DEPTH_MEASURE) is None


def test_child_combinators_shift_only_the_depth_component(rules):
    drop = RuleRef(rules["dropSucc"])
    assert term_type_of(All(drop), DEPTH_MEASURE) == (LEQ,)
    assert term_type_of(One(drop), DEPTH_MEASURE) == (LEQ,)
    assert term_type_of(All(RuleRef(rules["increment"])), DEPTH_MEASURE) == (ANY,)


def test_one_keeps_count_strictness_but_all_does_not(rules):
    # all(dropSucc) succeeds unchanged on Zero, so Less on the count
    # would be a lie; one(dropSucc) fails on leaves and must fire.
    drop = RuleRef(rules["dropSucc"])
    assert term_type_of(All(drop), SUCC_DEPTH) == (LEQ, LEQ)
    assert term_type_of(One(drop), SUCC_DEPTH) == (LESS, LEQ)


NESTABLE = (full_td, full_bu, once_td, once_bu, stop_td, innermost, repeat, try_)


def test_every_pair_of_nested_schemes_matches_the_candidate_search(rules):
    # the oracle tries every vector at a rec; the fixpoint must land on
    # the first one that holds, or find that none does
    drop = rules["dropSucc"]
    leaves = (
        Adhoc(ID, drop),
        Adhoc(FAIL, drop),
        Adhoc(FAIL, rules["increment"]),
        RuleRef(drop),
        Choice(Adhoc(FAIL, rules["flipTrue"]), Adhoc(ID, drop)),
    )
    seen = set()
    for outer, inner, leaf, m in itertools.product(
        NESTABLE, NESTABLE, leaves, (DEPTH_MEASURE, SUCC_DEPTH)
    ):
        s = outer(inner(leaf))
        got = term_type_of(s, m)
        assert got == oracle.term_type_of(s, m), (outer, inner, leaf, m)
        seen.add(got)
    assert None in seen and len(seen) >= 6  # the table is not vacuous


def test_a_twelve_level_ladder_is_analysed_quickly(rules):
    m = parse_measure("count:Succ,count:Node,depth")
    s = Adhoc(FAIL, rules["dropSucc"])
    for level in range(1, 13):
        s = full_td(s)
        if level == 2:
            assert term_type_of(s, m) == oracle.term_type_of(s, m)
    start = time.perf_counter()
    assert term_type_of(s, m) == (LESS, LEQ, LEQ)
    # a level costs the candidate search about 4x (some 20 minutes at
    # 12 levels) and the fixpoint about 2x (well under 1 s)
    assert time.perf_counter() - start < 20


def test_env_errors():
    with pytest.raises(EngineError, match="unbound"):
        term_type_of(Var("ghost"), DEPTH_MEASURE)
    with pytest.raises(EngineError, match="components"):
        term_type_of(Var("s"), DEPTH_MEASURE, {"s": ((LEQ, LEQ), False)})


# ---------------------------------------------------------------------------
# Empirical soundness: a proven vector holds on real runs


def _measure_value(m, t):
    out = []
    for constr in m.counts:
        out.append(count(constr, t))
    out.append(depth(t))
    return out


def _component_holds(rel, before, after):
    if rel is LEQ:
        return after <= before
    if rel is LESS:
        return after < before
    return True


def test_proven_vectors_hold_on_ten_thousand_runs():
    sig = builtin_signature()
    rules = builtin_rules()
    cfg = GenConfig()
    rng = random.Random(20260823)
    wrappers = (lambda x: x, stop_td, once_bu, full_bu, repeat, try_)
    measures = (DEPTH_MEASURE, SUCC_DEPTH)
    runs = 0
    proven = 0
    attempts = 0
    while runs < 10_000:
        attempts += 1
        assert attempts < 200_000, "sampler starved"
        base = gen_strategy(rules, rng, rng.randint(1, cfg.max_strategy_size))
        s = rng.choice(wrappers)(base)
        m = rng.choice(measures)
        vec = term_type_of(s, m)
        t = gen_term(sig, rng, rng.randint(1, 4))
        runs += 1
        if vec is None:
            continue
        proven += 1
        out = evaluate(s, t, sig, fuel=20_000)
        if isinstance(out, Success):
            before = _measure_value(m, t)
            after = _measure_value(m, out.term)
            for rel, b, a in zip(vec, before, after):
                assert _component_holds(rel, b, a), (
                    f"{show_vec(vec)} violated by {s!r} on {t!r}"
                )
    # the invariant must not pass vacuously
    assert proven > 2_000
