"""Success/failure analysis: lattice algebra, the frozen scheme tables,
and agreement between the abstract values and actual engine behaviour."""

import itertools
import sys
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from genlib import strategy_exprs, terms
from stratkit.errors import EngineError
from stratkit.fallibility import (
    Sf,
    rule_infallible,
    scan_dead_choices,
    sf_analyse,
    sf_choice,
    sf_leq,
    sf_lub,
    sf_seq,
    sf_type_of,
)
from stratkit.interp import Failure, FuelExhausted, evaluate
from stratkit.strategies import (
    FAIL,
    ID,
    Adhoc,
    All,
    Choice,
    One,
    Rec,
    RuleDef,
    RuleRef,
    Seq,
    Var,
    fix_eq,
    full_bu,
    full_td,
    innermost,
    once_bu,
    once_td,
    stop_td,
    try_,
)
from stratkit.terms import PNode, PVar

NONE, FS, EF, ANY = Sf.NONE, Sf.FORALL_SUCCESS, Sf.EXISTS_FAILURE, Sf.ANY
POINTS = (NONE, FS, EF, ANY)

SCHEMES = {
    "full_bu": full_bu,
    "full_td": full_td,
    "once_bu": once_bu,
    "once_td": once_td,
    "stop_td": stop_td,
    "innermost": innermost,
}

# ---------------------------------------------------------------------------
# Frozen tables

SF_TABLE = {
    "full_bu": (NONE, NONE, NONE),
    "full_td": (NONE, EF, ANY),
    "once_bu": (FS, ANY, ANY),
    "once_td": (FS, ANY, ANY),
    "stop_td": (FS, NONE, NONE),
    "innermost": (FS, FS, FS),
}

TYPE_TABLE = {
    "full_bu": (False, True),
    "full_td": (False, True),
    "once_bu": (False, True),
    "once_td": (False, True),
    "stop_td": (True, True),
    "innermost": (True, True),
}


@pytest.mark.parametrize("name", sorted(SF_TABLE))
def test_scheme_sf_row(name):
    s = SCHEMES[name](Var("s"))
    for arg, want in zip((FS, EF, ANY), SF_TABLE[name]):
        assert sf_analyse(s, {"s": arg}) is want


@pytest.mark.parametrize("name", sorted(TYPE_TABLE))
def test_scheme_type_row(name):
    s = SCHEMES[name](Var("s"))
    for arg, want in zip((False, True), TYPE_TABLE[name]):
        assert sf_type_of(s, {"s": arg}) is want


# ---------------------------------------------------------------------------
# Lattice algebra, exhaustive over the four points


def test_sf_leq_is_a_partial_order():
    for x in POINTS:
        assert sf_leq(x, x)
    for x, y in itertools.product(POINTS, repeat=2):
        if sf_leq(x, y) and sf_leq(y, x):
            assert x is y
    for x, y, z in itertools.product(POINTS, repeat=3):
        if sf_leq(x, y) and sf_leq(y, z):
            assert sf_leq(x, z)


def test_sf_lub_is_the_least_upper_bound():
    for x, y in itertools.product(POINTS, repeat=2):
        j = sf_lub(x, y)
        assert sf_leq(x, j) and sf_leq(y, j)
        for z in POINTS:
            if sf_leq(x, z) and sf_leq(y, z):
                assert sf_leq(j, z)


def test_sf_seq_is_monotone():
    for x, x2, y, y2 in itertools.product(POINTS, repeat=4):
        if sf_leq(x, x2) and sf_leq(y, y2):
            assert sf_leq(sf_seq(x, y), sf_seq(x2, y2))


def test_sf_choice_is_monotone_away_from_bottom():
    # sf_choice is deliberately not monotone at NONE: the either-side-
    # infallible clause outranks bottom absorption, so choice(NONE, FS)
    # is FS while choice(NONE, ANY) is NONE. The repeat/innermost rows
    # need exactly that during fixpoint iteration. Away from NONE the
    # usual monotonicity holds.
    sub = (FS, EF, ANY)
    for x, x2, y, y2 in itertools.product(sub, repeat=4):
        if sf_leq(x, x2) and sf_leq(y, y2):
            assert sf_leq(sf_choice(x, y), sf_choice(x2, y2))
    assert sf_choice(NONE, FS) is FS
    assert sf_choice(FS, NONE) is FS
    assert sf_choice(NONE, ANY) is NONE


def test_transfer_function_spot_values():
    assert sf_seq(NONE, EF) is NONE
    assert sf_seq(FS, FS) is FS
    assert sf_seq(FS, EF) is ANY
    assert sf_seq(EF, FS) is EF
    assert sf_choice(EF, FS) is FS
    assert sf_choice(EF, EF) is ANY
    assert sf_choice(NONE, EF) is NONE


def _monotone_functions():
    """All monotone Sf -> Sf maps, by brute enumeration."""
    for images in itertools.product(POINTS, repeat=4):
        f = dict(zip(POINTS, images))
        if all(
            sf_leq(f[x], f[y])
            for x, y in itertools.product(POINTS, repeat=2)
            if sf_leq(x, y)
        ):
            yield f


def _least_fixpoint(f, call=lambda x: x):
    """fix_eq on a plain map: each call it yields, x, is answered by f[x]."""
    calls = fix_eq(call, NONE)
    x = next(calls)
    while True:
        try:
            x = calls.send(f[x])
        except StopIteration as done:
            return done.value


def test_fix_eq_finds_the_least_fixpoint_of_every_monotone_map():
    checked = 0
    for f in _monotone_functions():
        got = _least_fixpoint(f)
        assert f[got] is got
        for other in POINTS:
            if f[other] is other:
                assert sf_leq(got, other)
        checked += 1
    assert checked > 20  # the enumeration is not vacuous


def test_fix_eq_stops_at_a_none_result():
    # None is the top: the iteration ends there, without asking f(None)
    f = {NONE: FS, FS: None}
    asked = []

    def call(x):
        asked.append(x)
        return x

    assert _least_fixpoint(f, call) is None
    assert asked == [NONE, FS]


# ---------------------------------------------------------------------------
# Rules as leaves


def test_rule_infallibility_requirements(rules):
    assert rule_infallible(rules["increment"])
    assert not rule_infallible(rules["dropSucc"])  # unannotated
    assert not rule_infallible(rules["atEven"])  # guarded
    marked = RuleDef(
        "m", "Nat", PNode("Succ", (PVar("n"),)), PVar("n"), infallible=True
    )
    assert not rule_infallible(marked)  # pattern left side


def test_adhoc_merge(rules):
    # a bare rule is adhoc(fail, r): it fails on every other sort
    assert sf_analyse(RuleRef(rules["increment"])) is EF
    assert sf_analyse(Choice(RuleRef(rules["increment"]), FAIL)) is ANY
    assert sf_analyse(RuleRef(rules["dropSucc"])) is EF
    assert sf_analyse(All(Var("s")), {"s": NONE}) is NONE
    assert sf_analyse(Adhoc(ID, rules["increment"])) is FS
    assert sf_analyse(Adhoc(ID, rules["dropSucc"])) is EF
    assert sf_analyse(Adhoc(FAIL, rules["increment"])) is EF
    assert sf_analyse(Adhoc(Var("s"), rules["increment"]), {"s": NONE}) is NONE


def test_unbound_variables_are_engine_errors():
    with pytest.raises(EngineError, match="unbound"):
        sf_analyse(Var("ghost"))
    with pytest.raises(EngineError, match="unbound"):
        sf_type_of(Var("ghost"))
    # wherever the variable sits, typing and the scan raise at it
    with pytest.raises(EngineError, match="unbound strategy variable 'x'"):
        scan_dead_choices(Seq(Var("x"), ID))
    with pytest.raises(EngineError, match="unbound strategy variable 'x'"):
        sf_type_of(Choice(Choice(ID, ID), Var("x")), strict=True)
    with pytest.raises(EngineError, match="unbound strategy variable 'x'"):
        sf_type_of(Seq(Choice(ID, ID), Var("x")), strict=True)


# ---------------------------------------------------------------------------
# Strict mode and the dead-choice scan


@given(strategy_exprs())
def test_strict_mode_rejects_identity_guarded_choice(s):
    assert sf_type_of(Choice(ID, s), strict=True) is None
    assert sf_type_of(Choice(try_(FAIL), s), strict=True) is None


def test_strict_mode_still_types_useful_choices(rules):
    s = Choice(RuleRef(rules["dropSucc"]), ID)
    assert sf_type_of(s, strict=True) is True
    assert sf_type_of(Seq(FAIL, Choice(ID, FAIL))) is False
    assert sf_type_of(Seq(FAIL, Choice(ID, FAIL)), strict=True) is None


def test_scan_reports_paths_from_the_root(rules):
    assert scan_dead_choices(Choice(ID, FAIL)) == [("root", "id")]
    s = Seq(All(Choice(ID, FAIL)), One(Choice(FAIL, ID)))
    assert scan_dead_choices(s) == [("left/body", "id")]
    # a bare rule fails on every other sort, so its choice is alive
    inc = RuleRef(rules["increment"])
    assert scan_dead_choices(Choice(inc, FAIL)) == []
    inc = Adhoc(ID, rules["increment"])
    assert scan_dead_choices(Choice(inc, FAIL)) == [("root", "adhoc(id,increment)")]
    # a finding inside a finding's right operand keeps its full path
    s = All(Choice(ID, Choice(ID, ID)))
    assert scan_dead_choices(s) == [("body", "id"), ("body/right", "id")]


def test_scan_handles_rec_with_the_inferred_assumption():
    s = Rec("v", Choice(All(Var("v")), FAIL))
    assert scan_dead_choices(s) == [("body", "all(v)")]


def test_the_strict_verdict_is_not_read_off_the_lenient_scan():
    # the lenient walk settles on True and finds the choice dead; refusing
    # that choice leaves only the False assumption for the strict walk
    s = Rec("x", Choice(Var("x"), FAIL))
    assert sf_type_of(s) is True
    assert sf_type_of(s, strict=True) is False
    assert scan_dead_choices(s) == [("body", "x")]


def test_a_long_choice_chain_is_scanned_in_linear_time(rules):
    # `alt <+ … <+ alt <+ id <+ alt` with 5 000 alternatives: every
    # choice types its left operand, and the one finding prints the chain
    alt = Adhoc(FAIL, rules["increment"])
    s = alt
    for _ in range(4_997):
        s = Choice(s, alt)
    s = Choice(Choice(s, ID), alt)
    start = time.perf_counter()
    found = scan_dead_choices(s)
    # typing each left operand afresh took over a minute here
    assert time.perf_counter() - start < 10
    assert found == [("root", " <+ ".join(["adhoc(fail,increment)"] * 4_998 + ["id"]))]


def test_a_finding_beyond_the_recursion_limit_keeps_its_full_path():
    depth = 3 * sys.getrecursionlimit()
    s = Choice(ID, FAIL)
    for _ in range(depth):
        s = All(s)
    assert scan_dead_choices(s) == [("/".join(["body"] * depth), "id")]
    assert sf_type_of(s, strict=True) is None


def test_scan_is_empty_for_honest_choices(rules):
    assert scan_dead_choices(Choice(RuleRef(rules["dropSucc"]), ID)) == []
    assert scan_dead_choices(once_td(RuleRef(rules["dropSucc"]))) == []


# ---------------------------------------------------------------------------
# The abstract claim against the running engine

scheme_wrapped = st.tuples(
    st.sampled_from([lambda x: x, stop_td, innermost, try_, once_bu]),
    strategy_exprs(max_leaves=4),
).map(lambda p: p[0](p[1]))


@given(scheme_wrapped, terms)
def test_forall_success_means_the_engine_cannot_fail(sig, s, t):
    assume(sf_analyse(s) is FS)
    out = evaluate(s, t, sig, fuel=20_000)
    assert not isinstance(out, Failure)


@given(scheme_wrapped, terms)
def test_typed_true_means_the_engine_cannot_fail(sig, s, t):
    assume(sf_type_of(s) is True)
    out = evaluate(s, t, sig, fuel=20_000)
    assert not isinstance(out, Failure)
