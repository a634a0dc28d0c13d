"""The strategy walks against the recursive code they replaced.

walker_oracle.py keeps the old recursive ladders verbatim. On generated
strategies with rec binders (nested and shadowing), bound and free
variables, and adhoc defaults, every function ported onto
`strategies.walk` must give the same result, print the same text, or
raise the same exception with the same message. The compiler is compared
through the outcomes of running the code it builds.

One difference is intended: the linearity lint used to skip the whole
body of a rec that rebinds a parameter's name. The comparison leaves
those definitions out; test_dsl.py holds the mended lint to its text.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walker_oracle as oracle
from genlib import nat, terms
from stratkit.dsl import Def, _param_linearity_lints
from stratkit.fallibility import Sf, scan_dead_choices, sf_analyse, sf_type_of
from stratkit.interp import _FAILED, CompiledStrategy, Failure, FuelExhausted, Success, _execute
from stratkit.laws import _adhocify, builtin_rules, builtin_signature
from stratkit.reachability import _rule_map, dead_case_report, mentioned_cases, reach_analyse
from stratkit.strategies import (
    CHILD_FIELDS,
    FAIL,
    ID,
    Adhoc,
    All,
    Choice,
    One,
    Rec,
    RuleRef,
    Seq,
    Var,
    binder_numbering,
    children,
    free_occurrences,
    free_vars,
    print_strategy,
    substitute,
)
from stratkit.termination import ANY, LEQ, LESS, parse_measure, term_analyse, term_type_of

SIG = builtin_signature()
RULES = builtin_rules()
NAMES = ("x", "y", "z")
FUEL = 3000
MEASURES = (parse_measure("depth"), parse_measure("count:Succ,depth"))


def strategies(max_leaves=8):
    leaves = st.one_of(
        st.sampled_from([ID, FAIL] + [RuleRef(r) for r in RULES]),
        st.sampled_from(NAMES).map(Var),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: Seq(*p)),
            st.tuples(sub, sub).map(lambda p: Choice(*p)),
            sub.map(All),
            sub.map(One),
            st.tuples(sub, st.sampled_from(RULES)).map(lambda p: Adhoc(*p)),
            st.tuples(st.sampled_from(NAMES), sub).map(lambda p: Rec(*p)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def rec_nesting(s):
    """The most recs on one path from the root: the exponent of the
    cost of the analyses that try every candidate at a rec."""
    inner = max((rec_nesting(c) for c in children(s)), default=0)
    return inner + isinstance(s, Rec)


def binders(s):
    found = {s.name} if isinstance(s, Rec) else set()
    for c in children(s):
        found |= binders(c)
    return found


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception type is part of the result
        return type(exc), str(exc)


def assert_same(new, old, *args, **kwargs):
    assert outcome(new, *args, **kwargs) == outcome(old, *args, **kwargs)


# ---------------------------------------------------------------------------
# Syntax: printing, variables, substitution, rebuilding


@given(strategies())
def test_printing_variables_cases_and_rebuilds_match_the_oracle(s):
    assert_same(print_strategy, oracle.print_strategy, s)
    assert_same(free_vars, oracle.free_vars, s)
    assert frozenset(free_occurrences(s)) == oracle.free_vars(s)
    assert_same(mentioned_cases, oracle.mentioned_cases, s)
    assert_same(_adhocify, oracle._adhocify, s)


@given(strategies(), st.dictionaries(st.sampled_from(NAMES), strategies(4), max_size=3))
def test_substitution_matches_the_oracle(s, mapping):
    with binder_numbering():
        new = outcome(substitute, s, mapping)
    with binder_numbering():
        old = outcome(oracle.substitute, s, mapping)
    assert new == old
    if new[0] == "ok":
        assert print_strategy(new[1]) == oracle.print_strategy(old[1])


@given(strategies(), st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
def test_linearity_lints_match_the_oracle_outside_rebinding_recs(body, params):
    assume(not binders(body) & set(params))
    d = Def("d", tuple(params), body)
    new, old = [], []
    _param_linearity_lints(d, new)
    oracle._param_linearity_lints(d, old)
    assert new == old


# ---------------------------------------------------------------------------
# The analyses


@settings(deadline=None)
@given(
    strategies(),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from(list(Sf))),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from([True, False])),
)
def test_fallibility_matches_the_oracle(s, env, ctx):
    assume(rec_nesting(s) <= 4)
    assert_same(sf_analyse, oracle.sf_analyse, s, env)
    for strict in (False, True):
        assert_same(sf_type_of, oracle.sf_type_of, s, ctx, strict=strict)
    # under a prefix, every finding's path has unequal fields
    for scanned in (s, All(Seq(ID, s))):
        assert_same(scan_dead_choices, oracle.scan_dead_choices, scanned, ctx)


def with_dead_choices(max_leaves=8):
    """Strategies with a dead choice, `id <+ s` or `try(s) <+ s`, put
    under a rec, an adhoc or an all, inside a generated strategy."""
    dead = st.tuples(st.sampled_from([ID, Choice(ID, FAIL)]), strategies(4)).map(
        lambda p: Choice(*p)
    )
    wrapped = st.one_of(
        st.tuples(st.sampled_from(NAMES), dead).map(lambda p: Rec(*p)),
        st.tuples(dead, st.sampled_from(RULES)).map(lambda p: Adhoc(*p)),
        dead.map(All),
    )
    return st.tuples(wrapped, strategies(max_leaves), st.booleans()).map(
        lambda p: Seq(p[0], p[1]) if p[2] else Choice(p[1], p[0])
    )


def typed_separately(type_of, scan, s, ctx):
    return type_of(s, ctx, strict=True), scan(s, ctx)


@settings(deadline=None)
@given(
    st.one_of(with_dead_choices(), strategies()),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from([True, False])),
)
def test_the_strict_verdict_and_findings_match_the_oracle(s, ctx):
    assume(rec_nesting(s) <= 4)
    assert outcome(typed_separately, sf_type_of, scan_dead_choices, s, ctx) == outcome(
        typed_separately, oracle.sf_type_of, oracle.scan_dead_choices, s, ctx
    )


@settings(deadline=None)
@given(
    strategies(),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from(RULES)),
    st.sampled_from(sorted(SIG.sorts)),
)
def test_reachability_matches_the_oracle(s, env_rules, root):
    assume(rec_nesting(s) <= 4)
    env = {name: _rule_map(SIG, rule) for name, rule in env_rules.items()}
    assert_same(reach_analyse, oracle.reach_analyse, SIG, s, env)
    assert_same(dead_case_report, oracle.dead_case_report, SIG, s, root)


rels = st.sampled_from([LESS, LEQ, ANY])


@settings(deadline=None)
@given(
    strategies(),
    st.sampled_from(MEASURES),
    st.dictionaries(
        st.sampled_from(NAMES), st.tuples(st.lists(rels, min_size=2, max_size=2), st.booleans())
    ),
    st.lists(rels, min_size=2, max_size=2),
)
def test_termination_matches_the_oracle(s, m, effects, r):
    assume(rec_nesting(s) <= 3)
    n = len(m)
    env = {name: (tuple(vec[-n:]), recursive) for name, (vec, recursive) in effects.items()}
    r = tuple(r[-n:])
    assert_same(term_analyse, oracle.term_analyse, s, m, r, env)
    assert_same(term_type_of, oracle.term_type_of, s, m, env)


# ---------------------------------------------------------------------------
# The compiler, through what its code does


def old_run(s, t, trace):
    code = oracle._compile(s, SIG, {})
    out = _execute(code, t, FUEL, SIG.constr_sort, trace)
    if out is None:
        return FuelExhausted(FUEL)
    return Failure() if out is _FAILED else Success(out)


@settings(deadline=None)
@given(strategies(), terms)
def test_compiled_code_runs_as_the_oracle_code(s, t):
    # closing the free variables with recs makes most strategies runnable
    closed = s
    for name in sorted(oracle.free_vars(s)):
        closed = Rec(name, closed)
    for strategy in (s, closed):
        new_trace, old_trace = set(), set()
        new = outcome(lambda: CompiledStrategy(strategy, SIG).run(t, FUEL, new_trace))
        old = outcome(old_run, strategy, t, old_trace)
        assert new == old
        assert new_trace == old_trace


# ---------------------------------------------------------------------------
# The walker itself


def test_every_strategy_constructor_with_children_is_in_the_field_table():
    assert set(CHILD_FIELDS) == {Seq, Choice, All, One, Rec, Adhoc}
    s = Seq(Choice(ID, FAIL), Rec("v", Adhoc(All(One(Var("v"))), RULES[0])))
    assert children(s) == (s.left, s.right)
    assert children(s.right) == (s.right.body,)
    assert children(s.right.body) == (s.right.body.default,)
    assert children(ID) == ()


@pytest.mark.parametrize("shape", ["chain", "nest"])
def test_every_walk_runs_beyond_the_recursion_limit(shape):
    depth = 3 * sys.getrecursionlimit()
    increment = RULES[0]
    step = Choice(Adhoc(FAIL, increment), ID)
    s = step
    for _ in range(depth):
        s = Seq(s, step) if shape == "chain" else All(Choice(Adhoc(FAIL, increment), s))
    text = print_strategy(s)
    assert text.count("adhoc") == depth + 1
    assert free_vars(s) == frozenset()
    # deep records do not compare without recursion; their text does
    assert print_strategy(substitute(s, {"v": ID})) == text
    assert print_strategy(_adhocify(s)) == text
    assert sf_analyse(s) is Sf.FORALL_SUCCESS
    assert sf_type_of(s, strict=True) is True
    assert scan_dead_choices(s) == []
    assert reach_analyse(SIG, s)["Nat"] == {"increment"}
    assert mentioned_cases(s) == {"increment"}
    assert len(term_type_of(s, MEASURES[1]) or "no") == 2
    assert isinstance(CompiledStrategy(s, SIG).run(nat(0)), Success)
