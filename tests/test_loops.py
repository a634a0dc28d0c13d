"""A loop that comes back to the same state ends at once, and exactly.

When a `repeat` or `innermost` turn starts its try on the very term
(by identity) and instruction that the try frame on top of the stack
was pushed for, the machine is back in a state it was in before, and
it reports the fuel as spent without spending it. Nothing else may
change: at every budget the outcome, trace and error stay those of
step_oracle.py, which runs every loop out to its last step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from genlib import nat, nats, strategy_exprs, terms
from stratkit.interp import CompiledStrategy, FuelExhausted, evaluate
from stratkit.strategies import FAIL, GUARDS, ID, Adhoc, Choice, RuleDef, Seq, innermost, repeat, try_
from stratkit.terms import Node, PVar
from test_fuel import CAP, POOL, RULE, SCHEMES, SIG, assert_same_at

#: returns its input object, so a loop over it comes back to the same term
SAME = RuleDef("same", "Nat", PVar("n"), PVar("n"))
LOOPS = ("repeat", "innermost")
BIG = 10**6
TREE1 = Node("Node", (nat(0), Node("Nil_NatTree")))


def loops(pool):
    """repeat or innermost around strategies over the pool, with schemes
    nested in them, and sometimes under a try: there the loop's first try
    starts on the outer try's frame and term, but is another instruction."""

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(SCHEMES)), sub).map(lambda p: SCHEMES[p[0]](p[1])),
            st.tuples(sub, sub).map(lambda p: Seq(*p)),
            st.tuples(sub, sub).map(lambda p: Choice(*p)),
        )

    bodies = st.recursive(strategy_exprs(pool, max_leaves=4), extend, max_leaves=3)
    loop = st.tuples(st.sampled_from(LOOPS), bodies).map(lambda p: SCHEMES[p[0]](p[1]))
    return st.one_of(loop, loop.map(try_))


#: most rules rewrite naturals, so most loops turn more than once on one
LOOP_TERMS = st.one_of(nats, terms)


@settings(deadline=None, max_examples=300)
@given(loops(POOL + [SAME]), LOOP_TERMS)
def test_a_loop_agrees_with_the_reference_up_to_its_step_count(s, t):
    n = step_oracle.steps(s, t, SIG, CAP)
    mid = CAP if n is None else n
    assert_same_at(s, t, SIG, [1, 10, *range(max(0, mid - 2), mid + 3)])


DROP = Adhoc(FAIL, RULE["dropSucc"])


# each turn starts on a new term, or the first one on another try's frame
@pytest.mark.parametrize("s", [repeat(DROP), try_(repeat(DROP)), try_(try_(innermost(DROP)))])
def test_a_loop_that_moves_on_runs_to_its_end_at_every_budget(s):
    n = step_oracle.steps(s, nat(3), SIG, CAP)
    assert_same_at(s, nat(3), SIG, range(n + 3))


def test_a_repeat_back_at_the_same_term_stops_at_once(monkeypatch):
    # the first turn runs the binder's try, and every later one its
    # linked copy, so the third turn starts where the second did
    calls = []

    def counting(t):
        calls.append(t)
        return True

    monkeypatch.setitem(GUARDS, "counting", counting)
    same = RuleDef("same", "Nat", PVar("n"), PVar("n"), guard="counting")
    trace = set()
    out = CompiledStrategy(repeat(Adhoc(FAIL, same)), SIG).run(nat(2), BIG, trace)
    assert out == FuelExhausted(BIG)
    assert trace == {"same"}
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("s", [innermost(ID), repeat(try_(ID))], ids=["innermost", "repeat-try"])
def test_an_identity_loop_exhausts_the_whole_budget(s):
    for t in (nat(0), nat(3), TREE1):
        assert evaluate(s, t, SIG, fuel=BIG) == FuelExhausted(BIG)
