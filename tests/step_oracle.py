"""Step-counting reference semantics of the strategy calculus.

A big-step evaluator written from the calculus, not from the machine in
`stratkit.interp`: one recursive case per construct, with `rec` unfolded
through an environment that binds each variable to its binder and the
environment the binder was met in. Every construct but `rec` costs one
step when it is applied to a term, before it does anything else; `rec`
itself is free, and a reference to its variable is the construct that
unfolds it. A run's step count is therefore the number of construct
applications, which is the fuel the machine is documented to charge.

It recurses on the Python stack, so it serves small generated strategies
and terms only. test_fuel.py and test_walker.py hold the machine to its
outcome, result term, trace and error at budgets around the exact step
count.
"""

from __future__ import annotations

import sys

from genlib import apply_rule
from stratkit.errors import EngineError, StratkitError
from stratkit.interp import Failure, FuelExhausted, Success
from stratkit.strategies import (
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    RuleRef,
    Seq,
    Var,
    children,
    rule_names,
)
from stratkit.terms import Node, sort_of

FAILED = object()


class _OutOfFuel(Exception):
    pass


def check_closed(s, bound=frozenset()):
    """Programs are closed: the first variable in preorder that no rec
    around it binds is the error the machine's compiler raises."""
    if isinstance(s, Var) and s.name not in bound:
        raise EngineError(f"unbound strategy variable {s.name!r}")
    if isinstance(s, Rec):
        bound = bound | {s.name}
    for c in children(s):
        check_closed(c, bound)


class _Run:
    def __init__(self, sig, fuel, trace):
        self.sig = sig
        self.fuel = fuel
        self.trace = trace
        self.steps = 0

    def step(self):
        self.steps += 1
        if self.steps > self.fuel:
            raise _OutOfFuel

    def rule(self, rule, t):
        out = apply_rule(rule, t, self.sig)
        if out is None:
            return FAILED
        self.trace.update(rule_names(rule))
        return out

    def eval(self, s, env, t):
        """The result of s on t, or FAILED."""
        while isinstance(s, Rec):  # rec x. s is s, with x bound to this rec
            env = {**env, s.name: (s, env)}
            s = s.body
        self.step()
        if isinstance(s, Var):
            binder, defined = env[s.name]
            return self.eval(binder, defined, t)
        if isinstance(s, Id):
            return t
        if isinstance(s, Fail):
            return FAILED
        if isinstance(s, Seq):
            mid = self.eval(s.left, env, t)
            return FAILED if mid is FAILED else self.eval(s.right, env, mid)
        if isinstance(s, Choice):
            out = self.eval(s.left, env, t)
            return self.eval(s.right, env, t) if out is FAILED else out
        if isinstance(s, All):
            kids = []
            for c in t.children:
                out = self.eval(s.body, env, c)
                if out is FAILED:
                    return FAILED
                kids.append(out)
            return Node(t.constr, tuple(kids)) if kids else t
        if isinstance(s, One):
            for i, c in enumerate(t.children):
                out = self.eval(s.body, env, c)
                if out is not FAILED:
                    kids = list(t.children)
                    kids[i] = out
                    return Node(t.constr, tuple(kids))
            return FAILED
        if isinstance(s, RuleRef):
            return self.rule(s.rule, t)
        if isinstance(s, Adhoc):
            if sort_of(self.sig, t) == s.rule.sort:
                return self.rule(s.rule, t)
            return self.eval(s.default, env, t)
        raise AssertionError(f"the reference cannot evaluate {s!r}")


def _evaluate(run, s, t):
    """run's result for s on t, or None when its fuel runs out."""
    check_closed(s)
    limit = sys.getrecursionlimit()
    # each step nests one frame, and a rule application a few more
    sys.setrecursionlimit(limit + run.fuel + 200)
    try:
        return run.eval(s, {}, t)
    except _OutOfFuel:
        return None
    finally:
        sys.setrecursionlimit(limit)


def run(s, t, sig, fuel, trace=None):
    """The outcome of s on t within fuel steps. trace, when given,
    collects the names of the rules that fired."""
    out = _evaluate(_Run(sig, fuel, set() if trace is None else trace), s, t)
    if out is None:
        return FuelExhausted(fuel)
    return Failure() if out is FAILED else Success(out)


def steps(s, t, sig, cap):
    """The exact number of steps that s takes on t, or None when that is
    more than cap. A run that raises ends at its error."""
    counted = _Run(sig, cap, set())
    try:
        if _evaluate(counted, s, t) is None:
            return None
    except StratkitError:  # the run ends at its error
        pass
    return counted.steps
