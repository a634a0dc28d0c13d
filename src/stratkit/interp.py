"""Strategy evaluation.

Strategies are compiled once to nested opcode tuples and then run by an
explicit-stack machine, for two reasons. First, rewriting must survive
terms (and traversal depths) far beyond CPython's recursion limit.
Second, evaluation is metered: every dispatch of a strategy against a
term costs one unit of fuel, and running out is reported as its own
outcome rather than hanging on a divergent strategy.

Recursion is resolved at compile time. Each `rec` binder becomes a cell
whose code field is tied back into the instruction graph, so variable
reference is a plain jump and the machine needs no environment.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

from .errors import EngineError
from .strategies import (
    GUARDS,
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    Rule,
    RuleChoice,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    Var,
    lookup,
    rule_names,
    walk,
)
from .terms import Lit, Node, PLit, PNode, PVar, Signature, Term, match

DEFAULT_FUEL = 1_000_000


@dataclass(frozen=True)
class Success:
    term: Term


@dataclass(frozen=True)
class Failure:
    pass


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


Outcome = Success | Failure | FuelExhausted

_FAILED = object()

OP_ID = 0
OP_FAIL = 1
OP_SEQ = 2
OP_CHOICE = 3
OP_ALL = 4
OP_ONE = 5
OP_VAR = 6
OP_RULE = 7
OP_ADHOC = 8


class _Cell:
    """Back-patched jump target for one rec binder."""

    __slots__ = ("code",)


# ---------------------------------------------------------------------------
# Rule compilation
#
# Rules are compiled to appliers, Term -> Term | None. The shapes that
# dominate rewriting loops (variable left side, small constructor right
# side) get dedicated closures so the hot path does no generic matching.


def _compile_rhs(p):
    if isinstance(p, PVar):
        name = p.name
        return lambda b: b[name]
    if isinstance(p, PLit):
        lit = Lit(p.value, p.sort)
        return lambda b: lit
    fns = tuple(_compile_rhs(c) for c in p.children)
    constr = p.constr
    if not fns:
        node = Node(constr)
        return lambda b: node
    return lambda b: Node(constr, tuple(f(b) for f in fns))


def _ruledef_applier(rule: RuleDef):
    lhs, rhs = rule.lhs, rule.rhs
    guard_fn = GUARDS[rule.guard] if rule.guard is not None else None
    build = _compile_rhs(rhs)
    if isinstance(lhs, PVar):
        name = lhs.name
        if guard_fn is None:
            if (
                isinstance(rhs, PNode)
                and len(rhs.children) == 1
                and rhs.children[0] == lhs
            ):
                constr = rhs.constr
                return lambda t: Node(constr, (t,))
            return lambda t: build({name: t})

        def guarded(t):
            if guard_fn(t):
                return build({name: t})
            return None

        return guarded

    def general(t):
        binding = match(lhs, t)
        if binding is None:
            return None
        if guard_fn is not None and not guard_fn(t):
            return None
        return build(binding)

    return general


def compile_rule(rule: Rule, sig: Signature, check_sort: bool = True):
    """Applier for a rule; with check_sort the applier rejects terms of
    other sorts itself, otherwise the caller guarantees the sort."""
    if isinstance(rule, RuleDef):
        base = _ruledef_applier(rule)
    elif isinstance(rule, RuleChoice):
        fns = tuple(compile_rule(m, sig, False) for m in rule.members)

        def base(t, _fns=fns):
            for f in _fns:
                out = f(t)
                if out is not None:
                    return out
            return None

    else:
        fns = tuple(compile_rule(m, sig, False) for m in rule.members)

        def base(t, _fns=fns):
            for f in _fns:
                t = f(t)
                if t is None:
                    return None
            return t

    if not check_sort:
        return base
    sort = rule.sort
    constr_sort = sig.constr_sort

    def checked(t):
        ts = t.sort if type(t) is Lit else constr_sort.get(t.constr)
        if ts != sort:
            return None
        return base(t)

    return checked


# ---------------------------------------------------------------------------
# Strategy compilation


def _compile(s: Strategy, sig: Signature, env: dict[str, _Cell]):
    if isinstance(s, Id):
        return (OP_ID,)
    if isinstance(s, Fail):
        return (OP_FAIL,)
    if isinstance(s, Seq):
        return (OP_SEQ, (yield s.left, sig, env), (yield s.right, sig, env))
    if isinstance(s, Choice):
        return (OP_CHOICE, (yield s.left, sig, env), (yield s.right, sig, env))
    if isinstance(s, All):
        return (OP_ALL, (yield s.body, sig, env))
    if isinstance(s, One):
        return (OP_ONE, (yield s.body, sig, env))
    if isinstance(s, Var):
        return (OP_VAR, lookup(env, s.name))
    if isinstance(s, Rec):
        cell = _Cell()
        inner = dict(env)
        inner[s.name] = cell
        cell.code = yield s.body, sig, inner
        return cell.code
    if isinstance(s, RuleRef):
        return (OP_RULE, compile_rule(s.rule, sig, True), rule_names(s.rule))
    if isinstance(s, Adhoc):
        return (
            OP_ADHOC,
            (yield s.default, sig, env),
            s.rule.sort,
            compile_rule(s.rule, sig, False),
            rule_names(s.rule),
        )
    raise EngineError(f"cannot compile {s!r}")


class CompiledStrategy:
    """A closed strategy fixed to one signature, reusable across runs."""

    def __init__(self, strategy: Strategy, sig: Signature):
        self.strategy = strategy
        self.sig = sig
        self._constr_sort = sig.constr_sort
        self._code = walk(_compile, strategy, sig, {})

    def run(
        self,
        term: Term,
        fuel: int = DEFAULT_FUEL,
        trace: Optional[set] = None,
    ) -> Outcome:
        """trace, when given, collects the names of rules that fired."""
        # The machine allocates frames and rebuilt nodes but no reference
        # cycles, so generational collection during a run only costs time
        # (about half of a long divergent run).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = _execute(self._code, term, fuel, self._constr_sort, trace)
        finally:
            if gc_was_enabled:
                gc.enable()
        if out is None:
            return FuelExhausted(fuel)
        if out is _FAILED:
            return Failure()
        return Success(out)


def evaluate(
    strategy: Strategy,
    term: Term,
    sig: Signature,
    fuel: int = DEFAULT_FUEL,
    trace: Optional[set] = None,
) -> Outcome:
    return CompiledStrategy(strategy, sig).run(term, fuel, trace)


# Continuation tags. The machine keeps one list of frames; tag 0 waits
# for a sequence's left result, 1 holds a choice's fallback with the
# original term, 2 collects rebuilt children for all, 3 walks children
# for one. Traversal frames (2 and 3) are mutable lists advanced in
# place: a deep descent keeps one live frame per level, and per-frame
# reallocation was the dominant gc load on chain-shaped terms.


def _execute(code, term, fuel, constr_sort, trace):
    stack = []
    append = stack.append
    pop = stack.pop
    t = term
    val = _FAILED
    lit_t = Lit
    node_t = Node
    failed = _FAILED

    while True:
        # evaluate (code, t) down to a result in val
        while True:
            fuel -= 1
            if fuel < 0:
                return None
            op = code[0]
            if op == 2:  # SEQ
                append((0, code[2]))
                code = code[1]
            elif op == 8:  # ADHOC
                ts = t.sort if type(t) is lit_t else constr_sort[t.constr]
                if ts != code[2]:
                    code = code[1]
                else:
                    out = code[3](t)
                    if out is None:
                        val = failed
                    else:
                        val = out
                        if trace is not None:
                            trace.update(code[4])
                    break
            elif op == 4:  # ALL
                ch = t.children
                if not ch:
                    val = t
                    break
                body = code[1]
                # frame layout: [tag, body, node, idx, *rebuilt children]
                append([2, body, t, 0])
                code = body
                t = ch[0]
            elif op == 6:  # VAR
                code = code[1].code
            elif op == 3:  # CHOICE
                append((1, code[2], t))
                code = code[1]
            elif op == 0:  # ID
                val = t
                break
            elif op == 1:  # FAIL
                val = failed
                break
            elif op == 5:  # ONE
                ch = t.children
                if not ch:
                    val = failed
                    break
                body = code[1]
                append([3, body, t, 0])
                code = body
                t = ch[0]
            else:  # RULE
                out = code[1](t)
                if out is None:
                    val = failed
                else:
                    val = out
                    if trace is not None:
                        trace.update(code[2])
                break

        # hand val to the pending continuations
        while True:
            if not stack:
                return val
            frame = pop()
            k = frame[0]
            if k == 0:  # after left of a sequence
                if val is failed:
                    continue
                code = frame[1]
                t = val
                break
            if k == 1:  # choice fallback
                if val is failed:
                    code = frame[1]
                    t = frame[2]
                    break
                continue
            if k == 2:  # collecting children of all
                if val is failed:
                    continue
                frame.append(val)
                node = frame[2]
                idx = frame[3] + 1
                ch = node.children
                if idx == len(ch):
                    for i, c in enumerate(ch):
                        if frame[4 + i] is not c:
                            val = node_t(node.constr, tuple(frame[4:]))
                            break
                    else:
                        val = node
                    continue
                frame[3] = idx
                append(frame)
                code = frame[1]
                t = ch[idx]
                break
            # k == 3: searching children of one
            node = frame[2]
            idx = frame[3]
            ch = node.children
            if val is failed:
                idx += 1
                if idx == len(ch):
                    continue
                frame[3] = idx
                append(frame)
                code = frame[1]
                t = ch[idx]
                break
            if val is ch[idx]:
                val = node
            else:
                rebuilt = list(ch)
                rebuilt[idx] = val
                val = node_t(node.constr, tuple(rebuilt))
            continue
