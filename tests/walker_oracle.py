"""Reference oracle for the strategy walks: the recursive `isinstance`
ladders that `stratkit` replaced with steps on `strategies.walk`, kept
verbatim. Only the imports changed: each call names the copy in this
module, and the `ANY` of fallibility and of termination are told apart
as `ANY_SF` and `ANY_REL`. The compiler also builds the machine's
current rule opcodes. They recurse on the Python stack, so they serve
small generated strategies only.

test_walker.py holds the walk-based code to their results, printed text
and exceptions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, TypeVar

from stratkit.dsl import Def
from stratkit.errors import EngineError, SignatureError, StratkitError
from stratkit.fallibility import (
    EF,
    FS,
    NONE,
    Sf,
    rule_infallible,
    sf_choice,
    sf_seq,
)
from stratkit.interp import (
    OP_ADHOC,
    OP_ALL,
    OP_CHOICE,
    OP_FAIL,
    OP_ID,
    OP_ONE,
    OP_RULE,
    OP_SEQ,
    OP_VAR,
    _Cell,
    compile_rule,
)
from stratkit.reachability import ReachMap, _rule_map, reach_bottom, reach_lub, reach_transform
from stratkit.strategies import (
    ID,
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    RuleRef,
    Seq,
    Strategy,
    Var,
    _fresh_var,
    rule_names,
)
from stratkit.termination import (
    ANY as ANY_REL,
    LESS,
    LEQ,
    Measure,
    RelVec,
    TermEnv,
    lex_admissible,
    leqs,
    rel_decrease,
    rel_increase,
    rel_lub,
    rule_effect,
    vec_leq,
    vec_lub,
    vec_plus,
)
from stratkit.terms import Signature

ANY_SF = Sf.ANY

# ---------------------------------------------------------------------------
# strategies


def free_vars(s: Strategy) -> frozenset[str]:
    """The variables of s not bound by a rec around them. The walk keeps
    its own stack of (node, names bound there), because a program's
    strategy can be thousands of `;` steps deep."""
    free: set[str] = set()
    stack: list[tuple[Strategy, frozenset[str]]] = [(s, frozenset())]
    while stack:
        s, bound = stack.pop()
        if isinstance(s, Var):
            if s.name not in bound:
                free.add(s.name)
        elif isinstance(s, Rec):
            stack.append((s.body, bound | {s.name}))
        elif isinstance(s, (Seq, Choice)):
            stack.append((s.left, bound))
            stack.append((s.right, bound))
        elif isinstance(s, (All, One)):
            stack.append((s.body, bound))
        elif isinstance(s, Adhoc):
            stack.append((s.default, bound))
    return frozenset(free)


def substitute(s: Strategy, mapping: dict[str, Strategy]) -> Strategy:
    """Capture-avoiding substitution of variables by strategies."""
    if not mapping:
        return s
    if isinstance(s, Var):
        return mapping.get(s.name, s)
    if isinstance(s, Rec):
        inner = {k: v for k, v in mapping.items() if k != s.name}
        if not inner:
            return s
        if any(s.name in free_vars(v) for v in inner.values()):
            # numbering restarts per program, so a name from another
            # numbering may be free here
            taken = free_vars(s.body).union(*map(free_vars, inner.values()))
            renamed = _fresh_var()
            while renamed in taken:
                renamed = _fresh_var()
            body = substitute(s.body, {s.name: Var(renamed)})
            return Rec(renamed, substitute(body, inner))
        return Rec(s.name, substitute(s.body, inner))
    if isinstance(s, Seq):
        return Seq(substitute(s.left, mapping), substitute(s.right, mapping))
    if isinstance(s, Choice):
        return Choice(substitute(s.left, mapping), substitute(s.right, mapping))
    if isinstance(s, All):
        return All(substitute(s.body, mapping))
    if isinstance(s, One):
        return One(substitute(s.body, mapping))
    if isinstance(s, Adhoc):
        return Adhoc(substitute(s.default, mapping), s.rule)
    return s


def print_strategy(s: Strategy) -> str:
    """Concrete syntax with minimal parentheses; `;` binds tighter than
    `<+` and rec extends as far right as possible."""
    return _print(s, 0)


def _print(s: Strategy, min_prec: int) -> str:
    if isinstance(s, Id):
        return "id"
    if isinstance(s, Fail):
        return "fail"
    if isinstance(s, Var):
        return s.name
    if isinstance(s, RuleRef):
        return s.rule.name
    if isinstance(s, All):
        return f"all({_print(s.body, 0)})"
    if isinstance(s, One):
        return f"one({_print(s.body, 0)})"
    if isinstance(s, Adhoc):
        return f"adhoc({_print(s.default, 0)},{s.rule.name})"
    if isinstance(s, Rec):
        text = f"rec {s.name}. {_print(s.body, 0)}"
        return f"({text})" if min_prec > 0 else text
    if isinstance(s, Seq):
        text = f"{_print(s.left, 1)} ; {_print(s.right, 2)}"
        return f"({text})" if min_prec > 1 else text
    if isinstance(s, Choice):
        text = f"{_print(s.left, 0)} <+ {_print(s.right, 1)}"
        return f"({text})" if min_prec > 0 else text
    raise StratkitError(f"cannot print {s!r}")


# ---------------------------------------------------------------------------
# interp


def _compile(s: Strategy, sig: Signature, env: dict[str, _Cell]):
    if isinstance(s, Id):
        return (OP_ID,)
    if isinstance(s, Fail):
        return (OP_FAIL,)
    if isinstance(s, Seq):
        return (OP_SEQ, _compile(s.left, sig, env), _compile(s.right, sig, env))
    if isinstance(s, Choice):
        return (OP_CHOICE, _compile(s.left, sig, env), _compile(s.right, sig, env))
    if isinstance(s, All):
        return (OP_ALL, _compile(s.body, sig, env))
    if isinstance(s, One):
        return (OP_ONE, _compile(s.body, sig, env))
    if isinstance(s, Var):
        cell = env.get(s.name)
        if cell is None:
            raise EngineError(f"unbound strategy variable {s.name!r}")
        return (OP_VAR, cell)
    if isinstance(s, Rec):
        cell = _Cell()
        inner = dict(env)
        inner[s.name] = cell
        cell.code = _compile(s.body, sig, inner)
        return cell.code
    if isinstance(s, RuleRef):
        return (OP_RULE, compile_rule(s.rule), rule_names(s.rule), s.rule.sort)
    if isinstance(s, Adhoc):
        return (
            OP_ADHOC,
            _compile(s.default, sig, env),
            s.rule.sort,
            compile_rule(s.rule),
            rule_names(s.rule),
        )
    raise EngineError(f"cannot compile {s!r}")


# ---------------------------------------------------------------------------
# fallibility

_X = TypeVar("_X")


def fix_eq(f: Callable[[_X], _X], bottom: _X) -> _X:
    """Least fixpoint by iteration from bottom; callers guarantee f is
    monotone over a finite-height lattice."""
    x = bottom
    while True:
        nxt = f(x)
        if nxt == x:
            return x
        x = nxt


def sf_analyse(s: Strategy, env: Optional[dict[str, Sf]] = None) -> Sf:
    env = env or {}
    if isinstance(s, Id):
        return FS
    if isinstance(s, Fail):
        return EF
    if isinstance(s, Seq):
        return sf_seq(sf_analyse(s.left, env), sf_analyse(s.right, env))
    if isinstance(s, Choice):
        return sf_choice(sf_analyse(s.left, env), sf_analyse(s.right, env))
    if isinstance(s, Var):
        try:
            return env[s.name]
        except KeyError:
            raise EngineError(f"unbound strategy variable {s.name!r}") from None
    if isinstance(s, Rec):
        return fix_eq(lambda x: sf_analyse(s.body, {**env, s.name: x}), NONE)
    if isinstance(s, All):
        return sf_analyse(s.body, env)
    if isinstance(s, One):
        return EF
    if isinstance(s, RuleRef):
        return FS if rule_infallible(s.rule) else EF
    if isinstance(s, Adhoc):
        d = sf_analyse(s.default, env)
        r = FS if rule_infallible(s.rule) else EF
        if d is NONE:
            return NONE
        if d is FS and r is FS:
            return FS
        if d is EF or r is EF:
            return EF
        return ANY_SF
    raise EngineError(f"cannot analyse {s!r}")


def sf_type_of(
    s: Strategy,
    ctx: Optional[dict[str, bool]] = None,
    strict: bool = False,
) -> Optional[bool]:
    """True = infallible, False = possibly failing, None = untypable.

    In strict mode a choice with a True-typed left operand is untypable:
    its right operand is dead code.
    """
    ctx = ctx or {}
    if isinstance(s, Id):
        return True
    if isinstance(s, Fail):
        return False
    if isinstance(s, Seq):
        a = sf_type_of(s.left, ctx, strict)
        b = sf_type_of(s.right, ctx, strict)
        if a is None or b is None:
            return None
        return a and b
    if isinstance(s, Choice):
        a = sf_type_of(s.left, ctx, strict)
        if a is None:
            return None
        if strict and a is True:
            return None
        b = sf_type_of(s.right, ctx, strict)
        if b is None:
            return None
        return a or b
    if isinstance(s, Var):
        try:
            return ctx[s.name]
        except KeyError:
            raise EngineError(f"unbound strategy variable {s.name!r}") from None
    if isinstance(s, Rec):
        for assumption in (True, False):
            got = sf_type_of(s.body, {**ctx, s.name: assumption}, strict)
            if got == assumption:
                return assumption
        return None
    if isinstance(s, All):
        return sf_type_of(s.body, ctx, strict)
    if isinstance(s, One):
        if sf_type_of(s.body, ctx, strict) is None:
            return None
        return False
    if isinstance(s, RuleRef):
        return rule_infallible(s.rule)
    if isinstance(s, Adhoc):
        a = sf_type_of(s.default, ctx, strict)
        if a is None:
            return None
        return a and rule_infallible(s.rule)
    raise EngineError(f"cannot type {s!r}")


def scan_dead_choices(
    s: Strategy, ctx: Optional[dict[str, bool]] = None
) -> list[tuple[str, str]]:
    """All choices whose left operand types as infallible, as
    (path, rendered left operand) pairs. Paths are slash-joined field
    names from the root. Works on untypable expressions too: the scan
    only needs the left operand's own type.
    """
    ctx = ctx or {}
    found: list[tuple[str, str]] = []

    def walk(node: Strategy, ctx: dict[str, bool], path: tuple[str, ...]) -> None:
        if isinstance(node, Choice):
            if sf_type_of(node.left, ctx) is True:
                found.append(
                    ("/".join(path) or "root", print_strategy(node.left))
                )
            walk(node.left, ctx, path + ("left",))
            walk(node.right, ctx, path + ("right",))
        elif isinstance(node, Seq):
            walk(node.left, ctx, path + ("left",))
            walk(node.right, ctx, path + ("right",))
        elif isinstance(node, (All, One)):
            walk(node.body, ctx, path + ("body",))
        elif isinstance(node, Rec):
            # scan under the optimistic assumption first; if the body
            # does not support it, fall back to fallible
            assumed = sf_type_of(node, ctx)
            walk(node.body, {**ctx, node.name: bool(assumed)}, path + ("body",))
        elif isinstance(node, Adhoc):
            walk(node.default, ctx, path + ("default",))

    walk(s, ctx, ())
    return found


# ---------------------------------------------------------------------------
# reachability


def reach_analyse(
    sig: Signature,
    s: Strategy,
    env: Optional[dict[str, ReachMap]] = None,
) -> ReachMap:
    env = env or {}
    if isinstance(s, (Id, Fail)):
        return reach_bottom(sig)
    if isinstance(s, (Seq, Choice)):
        return reach_lub(
            reach_analyse(sig, s.left, env), reach_analyse(sig, s.right, env)
        )
    if isinstance(s, Var):
        try:
            return env[s.name]
        except KeyError:
            raise EngineError(f"unbound strategy variable {s.name!r}") from None
    if isinstance(s, Rec):
        return fix_eq(
            lambda m: reach_analyse(sig, s.body, {**env, s.name: m}),
            reach_bottom(sig),
        )
    if isinstance(s, (All, One)):
        return reach_transform(sig, reach_analyse(sig, s.body, env))
    if isinstance(s, RuleRef):
        return _rule_map(sig, s.rule)
    if isinstance(s, Adhoc):
        return reach_lub(
            reach_analyse(sig, s.default, env), _rule_map(sig, s.rule)
        )
    raise EngineError(f"cannot analyse {s!r}")


def mentioned_cases(s: Strategy) -> frozenset[str]:
    """Names of all rules appearing syntactically in s."""
    out: set[str] = set()
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, (Seq, Choice)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (All, One)):
            stack.append(node.body)
        elif isinstance(node, Rec):
            stack.append(node.body)
        elif isinstance(node, RuleRef):
            out.update(rule_names(node.rule))
        elif isinstance(node, Adhoc):
            stack.append(node.default)
            out.update(rule_names(node.rule))
    return frozenset(out)


def dead_case_report(
    sig: Signature, main: Strategy, root: str
) -> list[tuple[str, str]]:
    """Cases mentioned in main that cannot fire below a root of the
    given sort, each with a one-line diagnostic."""
    if root not in sig.sorts:
        raise SignatureError(f"unknown root sort {root!r}")
    reachable = reach_analyse(sig, main)[root]
    out = []
    for name in sorted(mentioned_cases(main) - reachable):
        out.append(
            (name, f"case {name!r} is unreachable from root sort {root!r}")
        )
    return out


# ---------------------------------------------------------------------------
# termination


def term_analyse(
    s: Strategy,
    m: Measure,
    r: RelVec,
    env: Optional[TermEnv] = None,
) -> Optional[RelVec]:
    env = env or {}
    n = len(m)
    if isinstance(s, Id):
        return r
    if isinstance(s, Fail):
        return (LESS,) * n
    if isinstance(s, Seq):
        left = term_analyse(s.left, m, r, env)
        if left is None:
            return None
        return term_analyse(s.right, m, left, env)
    if isinstance(s, Choice):
        a = term_analyse(s.left, m, r, env)
        b = term_analyse(s.right, m, r, env)
        if a is None or b is None:
            return None
        return vec_lub(a, b)
    if isinstance(s, Var):
        try:
            eff, recursive = env[s.name]
        except KeyError:
            raise EngineError(f"unbound strategy variable {s.name!r}") from None
        if len(eff) != n:
            raise EngineError(
                f"effect for {s.name!r} has {len(eff)} components, "
                f"measure has {n}"
            )
        if recursive and not lex_admissible(r):
            return None
        return vec_plus(r, eff)
    if isinstance(s, Rec):
        for e in itertools.product((LESS, LEQ, ANY_REL), repeat=n):
            inner = dict(env)
            inner[s.name] = (e, True)
            got = term_analyse(s.body, m, leqs(m), inner)
            if got is not None and vec_leq(got, e):
                return vec_plus(r, e)
        return None
    if isinstance(s, (All, One)):
        down = r[:-1] + (rel_decrease(r[-1]),)
        got = term_analyse(s.body, m, down, env)
        if got is None:
            return None
        prefix = got[:-1]
        if isinstance(s, All):
            # all() succeeds vacuously on a leaf, so a strict count
            # decrease cannot survive it; one() always fires on a child.
            prefix = tuple(rel_lub(a, b) for a, b in zip(r[:-1], prefix))
        return prefix + (rel_increase(got[-1]),)
    if isinstance(s, RuleRef):
        return vec_plus(r, rule_effect(s.rule, m))
    if isinstance(s, Adhoc):
        a = term_analyse(s.default, m, r, env)
        if a is None:
            return None
        return vec_lub(a, vec_plus(r, rule_effect(s.rule, m)))
    raise EngineError(f"cannot analyse {s!r}")


def term_type_of(
    s: Strategy, m: Measure, env: Optional[TermEnv] = None
) -> Optional[RelVec]:
    return term_analyse(s, m, leqs(m), env)


# ---------------------------------------------------------------------------
# laws


def _adhocify(s: Strategy) -> Strategy:
    """Push every bare rule reference under sort dispatch.

    The infallibility annotation on a rule speaks only about terms of
    the rule's own sort; a bare reference hitting a foreign sort fails
    by definition. Typed-infallible claims are therefore only meaningful
    for strategies where rules enter through adhoc, so the soundness
    sampler normalizes to that fragment.
    """
    if isinstance(s, RuleRef):
        return Adhoc(ID, s.rule)
    if isinstance(s, Seq):
        return Seq(_adhocify(s.left), _adhocify(s.right))
    if isinstance(s, Choice):
        return Choice(_adhocify(s.left), _adhocify(s.right))
    if isinstance(s, All):
        return All(_adhocify(s.body))
    if isinstance(s, One):
        return One(_adhocify(s.body))
    if isinstance(s, Adhoc):
        return Adhoc(_adhocify(s.default), s.rule)
    return s


# ---------------------------------------------------------------------------
# dsl


def _param_linearity_lints(d: Def, lints: list[str]) -> None:
    counts: dict[str, int] = {p: 0 for p in d.params}
    stack = [d.body]
    while stack:
        s = stack.pop()
        if isinstance(s, Var) and s.name in counts:
            counts[s.name] += 1
        elif isinstance(s, (Seq, Choice)):
            stack.extend((s.left, s.right))
        elif isinstance(s, (All, One)):
            stack.append(s.body)
        elif isinstance(s, Adhoc):
            stack.append(s.default)
        elif isinstance(s, Rec):
            if s.name not in counts:
                stack.append(s.body)
    for p in d.params:
        if counts[p] > 1:
            lints.append(
                f"def {d.name!r}: parameter {p!r} is used {counts[p]} times; "
                "expansion duplicates its argument"
            )
