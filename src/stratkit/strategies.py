"""Strategy expressions, rewrite rules, and traversal scheme builders.

The core language is deliberately small: identity, failure, sequential
composition, left-biased choice, the two child combinators, and binding
recursion. Everything else (top-down, bottom-up, once, repeat, ...) is a
derived form built here by macro expansion, so the interpreter and the
static analyses only ever see the eight core constructs plus rule
application.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Callable, Generator, Iterator

from .errors import EngineError, StratkitError
from .records import record, replace
from .terms import Lit, Node, Pattern, Term

# ---------------------------------------------------------------------------
# Rules


@record
class RuleDef:
    """A named rewrite rule on a single sort.

    `guard` names a predicate from GUARDS applied to the whole matched
    term; `infallible` and `effect_claim` are programmer annotations
    that the analyses may check but the interpreter ignores. An effect
    claim is a tuple of `termination.Rel` values, one per measure
    component, as the loader reads them from `@effect(...)`.
    """

    name: str
    sort: str
    lhs: Pattern
    rhs: Pattern
    guard: str | None = None
    infallible: bool = False
    effect_claim: tuple[Rel, ...] | None = None


@record
class RuleChoice:
    """Left-biased alternative of same-sort rules, applied as one rule."""

    members: tuple

    @property
    def name(self) -> str:
        return "rule_choice(" + ",".join(m.name for m in self.members) + ")"

    @property
    def sort(self) -> str:
        return self.members[0].sort


@record
class RuleSeq:
    """Pipeline of same-sort rules; fails unless every stage applies."""

    members: tuple

    @property
    def name(self) -> str:
        return "rule_seq(" + ",".join(m.name for m in self.members) + ")"

    @property
    def sort(self) -> str:
        return self.members[0].sort


Rule = RuleDef | RuleChoice | RuleSeq


def _check_same_sort(kind: str, members: tuple) -> None:
    if len(members) < 2:
        raise StratkitError(f"{kind} needs at least two rules")
    first = members[0].sort
    for m in members[1:]:
        if m.sort != first:
            raise StratkitError(
                f"{kind} mixes sorts: {members[0].name} is on {first!r} "
                f"but {m.name} is on {m.sort!r}"
            )


def rule_choice(*members: Rule) -> RuleChoice:
    _check_same_sort("rule_choice", members)
    return RuleChoice(tuple(members))


def rule_seq(*members: Rule) -> RuleSeq:
    _check_same_sort("rule_seq", members)
    return RuleSeq(tuple(members))


def rule_names(rule: Rule) -> tuple[str, ...]:
    """Leaf rule names, in application order."""
    if isinstance(rule, RuleDef):
        return (rule.name,)
    out: list[str] = []
    for m in rule.members:
        out.extend(rule_names(m))
    return tuple(out)


# Guard predicates take the whole matched term. Peano guards walk the
# Succ spine iteratively; matched naturals may be arbitrarily deep.


def _nat_value_parity(t: Term) -> int | None:
    n = 0
    while isinstance(t, Node) and t.constr == "Succ" and len(t.children) == 1:
        n ^= 1
        t = t.children[0]
    if isinstance(t, Node) and t.constr == "Zero" and not t.children:
        return n
    return None


def _even_nat(t: Term) -> bool:
    return _nat_value_parity(t) == 0


def _odd_nat(t: Term) -> bool:
    return _nat_value_parity(t) == 1


def _lit_pred(p: Callable[[int | float], bool]) -> Callable[[Term], bool]:
    def check(t: Term) -> bool:
        return isinstance(t, Lit) and not isinstance(t.value, str) and p(t.value)

    return check


# A guard, built in or registered here, must depend only on the term it
# gets: the interpreter ends a loop that is back at a state it was in as
# out of fuel, which is exact only if the same term gets the same answer.
GUARDS: dict[str, Callable[[Term], bool]] = {
    "even_nat": _even_nat,
    "odd_nat": _odd_nat,
    "lit_zero": _lit_pred(lambda v: v == 0),
    "lit_nonzero": _lit_pred(lambda v: v != 0),
    "lit_positive": _lit_pred(lambda v: v > 0),
    "lit_negative": _lit_pred(lambda v: v < 0),
}


# ---------------------------------------------------------------------------
# Strategy expressions


@record
class Id:
    pass


@record
class Fail:
    pass


ID = Id()
FAIL = Fail()


@record
class Seq:
    left: "Strategy"
    right: "Strategy"


@record
class Choice:
    left: "Strategy"
    right: "Strategy"


@record
class All:
    body: "Strategy"


@record
class One:
    body: "Strategy"


@record
class Var:
    name: str


@record
class Rec:
    name: str
    body: "Strategy"


@record
class RuleRef:
    """A bare rule, which is `adhoc(fail, rule)`: every analysis reads
    its `default` as it reads an Adhoc's, and the machine runs it so."""

    rule: Rule
    default = FAIL  # not a field


@record
class Adhoc:
    """Sort dispatch: apply `rule` on its own sort, `default` elsewhere."""

    default: "Strategy"
    rule: Rule


Strategy = Id | Fail | Seq | Choice | All | One | Var | Rec | RuleRef | Adhoc


# ---------------------------------------------------------------------------
# Walking strategies

#: The fields of each constructor that hold sub-strategies, in the order
#: every walk visits them. Every other constructor is a leaf.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Seq: ("left", "right"),
    Choice: ("left", "right"),
    All: ("body",),
    One: ("body",),
    Rec: ("body",),
    Adhoc: ("default",),
}


def children(s: Strategy) -> tuple[Strategy, ...]:
    """The direct sub-strategies of s, in field-table order."""
    return tuple(getattr(s, f) for f in CHILD_FIELDS.get(type(s), ()))


def walk(step: Callable[..., Generator], s: Strategy, *args):
    """The result of step(s, *args), run on one explicit stack.

    A step is a generator function written as the recursive function it
    replaces: where it would call itself it yields the call's arguments,
    `(yield child, *args)`, and is sent back that call's result; what it
    returns is its own result. A program's strategy can be thousands of
    `;` steps deep, so no walk may use the Python stack for depth.
    """
    stack = [step(s, *args)]
    value = None
    while stack:
        try:
            stack.append(step(*stack[-1].send(value)))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def rebuild(s: Strategy, *args) -> Generator:
    """Step fragment for `yield from`: s with each child replaced by the
    result of the walk's call on (child, *args); a leaf is returned as
    it is."""
    changed = {}
    for f in CHILD_FIELDS.get(type(s), ()):
        changed[f] = yield getattr(s, f), *args
    return replace(s, **changed) if changed else s


def lookup(env: dict, name: str):
    """What env binds a strategy variable to."""
    try:
        return env[name]
    except KeyError:
        raise EngineError(f"unbound strategy variable {name!r}") from None


def fix_eq(f: Callable[[object], tuple], bottom: object) -> Generator:
    """Step fragment for `yield from`: the least fixpoint of the walk's
    result for the call f(x), by iteration from bottom (Kleene); callers
    guarantee that map is monotone over a finite-height lattice. A None
    result is the top of the lattice: it ends the iteration and is
    returned."""
    x = bottom
    while True:
        nxt = yield f(x)
        if nxt is None or nxt == x:
            return nxt
        x = nxt


def free_occurrences(s: Strategy) -> dict[str, int]:
    """How often each variable occurs in s outside every rec that binds
    it; variables with no free occurrence are absent."""
    counts: dict[str, int] = {}
    walk(_count_free, s, frozenset(), counts)
    return counts


def _count_free(s: Strategy, bound: frozenset[str], counts: dict[str, int]):
    if isinstance(s, Var) and s.name not in bound:
        counts[s.name] = counts.get(s.name, 0) + 1
    elif isinstance(s, Rec):
        bound = bound | {s.name}
    for child in children(s):
        yield child, bound, counts


def free_vars(s: Strategy) -> frozenset[str]:
    """The variables of s not bound by a rec around them."""
    return frozenset(free_occurrences(s))


# Scheme expansions introduce binders no surface program can mention:
# the DSL rejects '$' in identifiers, so these can never be captured.
# Outside binder_numbering they are numbered across the process.
_binder_numbers: ContextVar[Iterator[int]] = ContextVar(
    "binder_numbers", default=itertools.count(1)
)


@contextmanager
def binder_numbering():
    """Number the binders that scheme expansions introduce from $1 on
    within the block, so that the same program gets the same names each
    time it is built."""
    token = _binder_numbers.set(itertools.count(1))
    try:
        yield
    finally:
        _binder_numbers.reset(token)


def _fresh_var() -> str:
    return f"${next(_binder_numbers.get())}"


def substitute(s: Strategy, mapping: dict[str, Strategy]) -> Strategy:
    """Capture-avoiding substitution of variables by strategies."""
    if not mapping:
        return s
    return walk(_substitute, s, mapping)


def _substitute(s: Strategy, mapping: dict[str, Strategy]):
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
            body = yield s.body, {s.name: Var(renamed)}
            return Rec(renamed, (yield body, inner))
        mapping = inner
    return (yield from rebuild(s, mapping))


# ---------------------------------------------------------------------------
# Traversal schemes


class BogusSchemeWarning(UserWarning):
    """Raised for scheme instances that can never do useful work."""


def try_(s: Strategy) -> Strategy:
    return Choice(s, ID)


def repeat(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, try_(Seq(s, Var(v))))


def full_td(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, Seq(s, All(Var(v))))


def full_bu(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, Seq(All(Var(v)), s))


def once_td(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, Choice(s, One(Var(v))))


def once_bu(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, Choice(One(Var(v)), s))


def stop_td(s: Strategy) -> Strategy:
    v = _fresh_var()
    return Rec(v, Choice(s, All(Var(v))))


def stop_bu(s: Strategy) -> Strategy:
    warnings.warn(
        "stop_bu descends before it ever tries its argument, and a "
        "successful descent preempts it: the result is a deep identity "
        "traversal that never applies the argument",
        BogusSchemeWarning,
        stacklevel=2,
    )
    v = _fresh_var()
    return Rec(v, Choice(All(Var(v)), s))


def innermost(s: Strategy) -> Strategy:
    return repeat(once_bu(s))


# One-rule conveniences: a rule lifted with the identity default for the
# full traversals, and with the failure default for the searching ones.


def full_td1(rule: Rule) -> Strategy:
    return full_td(Adhoc(ID, rule))


def full_bu1(rule: Rule) -> Strategy:
    return full_bu(Adhoc(ID, rule))


def once_td1(rule: Rule) -> Strategy:
    return once_td(Adhoc(FAIL, rule))


def once_bu1(rule: Rule) -> Strategy:
    return once_bu(Adhoc(FAIL, rule))


def stop_td1(rule: Rule) -> Strategy:
    return stop_td(Adhoc(FAIL, rule))


def innermost1(rule: Rule) -> Strategy:
    return innermost(Adhoc(FAIL, rule))


def family(cases: list[Rule] | tuple[Rule, ...], default: Strategy) -> Strategy:
    """Layer many rules over one default, earlier cases taking priority.

    Two cases on the same sort would make the later one unreachable, so
    that is rejected outright rather than silently shadowed.
    """
    seen: dict[str, Rule] = {}
    for r in cases:
        prev = seen.get(r.sort)
        if prev is not None:
            raise StratkitError(
                f"family has two cases on sort {r.sort!r}: "
                f"{prev.name} shadows {r.name}"
            )
        seen[r.sort] = r
    out = default
    for r in reversed(tuple(cases)):
        out = Adhoc(out, r)
    return out


# ---------------------------------------------------------------------------
# Printing


def print_strategy(s: Strategy) -> str:
    """Concrete syntax with minimal parentheses; `;` binds tighter than
    `<+` and rec extends as far right as possible."""
    out: list[str] = []
    walk(_print, s, 0, out)
    return "".join(out)


#: the highest context precedence each form is printed in bare
_BARE_UP_TO = {Rec: 0, Choice: 0, Seq: 1}


def _print(s: Strategy, min_prec: int, out: list[str]):
    # a node's pieces are text or (child, precedence); the text is joined
    # once, so printing is linear in its length
    if isinstance(s, Seq):
        pieces = [(s.left, 1), " ; ", (s.right, 2)]
    elif isinstance(s, Choice):
        pieces = [(s.left, 0), " <+ ", (s.right, 1)]
    elif isinstance(s, Rec):
        pieces = [f"rec {s.name}. ", (s.body, 0)]
    elif isinstance(s, (All, One)):
        pieces = ["all(" if isinstance(s, All) else "one(", (s.body, 0), ")"]
    elif isinstance(s, Adhoc):
        pieces = ["adhoc(", (s.default, 0), f",{s.rule.name})"]
    elif isinstance(s, Var):
        pieces = [s.name]
    elif isinstance(s, RuleRef):
        pieces = [s.rule.name]
    elif isinstance(s, (Id, Fail)):
        pieces = ["id" if isinstance(s, Id) else "fail"]
    else:
        raise StratkitError(f"cannot print {s!r}")
    if min_prec > _BARE_UP_TO.get(type(s), 2):
        pieces = ["(", *pieces, ")"]
    for piece in pieces:
        if isinstance(piece, str):
            out.append(piece)
        else:
            yield piece[0], piece[1], out
