"""Success/failure analysis of strategies.

Two views of the same question, "can this strategy fail":

- an abstract interpretation over the four-point lattice None <
  {ForallSuccess, ExistsFailure} < Any, with a least fixpoint at rec;
- a two-point type system (True = infallible) with an optional strict
  mode that refuses a choice whose left operand is infallible, since
  the right operand can then never run.

Rules enter the abstract domain as leaves: an annotated-infallible rule
whose left side is a bare variable without a guard really cannot fail
on its own sort, everything else can (pattern, guard, or sort mismatch).
Sort dispatch is neither sequencing nor backtracking, so Adhoc gets its
own conservative merge: infallible only when both branches are.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional, TypeVar

from .errors import EngineError
from .strategies import (
    CHILD_FIELDS,
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    Rule,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    Var,
    lookup,
    print_strategy,
    walk,
)
from .terms import PVar


class Sf(enum.Enum):
    NONE = "None"
    FORALL_SUCCESS = "ForallSuccess"
    EXISTS_FAILURE = "ExistsFailure"
    ANY = "Any"

    def __str__(self) -> str:
        return self.value


NONE = Sf.NONE
FS = Sf.FORALL_SUCCESS
EF = Sf.EXISTS_FAILURE
ANY = Sf.ANY


def sf_leq(x: Sf, y: Sf) -> bool:
    if x is NONE or y is ANY:
        return True
    return x is y


def sf_lub(x: Sf, y: Sf) -> Sf:
    if x is NONE:
        return y
    if y is NONE:
        return x
    if x is ANY or y is ANY:
        return ANY
    return x if x is y else ANY


def sf_seq(x: Sf, y: Sf) -> Sf:
    """Failure of the first operand decides; success needs both, and a
    fallible second operand ruins even an infallible first one."""
    if x is NONE:
        return NONE
    if x is FS:
        if y is NONE:
            return NONE
        if y is FS:
            return FS
        return ANY
    if x is EF:
        return EF
    return ANY


def sf_choice(x: Sf, y: Sf) -> Sf:
    """Either infallible operand makes the choice infallible; definite
    failure is never inferable (the two failure points may differ)."""
    if x is FS or y is FS:
        return FS
    if x is NONE or y is NONE:
        return NONE
    return ANY


_X = TypeVar("_X")


def fix_eq(f: Callable[[_X], tuple], bottom: _X) -> Generator:
    """Step fragment for `yield from`: the least fixpoint of the walk's
    result for the call f(x), by iteration from bottom; callers
    guarantee that map is monotone over a finite-height lattice."""
    x = bottom
    while True:
        nxt = yield f(x)
        if nxt == x:
            return x
        x = nxt


def rule_infallible(rule: Rule) -> bool:
    """On-its-own-sort infallibility. Only an annotated plain RuleDef
    with a variable left side and no guard qualifies; composites are
    conservatively fallible."""
    return (
        isinstance(rule, RuleDef)
        and rule.infallible
        and isinstance(rule.lhs, PVar)
        and rule.guard is None
    )


def sf_analyse(s: Strategy, env: Optional[dict[str, Sf]] = None) -> Sf:
    return walk(_sf_analyse, s, env or {})


def _sf_analyse(s: Strategy, env: dict[str, Sf]):
    if isinstance(s, Id):
        return FS
    if isinstance(s, Fail):
        return EF
    if isinstance(s, Seq):
        return sf_seq((yield s.left, env), (yield s.right, env))
    if isinstance(s, Choice):
        return sf_choice((yield s.left, env), (yield s.right, env))
    if isinstance(s, Var):
        return lookup(env, s.name)
    if isinstance(s, Rec):
        return (yield from fix_eq(lambda x: (s.body, {**env, s.name: x}), NONE))
    if isinstance(s, All):
        return (yield s.body, env)
    if isinstance(s, One):
        return EF
    if isinstance(s, RuleRef):
        return FS if rule_infallible(s.rule) else EF
    if isinstance(s, Adhoc):
        d = yield s.default, env
        r = FS if rule_infallible(s.rule) else EF
        if d is NONE:
            return NONE
        if d is FS and r is FS:
            return FS
        if d is EF or r is EF:
            return EF
        return ANY
    raise EngineError(f"cannot analyse {s!r}")


# ---------------------------------------------------------------------------
# Type system


def sf_type_of(
    s: Strategy,
    ctx: Optional[dict[str, bool]] = None,
    strict: bool = False,
) -> Optional[bool]:
    """True = infallible, False = possibly failing, None = untypable.

    In strict mode a choice with a True-typed left operand is untypable:
    its right operand is dead code.
    """
    return walk(_sf_type_of, s, ctx or {}, strict)


def _sf_type_of(s: Strategy, ctx: dict[str, bool], strict: bool):
    if isinstance(s, Id):
        return True
    if isinstance(s, Fail):
        return False
    if isinstance(s, Seq):
        a = yield s.left, ctx, strict
        b = yield s.right, ctx, strict
        if a is None or b is None:
            return None
        return a and b
    if isinstance(s, Choice):
        a = yield s.left, ctx, strict
        if a is None:
            return None
        if strict and a is True:
            return None
        b = yield s.right, ctx, strict
        if b is None:
            return None
        return a or b
    if isinstance(s, Var):
        return lookup(ctx, s.name)
    if isinstance(s, Rec):
        for assumption in (True, False):
            got = yield s.body, {**ctx, s.name: assumption}, strict
            if got == assumption:
                return assumption
        return None
    if isinstance(s, All):
        return (yield s.body, ctx, strict)
    if isinstance(s, One):
        if (yield s.body, ctx, strict) is None:
            return None
        return False
    if isinstance(s, RuleRef):
        return rule_infallible(s.rule)
    if isinstance(s, Adhoc):
        a = yield s.default, ctx, strict
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
    found: list[tuple[str, str]] = []
    walk(_scan_dead_choices, s, ctx or {}, None, found)
    return found


def _scan_dead_choices(
    node: Strategy, ctx: dict[str, bool], path: Optional[tuple], found: list
):
    # path links (field, parent's path) back to the root, None; it is
    # spelt out only for a finding, so the scan stays linear
    if isinstance(node, Choice):
        if sf_type_of(node.left, ctx) is True:
            fields = []
            while path is not None:
                field, path = path
                fields.append(field)
            text = "/".join(reversed(fields)) or "root"
            found.append((text, print_strategy(node.left)))
    elif isinstance(node, Rec):
        # scan under the optimistic assumption first; if the body
        # does not support it, fall back to fallible
        assumed = sf_type_of(node, ctx)
        ctx = {**ctx, node.name: bool(assumed)}
    for field in CHILD_FIELDS.get(type(node), ()):
        yield getattr(node, field), ctx, (field, path), found
