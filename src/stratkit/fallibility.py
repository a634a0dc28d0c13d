"""Success/failure analysis of strategies.

Two views of the same question, "can this strategy fail":

- an abstract interpretation over the four-point lattice None <
  {ForallSuccess, ExistsFailure} < Any, with a least fixpoint at rec;
- a two-point type system (True = infallible) with an optional strict
  mode that refuses a choice whose left operand is infallible, since
  the right operand can then never run.

A typing walk runs in one mode. The dead-choice scan is the lenient
walk's by-product, so the strict verdict and the scan are two walks: the
verdict is not read off the scan (`rec x. (x <+ fail)` types True
leniently, False strictly, and has one dead choice).

Rules enter the abstract domain as leaves: an annotated-infallible rule
whose left side is a bare variable without a guard really cannot fail
on its own sort, everything else can (pattern, guard, or sort mismatch).
Sort dispatch is neither sequencing nor backtracking, so Adhoc gets its
own conservative merge: infallible only when both branches are.
"""

from __future__ import annotations

import enum

from .errors import EngineError
from .strategies import (
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
    fix_eq,
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


def sf_analyse(s: Strategy, env: dict[str, Sf] | None = None) -> Sf:
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
    ctx: dict[str, bool] | None = None,
    strict: bool = False,
) -> bool | None:
    """True = infallible, False = possibly failing, None = untypable.

    In strict mode a choice with a True-typed left operand is untypable:
    its right operand is dead code.
    """
    typed = walk(_sf_type_of, s, ctx or {}, strict, None, [])
    if isinstance(typed, EngineError):
        raise typed
    return typed


def scan_dead_choices(
    s: Strategy, ctx: dict[str, bool] | None = None
) -> list[tuple[str, str]]:
    """All choices whose left operand types as infallible, as
    (path, rendered left operand) pairs. Paths are slash-joined field
    names from the root. Works on untypable expressions too: the scan
    only needs the left operand's own type.
    """
    slots: list = []
    walk(_sf_type_of, s, ctx or {}, False, None, slots)
    found: list[tuple[str, str]] = []
    for slot in slots:
        if isinstance(slot, EngineError):
            raise slot
        if slot is not None:
            path, left = slot
            fields = []
            while path is not None:
                field, path = path
                fields.append(field)
            found.append(("/".join(reversed(fields)) or "root", print_strategy(left)))
    return found


def _sf_type_of(
    s: Strategy, ctx: dict[str, bool], strict: bool, path: tuple | None, slots: list
):
    """The type of s, or the EngineError typing it raises, as a value:
    every child is typed, so one walk also scans for dead choices.

    Each choice and rec takes a slot where a pre-order scan would type
    it: (path, left operand) if the left operand types True, the error
    typing raised, or None. path links (field, parent's path) back to
    the root, None. A rec keeps the slots of its body under the
    assumption it settles on, fallible if none holds.
    """
    if isinstance(s, Choice):
        at = len(slots)
        slots.append(None)
        a = yield s.left, ctx, strict, ("left", path), slots
        if a is True:
            slots[at] = (path, s.left)
        elif isinstance(a, EngineError):
            slots[at] = a
        b = yield s.right, ctx, strict, ("right", path), slots
        if a is None or isinstance(a, EngineError):
            return a
        if strict and a is True:
            return None
        if b is None or isinstance(b, EngineError):
            return b
        return a or b
    if isinstance(s, Seq):
        a = yield s.left, ctx, strict, ("left", path), slots
        b = yield s.right, ctx, strict, ("right", path), slots
        for x in (a, b):
            if isinstance(x, EngineError):
                return x
        return None if a is None or b is None else a and b
    if isinstance(s, Rec):
        at = len(slots)
        slots.append(None)
        for assumption in (True, False):
            del slots[at + 1 :]
            got = yield s.body, {**ctx, s.name: assumption}, strict, ("body", path), slots
            if got is assumption or isinstance(got, EngineError):
                break
        else:
            got = None
        if isinstance(got, EngineError):
            slots[at] = got
        return got
    if isinstance(s, (All, One, Adhoc)):
        field = "default" if isinstance(s, Adhoc) else "body"
        a = yield getattr(s, field), ctx, strict, (field, path), slots
        if a is None or isinstance(a, EngineError) or isinstance(s, All):
            return a
        return False if isinstance(s, One) else a and rule_infallible(s.rule)
    if isinstance(s, Id):
        return True
    if isinstance(s, Fail):
        return False
    if isinstance(s, RuleRef):
        return rule_infallible(s.rule)
    if isinstance(s, Var):
        try:
            return lookup(ctx, s.name)
        except EngineError as exc:
            return exc
    return EngineError(f"cannot type {s!r}")
