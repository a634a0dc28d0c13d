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
from typing import Optional

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
    return _raised(_typing(s, ctx, [])[strict])


def scan_dead_choices(
    s: Strategy, ctx: Optional[dict[str, bool]] = None
) -> list[tuple[str, str]]:
    """All choices whose left operand types as infallible, as
    (path, rendered left operand) pairs. Paths are slash-joined field
    names from the root. Works on untypable expressions too: the scan
    only needs the left operand's own type.
    """
    slots: list = []
    _typing(s, ctx, slots)
    return _findings(slots)


def sf_strict(s: Strategy, ctx: Optional[dict[str, bool]] = None) -> tuple:
    """sf_type_of(s, ctx, strict=True) and scan_dead_choices(s, ctx), or
    what the first of them raises, from one typing walk."""
    slots: list = []
    return _raised(_typing(s, ctx, slots)[True]), _findings(slots)


def _typing(s: Strategy, ctx: Optional[dict[str, bool]], slots: list) -> tuple:
    return walk(_sf_type_of, s, {n: (t, t) for n, t in (ctx or {}).items()}, None, slots)


def _raised(typed):
    if isinstance(typed, EngineError):
        raise typed
    return typed


def _findings(slots: list) -> list[tuple[str, str]]:
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


def _sf_type_of(s: Strategy, ctx: dict[str, tuple], path: Optional[tuple], slots: list):
    """The pair (type, strict type) of s under ctx, which binds pairs;
    each is the EngineError typing raises, as a value. Every child is
    typed, so one walk also scans for dead choices.

    Each choice and rec takes a slot where a pre-order scan would type
    it: (path, left operand) if the left operand types True, the error
    typing raised, or None. path links (field, parent's path) back to
    the root, None. A rec keeps its body's slots under the assumption
    its type settles on, fallible if none holds; each mode settles alone.
    """
    if isinstance(s, Choice):
        at = len(slots)
        slots.append(None)
        a = yield s.left, ctx, ("left", path), slots
        if a[0] is True:
            slots[at] = (path, s.left)
        elif isinstance(a[0], EngineError):
            slots[at] = a[0]
        b = yield s.right, ctx, ("right", path), slots
        return _choice(a[0], b[0], False), _choice(a[1], b[1], True)
    if isinstance(s, Seq):
        a = yield s.left, ctx, ("left", path), slots
        b = yield s.right, ctx, ("right", path), slots
        return _seq(a[0], b[0]), _seq(a[1], b[1])
    if isinstance(s, Rec):
        at = len(slots)
        slots.append(None)
        down = ("body", path)
        got = yield s.body, {**ctx, s.name: (True, True)}, down, slots
        # per mode: whether the body settles on the True assumption
        kept = tuple(g is True or isinstance(g, EngineError) for g in got)
        if kept != (True, True):
            del slots[at + 1 :]
            again = yield s.body, {**ctx, s.name: kept}, down, slots
            # an unkept mode settles on False, or on nothing if True holds
            got = tuple(g if k else None if h is True else h for g, h, k in zip(got, again, kept))
        if isinstance(got[0], EngineError):
            slots[at] = got[0]
        return got
    if isinstance(s, (All, One, Adhoc)):
        field = "default" if isinstance(s, Adhoc) else "body"
        a = yield getattr(s, field), ctx, (field, path), slots
        return _unary(s, a[0]), _unary(s, a[1])
    if isinstance(s, Id):
        return True, True
    if isinstance(s, Fail):
        return False, False
    if isinstance(s, RuleRef):
        r = rule_infallible(s.rule)
        return r, r
    if isinstance(s, Var):
        try:
            return lookup(ctx, s.name)
        except EngineError as exc:
            return exc, exc
    exc = EngineError(f"cannot type {s!r}")
    return exc, exc


def _seq(a, b):
    for x in (a, b):
        if isinstance(x, EngineError):
            return x
    return None if a is None or b is None else a and b


def _choice(a, b, strict: bool):
    if a is None or isinstance(a, EngineError):
        return a
    if strict and a is True:
        return None
    if b is None or isinstance(b, EngineError):
        return b
    return a or b


def _unary(s: Strategy, a):
    if a is None or isinstance(a, EngineError) or isinstance(s, All):
        return a
    return False if isinstance(s, One) else a and rule_infallible(s.rule)
