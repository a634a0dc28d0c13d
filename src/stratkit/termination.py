"""Termination checking by symbolic measure tracking.

A measure is an ordered list of components, constructor counts first
and term depth as the mandatory final component. `Measure` holds only
the counted constructors, so depth is last, and only there, by
construction; `parse_measure` rejects a text that puts it elsewhere.

The analysis tracks, through the body of each recursive closure, how
the measure of the current term relates to the measure at the closure's
entry: not increased (Leq), strictly decreased (Less), or unknown (Any).
A recursive reference is admissible only where the tracked vector is
lexicographically below the entry measure, which is exactly the
induction principle that justifies the recursion. The effect of a rec
is the least fixpoint of its body's effect, iterated up from Less in
every component.

`no-type` (None here) means termination was not proven, never that the
strategy diverges.
"""

from __future__ import annotations

import enum

from .errors import EngineError, ParseError
from .records import record
from .strategies import (
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
    fix_eq,
    lookup,
    walk,
)
from .terms import Pattern, PNode, PVar


class Rel(enum.Enum):
    LEQ = "Leq"
    LESS = "Less"
    ANY = "Any"

    def __str__(self) -> str:
        return self.value


LEQ = Rel.LEQ
LESS = Rel.LESS
ANY = Rel.ANY


#: the chain Less < Leq < Any
_RANK = {LESS: 0, LEQ: 1, ANY: 2}


def rel_leq(x: Rel, y: Rel) -> bool:
    return _RANK[x] <= _RANK[y]


def rel_lub(x: Rel, y: Rel) -> Rel:
    return x if _RANK[x] >= _RANK[y] else y


def rel_plus(x: Rel, y: Rel) -> Rel:
    """Composition of two effects in sequence."""
    if x is ANY or y is ANY:
        return ANY
    if x is LESS or y is LESS:
        return LESS
    return LEQ


def rel_decrease(x: Rel) -> Rel:
    return LESS if x is LEQ else x


def rel_increase(x: Rel) -> Rel:
    if x is LESS:
        return LEQ
    return ANY


def parse_rel(text: str) -> Rel:
    try:
        return {"leq": LEQ, "less": LESS, "any": ANY}[text.strip().lower()]
    except KeyError:
        raise ParseError(f"unknown measure relation {text!r}") from None


# ---------------------------------------------------------------------------
# Measures and relation vectors


@record
class Measure:
    """The constructors counted, most significant first; depth, always
    the last component, is implied."""

    counts: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.counts) + 1

    def __str__(self) -> str:
        return ",".join([*(f"count:{c}" for c in self.counts), "depth"])


DEPTH_MEASURE = Measure(())


def parse_measure(text: str) -> Measure:
    """`count:C,count:D,depth` — counts most significant first, depth
    mandatory last."""
    parts = [raw.strip() for raw in text.split(",")]
    counts = []
    for part in parts:
        if part.startswith("count:"):
            constr = part[6:].strip()
            if not constr:
                raise ParseError("count component needs a constructor name")
            counts.append(constr)
        elif part != "depth":
            raise ParseError(f"unknown measure component {part!r}")
    if parts[-1] != "depth":
        raise ParseError("measure must end with the depth component")
    if len(counts) != len(parts) - 1:
        raise ParseError("depth may appear only once, in last position")
    return Measure(tuple(counts))


RelVec = tuple[Rel, ...]


def leqs(m: Measure) -> RelVec:
    return (LEQ,) * len(m)


def vec_leq(a: RelVec, b: RelVec) -> bool:
    return all(rel_leq(x, y) for x, y in zip(a, b))


def vec_lub(a: RelVec, b: RelVec) -> RelVec:
    return tuple(rel_lub(x, y) for x, y in zip(a, b))


def vec_plus(a: RelVec, b: RelVec) -> RelVec:
    return tuple(rel_plus(x, y) for x, y in zip(a, b))


def lex_admissible(r: RelVec) -> bool:
    """Strictly below the all-Leq entry vector, lexicographically with
    the most significant component first."""
    for x in r:
        if x is LESS:
            return True
        if x is ANY:
            return False
    return False


def show_vec(r: RelVec | None) -> str:
    if r is None:
        return "NOT PROVEN"
    return "[" + ",".join(str(x) for x in r) + "]"


# ---------------------------------------------------------------------------
# Rule effects
#
# The measure effect of a rewrite rule is judged from its patterns
# alone, over all substitutions at once. Guards only shrink the set of
# substitutions, so they are ignored; that can lose precision but never
# soundness.


def _pat_shape(p: Pattern) -> tuple[int, dict[str, int], dict[str, int], dict[str, int]]:
    """One walk over a pattern: its depth with variables and literals as
    depth-1 leaves; per variable, the most constructor edges from the
    root to an occurrence, and its number of occurrences; per
    constructor, its number of occurrences."""
    depth, paths, mults, counts = 0, {}, {}, {}
    stack: list[tuple[Pattern, int]] = [(p, 0)]
    while stack:
        q, d = stack.pop()
        depth = max(depth, d + 1)
        if isinstance(q, PVar):
            paths[q.name] = max(d, paths.get(q.name, -1))
            mults[q.name] = mults.get(q.name, 0) + 1
        elif isinstance(q, PNode):
            counts[q.constr] = counts.get(q.constr, 0) + 1
            stack.extend((c, d + 1) for c in q.children)
    return depth, paths, mults, counts


def rule_effect_check(rule: RuleDef, m: Measure) -> RelVec:
    (ls, lpaths, lm, lc), (rs, rpaths, rm, rc) = _pat_shape(rule.lhs), _pat_shape(rule.rhs)
    out: list[Rel] = []
    for constr in m.counts:
        before, after = lc.get(constr, 0), rc.get(constr, 0)
        if after > before or any(n > lm.get(x, 0) for x, n in rm.items()):
            out.append(ANY)
        else:
            out.append(LESS if after < before else LEQ)
    # depth(rhs θ) is the max of its static depth and, per variable,
    # deepest occurrence distance plus depth(θ x); bound each part by the
    # matching lower bound on depth(lhs θ)
    if rs > ls or any(d > lpaths.get(x, -1) for x, d in rpaths.items()):
        out.append(ANY)
    elif rs < ls and all(d < lpaths.get(x, -1) for x, d in rpaths.items()):
        out.append(LESS)
    else:
        out.append(LEQ)
    return tuple(out)


def rule_effect(rule: Rule, m: Measure) -> RelVec:
    """Effect vector a rule contributes to the analysis: the declared
    claim when it fits the measure, the checked effect otherwise.
    Alternatives take the lub of members, pipelines the sum."""
    if isinstance(rule, RuleDef):
        claim = rule.effect_claim
        if claim is not None and len(claim) == len(m):
            return claim
        return rule_effect_check(rule, m)
    effects = [rule_effect(r, m) for r in rule.members]
    acc = effects[0]
    for e in effects[1:]:
        acc = vec_lub(acc, e) if isinstance(rule, RuleChoice) else vec_plus(acc, e)
    return acc


def verify_annotations(rules, m: Measure) -> list[str]:
    """Check declared effect claims against what the patterns prove.
    A claim may be weaker than the checked effect, never stronger."""
    out: list[str] = []
    for rule in rules:
        claim = rule.effect_claim
        if claim is None:
            continue
        if len(claim) != len(m):
            out.append(
                f"rule {rule.name}: effect claim has {len(claim)} "
                f"components but measure {m} has {len(m)}"
            )
            continue
        checked = rule_effect_check(rule, m)
        if not vec_leq(checked, claim):
            out.append(
                f"rule {rule.name}: claims {show_vec(claim)} but patterns "
                f"only support {show_vec(checked)}"
            )
    return out


# ---------------------------------------------------------------------------
# The analysis

#: env value: (effect vector, is-recursive-reference)
TermEnv = dict[str, tuple[RelVec, bool]]


def term_analyse(
    s: Strategy,
    m: Measure,
    r: RelVec,
    env: TermEnv | None = None,
) -> RelVec | None:
    return walk(_term_analyse, s, m, r, env or {})


def _term_analyse(s: Strategy, m: Measure, r: RelVec, env: TermEnv):
    n = len(m)
    if isinstance(s, Id):
        return r
    if isinstance(s, Fail):
        return (LESS,) * n
    if isinstance(s, Seq):
        left = yield s.left, m, r, env
        if left is None:
            return None
        return (yield s.right, m, left, env)
    if isinstance(s, Choice):
        a = yield s.left, m, r, env
        b = yield s.right, m, r, env
        if a is None or b is None:
            return None
        return vec_lub(a, b)
    if isinstance(s, Var):
        eff, recursive = lookup(env, s.name)
        if len(eff) != n:
            raise EngineError(
                f"effect for {s.name!r} has {len(eff)} components, "
                f"measure has {n}"
            )
        if recursive and not lex_admissible(r):
            return None
        return vec_plus(r, eff)
    if isinstance(s, Rec):
        # every case is monotone in the binder's vector (None on top), so
        # the least fixpoint is below every vector the body stays within,
        # and None means there is no such vector
        e = yield from fix_eq(
            lambda e: (s.body, m, leqs(m), {**env, s.name: (e, True)}), (LESS,) * n
        )
        return None if e is None else vec_plus(r, e)
    if isinstance(s, (All, One)):
        down = r[:-1] + (rel_decrease(r[-1]),)
        got = yield s.body, m, down, env
        if got is None:
            return None
        prefix = got[:-1]
        if isinstance(s, All):
            # all() succeeds vacuously on a leaf, so a strict count
            # decrease cannot survive it; one() always fires on a child.
            prefix = tuple(rel_lub(a, b) for a, b in zip(r[:-1], prefix))
        return prefix + (rel_increase(got[-1]),)
    if isinstance(s, (RuleRef, Adhoc)):  # a bare rule's default: see RuleRef
        a = yield s.default, m, r, env
        if a is None:
            return None
        return vec_lub(a, vec_plus(r, rule_effect(s.rule, m)))
    raise EngineError(f"cannot analyse {s!r}")


def term_type_of(
    s: Strategy, m: Measure, env: TermEnv | None = None
) -> RelVec | None:
    return term_analyse(s, m, leqs(m), env)
