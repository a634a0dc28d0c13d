"""Reachability of sort-specific cases, for dead-code detection.

The analysis computes, for every sort the root term might have, which
named rules a strategy could end up applying somewhere below such a
root. It deliberately ignores the difference between sequence and
choice and between all and one: the result is a safe over-approximation
(a case absent from the map is definitely unreachable; a case present
may still never fire).
"""

from __future__ import annotations

from .errors import EngineError, SignatureError
from .strategies import (
    Adhoc,
    All,
    Choice,
    Fail,
    Id,
    One,
    Rec,
    Rule,
    RuleRef,
    Seq,
    Strategy,
    Var,
    children,
    fix_eq,
    lookup,
    rule_names,
    walk,
)
from .terms import Signature, Sort

# total map sort -> reachable case names
ReachMap = dict[Sort, frozenset[str]]

OVER_REPORT_NOTE = (
    "note: reachable sets may over-report; cases listed as unreachable "
    "are definitely dead"
)


def reach_bottom(sig: Signature) -> ReachMap:
    empty: frozenset[str] = frozenset()
    return {s: empty for s in sig.sorts}


def reach_lub(a: ReachMap, b: ReachMap) -> ReachMap:
    return {s: a[s] | b[s] for s in a}


def reach_transform(sig: Signature, m: ReachMap) -> ReachMap:
    """One layer down: what is reachable from a sort's immediate
    argument positions."""
    out: ReachMap = {}
    for so in m:
        acc: frozenset[str] = frozenset()
        for arg in sig.arg_sorts_of_sort(so):
            acc |= m[arg]
        out[so] = acc
    return out


def _rule_map(sig: Signature, rule: Rule) -> ReachMap:
    m = reach_bottom(sig)
    if rule.sort not in m:
        raise SignatureError(
            f"rule {rule.name!r} is on sort {rule.sort!r}, "
            "which the signature does not declare"
        )
    m[rule.sort] = frozenset(rule_names(rule))
    return m


def reach_analyse(
    sig: Signature,
    s: Strategy,
    env: dict[str, ReachMap] | None = None,
) -> ReachMap:
    return walk(_reach_analyse, s, sig, env or {})


def _reach_analyse(s: Strategy, sig: Signature, env: dict[str, ReachMap]):
    if isinstance(s, (Id, Fail)):
        return reach_bottom(sig)
    if isinstance(s, (Seq, Choice)):
        return reach_lub((yield s.left, sig, env), (yield s.right, sig, env))
    if isinstance(s, Var):
        return lookup(env, s.name)
    if isinstance(s, Rec):
        bottom = reach_bottom(sig)
        return (yield from fix_eq(lambda m: (s.body, sig, {**env, s.name: m}), bottom))
    if isinstance(s, (All, One)):
        return reach_transform(sig, (yield s.body, sig, env))
    if isinstance(s, (RuleRef, Adhoc)):  # a bare rule's default: see RuleRef
        return reach_lub((yield s.default, sig, env), _rule_map(sig, s.rule))
    raise EngineError(f"cannot analyse {s!r}")


def mentioned_cases(s: Strategy) -> frozenset[str]:
    """Names of all rules appearing syntactically in s."""
    out: set[str] = set()
    walk(_mention_cases, s, out)
    return frozenset(out)


def _mention_cases(s: Strategy, out: set[str]):
    if isinstance(s, (RuleRef, Adhoc)):
        out.update(rule_names(s.rule))
    for child in children(s):
        yield child, out


def dead_case_report(
    sig: Signature, main: Strategy, root: Sort
) -> list[tuple[str, str]]:
    """Cases mentioned in main that cannot fire below a root of the
    given sort, each with a one-line diagnostic."""
    return reach_report(sig, main, root)[1]


def reach_report(sig: Signature, main: Strategy, root: Sort) -> tuple[ReachMap, list]:
    """main's reachability map and dead_case_report from it. An unknown
    root is reported before the analysis runs."""
    if root not in sig.sorts:
        raise SignatureError(f"unknown root sort {root!r}")
    rmap = reach_analyse(sig, main)
    dead = mentioned_cases(main) - rmap[root]
    return rmap, [(n, f"case {n!r} is unreachable from root sort {root!r}") for n in sorted(dead)]
