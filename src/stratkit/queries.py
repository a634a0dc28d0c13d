"""Type-unifying queries: collect values from a term into a monoid.

Queries mirror the strategy combinators, but instead of rebuilding a
term they produce a value, and instead of failing they yield no-result.
A fixed set of monoids keeps the value side closed: every query run is
checked against one monoid, and a query case extracting the wrong kind
of value is a load/run-time diagnostic instead of a silent coercion.

The collection schemes walk terms with an explicit stack; host
recursion depth stays proportional to the query expression, never the
term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Optional, Union

from .errors import EngineError, KindError
from .terms import (
    Lit,
    Pattern,
    Signature,
    Term,
    instantiate,
    match,
    sort_of,
)


class _NoResult:
    __slots__ = ()

    def __repr__(self):
        return "NO_RESULT"


#: the query analogue of strategy failure
NO_RESULT = _NoResult()


@dataclass(frozen=True)
class MonoidSpec:
    name: str
    unit: object
    combine: Callable[[object, object], object]
    #: combines a list of values at once, equal to folding them into
    #: `unit` with `combine` from the left, in time linear in their size
    fold: Callable[[list], object]
    #: value kind: int | float | number | list
    kind: str

    def accepts(self, v) -> bool:
        if self.kind == "int":
            return type(v) is int
        if self.kind == "float":
            return type(v) is float
        if self.kind == "number":
            return type(v) in (int, float)
        return type(v) is list


def _max_combine(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


MONOIDS: dict[str, MonoidSpec] = {
    "int-sum": MonoidSpec("int-sum", 0, add, sum, "int"),
    "count": MonoidSpec("count", 0, add, sum, "int"),
    # not sum(): from Python 3.12 on it compensates float rounding
    "float-sum": MonoidSpec(
        "float-sum", 0.0, add, lambda xs: reduce(add, xs, 0.0), "float"
    ),
    "list": MonoidSpec(
        "list", [], add, lambda xss: [x for xs in xss for x in xs], "list"
    ),
    "max": MonoidSpec(
        "max", None, _max_combine, lambda xs: reduce(_max_combine, xs, None), "number"
    ),
}


def get_monoid(name: str) -> MonoidSpec:
    try:
        return MONOIDS[name]
    except KeyError:
        known = ", ".join(sorted(MONOIDS))
        raise KindError(f"unknown monoid {name!r} (known: {known})") from None


# ---------------------------------------------------------------------------
# Query syntax


class _Unit:
    __slots__ = ()

    def __repr__(self):
        return "UNIT"


#: placeholder in ConstQ for "this monoid's unit"
UNIT = _Unit()


@dataclass(frozen=True)
class QueryRule:
    """A sort-specific extraction: match lhs, build the extract pattern
    under the binding, and read the value off the resulting term."""

    name: str
    sort: str
    lhs: Pattern
    extract: Pattern


@dataclass(frozen=True)
class ConstQ:
    value: object


@dataclass(frozen=True)
class FailQ:
    pass


@dataclass(frozen=True)
class BothQ:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class ChoiceQ:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class AllQ:
    body: "QueryExpr"


@dataclass(frozen=True)
class AdhocQ:
    default: "QueryExpr"
    case: QueryRule


@dataclass(frozen=True)
class FullCl:
    body: "QueryExpr"


@dataclass(frozen=True)
class StopCl:
    body: "QueryExpr"


@dataclass(frozen=True)
class OnceCl:
    body: "QueryExpr"


QueryExpr = Union[
    ConstQ, FailQ, BothQ, ChoiceQ, AllQ, AdhocQ, FullCl, StopCl, OnceCl
]


def check_query_kinds(q: QueryExpr, monoid: MonoidSpec) -> None:
    """Load-time check of every constant against the monoid's kind.
    Extraction results can only be checked when a term is at hand."""
    stack = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, ConstQ):
            if node.value is not UNIT and not monoid.accepts(node.value):
                raise KindError(
                    f"constant {node.value!r} does not fit monoid "
                    f"{monoid.name!r}"
                )
        elif isinstance(node, (BothQ, ChoiceQ)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (AllQ, FullCl, StopCl, OnceCl)):
            stack.append(node.body)
        elif isinstance(node, AdhocQ):
            stack.append(node.default)


def _extracted_value(case: QueryRule, out: Term, monoid: MonoidSpec):
    if monoid.kind == "list":
        return [out]
    if isinstance(out, Lit) and monoid.accepts(out.value):
        return out.value
    raise KindError(
        f"case {case.name!r} extracted {out!r}, which does not fit "
        f"monoid {monoid.name!r}"
    )


def _apply_case(case: QueryRule, t: Term, monoid: MonoidSpec):
    binding = match(case.lhs, t)
    if binding is None:
        return NO_RESULT
    return _extracted_value(case, instantiate(case.extract, binding), monoid)


def run_query(sig: Signature, q: QueryExpr, t: Term, monoid: MonoidSpec):
    """Value of q at t, or NO_RESULT."""
    if isinstance(q, ConstQ):
        return monoid.unit if q.value is UNIT else q.value
    if isinstance(q, FailQ):
        return NO_RESULT
    if isinstance(q, BothQ):
        a = run_query(sig, q.left, t, monoid)
        if a is NO_RESULT:
            return NO_RESULT
        b = run_query(sig, q.right, t, monoid)
        if b is NO_RESULT:
            return NO_RESULT
        return monoid.combine(a, b)
    if isinstance(q, ChoiceQ):
        a = run_query(sig, q.left, t, monoid)
        if a is not NO_RESULT:
            return a
        return run_query(sig, q.right, t, monoid)
    if isinstance(q, AllQ):
        hits = []
        for c in t.children:
            r = run_query(sig, q.body, c, monoid)
            if r is NO_RESULT:
                return NO_RESULT
            hits.append(r)
        return monoid.fold(hits)
    if isinstance(q, AdhocQ):
        if sort_of(sig, t) == q.case.sort:
            return _apply_case(q.case, t, monoid)
        return run_query(sig, q.default, t, monoid)
    if isinstance(q, FullCl):
        # every node contributes, preorder; a no-result node counts as
        # the unit so collection is total
        hits = []
        stack = [t]
        while stack:
            x = stack.pop()
            r = run_query(sig, q.body, x, monoid)
            if r is not NO_RESULT:
                hits.append(r)
            stack.extend(reversed(x.children))
        return monoid.fold(hits)
    if isinstance(q, StopCl):
        # a hit contributes and stops the descent below that node
        hits = []
        stack = [t]
        while stack:
            x = stack.pop()
            r = run_query(sig, q.body, x, monoid)
            if r is not NO_RESULT:
                hits.append(r)
            else:
                stack.extend(reversed(x.children))
        return monoid.fold(hits)
    if isinstance(q, OnceCl):
        # first hit in preorder, left to right
        stack = [t]
        while stack:
            x = stack.pop()
            r = run_query(sig, q.body, x, monoid)
            if r is not NO_RESULT:
                return r
            stack.extend(reversed(x.children))
        return NO_RESULT
    raise EngineError(f"cannot run {q!r}")
