"""Type-unifying queries: collect values from a term into a monoid.

Queries mirror the strategy combinators, but instead of rebuilding a
term they produce a value, and instead of failing they yield no-result.
A fixed set of monoids keeps the value side closed: every query run is
checked against one monoid, and a query case extracting the wrong kind
of value is a load/run-time diagnostic instead of a silent coercion.

A query is compiled once, by `compile_query`, to one closure fixed to
a signature and a monoid, as interp compiles strategies and on the same
explicit-stack walk: the query's constructors are dispatched on at
compile time, not at each visited node. A chain of `adhocq` cases over
one default becomes one table keyed by sort, the outermost case on a
sort winning, and a `<+q` chain, nested either way, one loop over its
alternatives. A case is the rewrite `terms.compile_rewrite` builds for
strategy rules, followed by reading the value off its result: an
extraction using a variable the case does not bind is a TermError at
compile time, and one that does not fit the monoid raises KindError
when it fires. `run_query` compiles and applies in one call.

The collection schemes walk terms with an explicit stack; host
recursion depth stays proportional to the query expression, never the
term.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from collections.abc import Callable

from .errors import EngineError, KindError
from .records import record
from .strategies import walk
from .terms import Lit, Pattern, Signature, Term, compile_rewrite


class _NoResult:
    __slots__ = ()

    def __repr__(self):
        return "NO_RESULT"


#: the query analogue of strategy failure
NO_RESULT = _NoResult()


@record
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


@record
class QueryRule:
    """A sort-specific extraction: match lhs, build the extract pattern
    under the binding, and read the value off the resulting term."""

    name: str
    sort: str
    lhs: Pattern
    extract: Pattern


@record
class ConstQ:
    value: object


@record
class FailQ:
    pass


@record
class BothQ:
    left: "QueryExpr"
    right: "QueryExpr"


@record
class ChoiceQ:
    left: "QueryExpr"
    right: "QueryExpr"


@record
class AllQ:
    body: "QueryExpr"


@record
class AdhocQ:
    default: "QueryExpr"
    case: QueryRule


@record
class FullCl:
    body: "QueryExpr"


@record
class StopCl:
    body: "QueryExpr"


@record
class OnceCl:
    body: "QueryExpr"


QueryExpr = ConstQ | FailQ | BothQ | ChoiceQ | AllQ | AdhocQ | FullCl | StopCl | OnceCl


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


# ---------------------------------------------------------------------------
# Query compilation
#
# Closures Term -> value | NO_RESULT, built by one walk of the query on
# an explicit stack; compiling never looks at a term.


def run_query(sig: Signature, q: QueryExpr, t: Term, monoid: MonoidSpec):
    """Value of q at t, or NO_RESULT."""
    return compile_query(sig, q, monoid)(t)


def compile_query(sig: Signature, q: QueryExpr, monoid: MonoidSpec):
    """Closure giving the value of q at a term, or NO_RESULT."""
    return walk(_compile, q, sig, monoid)


def _compile(q: QueryExpr, sig: Signature, monoid: MonoidSpec):
    if isinstance(q, ConstQ):
        value = monoid.unit if q.value is UNIT else q.value
        return lambda t: value
    if isinstance(q, FailQ):
        return lambda t: NO_RESULT
    if isinstance(q, AdhocQ):
        # A chain of cases over one default is one table keyed by sort.
        # The outermost case on a sort shadows the inner ones, as it did
        # when each case tested the sort in turn.
        cases = {}
        while isinstance(q, AdhocQ):
            cases.setdefault(q.case.sort, _compile_case(q.case, monoid))
            q = q.default
        default = yield q, sig, monoid
        case_for = cases.get
        constr_sort = sig.constr_sort
        symbol = sig.symbol

        def adhoc(t):
            if type(t) is Lit:
                return case_for(t.sort, default)(t)
            try:
                sort = constr_sort[t.constr]
            except KeyError:
                # an unvalidated term: the same SignatureError as sort_of
                sort = symbol(t.constr).result_sort
            return case_for(sort, default)(t)

        return adhoc
    if isinstance(q, ChoiceQ):
        # left-biased choice is associative, so a chain nested either
        # way is one loop over its alternatives, left to right
        alts = []
        todo = [q]
        while todo:
            x = todo.pop()
            if isinstance(x, ChoiceQ):
                todo += (x.right, x.left)
            else:
                alts.append((yield x, sig, monoid))

        def choice(t):
            for alt in alts:
                r = alt(t)
                if r is not NO_RESULT:
                    return r
            return NO_RESULT

        return choice
    if isinstance(q, BothQ):
        left = yield q.left, sig, monoid
        right = yield q.right, sig, monoid
        combine = monoid.combine

        def both(t):
            a = left(t)
            if a is NO_RESULT:
                return a
            b = right(t)
            if b is NO_RESULT:
                return b
            return combine(a, b)

        return both
    if not isinstance(q, (AllQ, FullCl, StopCl, OnceCl)):
        raise EngineError(f"cannot run {q!r}")

    body = yield q.body, sig, monoid
    fold = monoid.fold
    if isinstance(q, AllQ):

        def all_q(t):
            hits = []
            for c in t.children:
                r = body(c)
                if r is NO_RESULT:
                    return r
                hits.append(r)
            return fold(hits)

        return all_q
    if isinstance(q, FullCl):

        def full_cl(t):
            # every node contributes, preorder; a no-result node counts
            # as the unit so collection is total
            hits = []
            stack = [t]
            while stack:
                x = stack.pop()
                r = body(x)
                if r is not NO_RESULT:
                    hits.append(r)
                if x.children:
                    stack.extend(reversed(x.children))
            return fold(hits)

        return full_cl
    if isinstance(q, StopCl):

        def stop_cl(t):
            # a hit contributes and stops the descent below that node
            hits = []
            stack = [t]
            while stack:
                x = stack.pop()
                r = body(x)
                if r is not NO_RESULT:
                    hits.append(r)
                elif x.children:
                    stack.extend(reversed(x.children))
            return fold(hits)

        return stop_cl

    def once_cl(t):
        # first hit in preorder, left to right
        stack = [t]
        while stack:
            x = stack.pop()
            r = body(x)
            if r is not NO_RESULT:
                return r
            if x.children:
                stack.extend(reversed(x.children))
        return NO_RESULT

    return once_cl


def _compile_case(case: QueryRule, monoid: MonoidSpec):
    """Applier for a case on a term of its sort: the case's rewrite,
    then the value read off its result. An extraction outside the
    monoid's kind raises KindError when the case fires."""
    rewrite = compile_rewrite(case.lhs, case.extract)
    if monoid.kind == "list":

        def listed(t):
            out = rewrite(t)
            return NO_RESULT if out is None else [out]

        return listed
    accepts = monoid.accepts

    def read_off(t):
        out = rewrite(t)
        if out is None:
            return NO_RESULT
        if type(out) is Lit and accepts(out.value):
            return out.value
        raise KindError(
            f"case {case.name!r} extracted {out!r}, which does not fit "
            f"monoid {monoid.name!r}"
        )

    return read_off
