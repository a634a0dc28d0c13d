"""Terms, patterns, and many-sorted signatures.

Terms are immutable rose trees of constructor applications with literal
leaves for primitive payloads (ints, floats, strings). Every operation
here is iterative where it walks a term: the engine guarantees terms of
depth 100k+ work, and CPython's recursion limit would kill a recursive
equality or tally long before that.

Nodes precompute their hash and depth at construction. Construction is
bottom-up (children exist before the parent), so both are O(1) per node
and never recurse.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from functools import cached_property

from .errors import SignatureError, TermError
from .records import record

Sort = str

#: primitive kind name -> accepted Python payload type
PRIM_KINDS = {"int": int, "float": float, "string": str}


class Term:
    """Base class; instances are Node or Lit. Treated as immutable."""

    __slots__ = ()

    # Uniform child access; Node overrides with an instance slot.
    children: tuple = ()
    depth: int = 1

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return term_eq(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self):
        return self._hash


class Node(Term):
    """A constructor applied to zero or more child terms."""

    __slots__ = ("constr", "children", "depth", "_hash")

    def __init__(self, constr: str, children=()):
        # Rule appliers construct millions of nodes per run, mostly of
        # arity one, so this is written as a single pass with a fast
        # path rather than genexprs.
        if type(children) is not tuple:
            children = tuple(children)
        self.constr = constr
        self.children = children
        n = len(children)
        if n == 1:
            c = children[0]
            self.depth = 1 + c.depth
            self._hash = hash((constr, c._hash))
        elif n == 0:
            self.depth = 1
            self._hash = hash((constr,))
        else:
            best = 0
            hs = [constr]
            for c in children:
                if c.depth > best:
                    best = c.depth
                hs.append(c._hash)
            self.depth = 1 + best
            self._hash = hash(tuple(hs))

    def __repr__(self):
        from .files import term_to_sexpr

        return term_to_sexpr(self)


class Lit(Term):
    """A primitive payload tagged with its declared sort."""

    __slots__ = ("value", "sort", "_hash")

    def __init__(self, value: int | float | str, sort: Sort):
        self.value = value
        self.sort = sort
        self._hash = hash(("lit", type(value).__name__, value, sort))

    def __repr__(self):
        from .files import term_to_sexpr

        return term_to_sexpr(self)


def term_eq(a: Term, b: Term) -> bool:
    """Structural equality, iterative. Literal kinds are strict: 1 != 1.0."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, Lit):
            if (
                not isinstance(y, Lit)
                or x.sort != y.sort
                or type(x.value) is not type(y.value)
                or x.value != y.value
            ):
                return False
        elif isinstance(y, Lit):
            return False
        else:
            if x.constr != y.constr or len(x.children) != len(y.children):
                return False
            stack.extend(zip(x.children, y.children))
    return True


def depth(t: Term) -> int:
    """1 for leaves, 1 + max child depth otherwise."""
    return t.depth


def count(constr: str, t: Term) -> int:
    """Number of Node occurrences with the given constructor."""
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Node):
            if x.constr == constr:
                n += 1
            stack.extend(x.children)
    return n


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself, preorder, left to right."""
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(x.children))


def is_constant(t: Term) -> bool:
    """True for terms with no subterms (literals and nullary nodes)."""
    return not t.children


# ---------------------------------------------------------------------------
# Patterns and substitution


@record
class PVar:
    name: str


@record
class PNode:
    constr: str
    children: tuple = ()


@record
class PLit:
    value: int | float | str
    sort: Sort


Pattern = PVar | PNode | PLit


def pattern_vars(p: Pattern) -> set[str]:
    out: set[str] = set()
    stack = [p]
    while stack:
        x = stack.pop()
        if isinstance(x, PVar):
            out.add(x.name)
        elif isinstance(x, PNode):
            stack.extend(x.children)
    return out


def match(p: Pattern, t: Term) -> dict[str, Term] | None:
    """The unique substitution with p[theta] == t, or None.

    Repeated variables are allowed and require structurally equal
    bindings. Literal patterns match by exact payload, kind, and sort.
    """
    binding: dict[str, Term] = {}
    stack = [(p, t)]
    while stack:
        pp, tt = stack.pop()
        if isinstance(pp, PVar):
            seen = binding.get(pp.name)
            if seen is None:
                binding[pp.name] = tt
            elif not term_eq(seen, tt):
                return None
        elif isinstance(pp, PLit):
            if (
                not isinstance(tt, Lit)
                or tt.sort != pp.sort
                or type(tt.value) is not type(pp.value)
                or tt.value != pp.value
            ):
                return None
        else:
            if (
                not isinstance(tt, Node)
                or tt.constr != pp.constr
                or len(tt.children) != len(pp.children)
            ):
                return None
            stack.extend(zip(pp.children, tt.children))
    return binding


def compile_rewrite(
    lhs: Pattern, rhs: Pattern, guard: Callable[[Term], bool] | None = None
):
    """Applier for the rewrite lhs -> rhs, Term -> Term | None: the
    instance of rhs under the match of lhs, if it matches and the guard,
    a predicate on the whole matched term, holds.

    A right side that uses a variable the left side does not bind is a
    TermError here, before the rewrite ever runs. The shapes that
    dominate rewriting loops (a variable left side, the identity, one
    constructor around the matched term) get dedicated closures, so the
    hot path does no generic matching.
    """
    if isinstance(lhs, PVar):
        name = lhs.name
        if guard is None and isinstance(rhs, PVar) and rhs.name == name:
            return lambda t: t
        if guard is None and isinstance(rhs, PNode) and rhs.children == (lhs,):
            constr = rhs.constr
            return lambda t: Node(constr, (t,))
        build = _builder(rhs, {name})
        if guard is None:
            return lambda t: build({name: t})
        return lambda t: build({name: t}) if guard(t) else None

    build = _builder(rhs, pattern_vars(lhs))

    def general(t):
        binding = match(lhs, t)
        if binding is None or (guard is not None and not guard(t)):
            return None
        return build(binding)

    return general


def _builder(p: Pattern, bound: set[str]):
    """Binding -> the instance of p. Patterns are shallow (they come
    from rule files), so recursion is fine here."""
    if isinstance(p, PVar):
        name = p.name
        if name not in bound:
            raise TermError(f"unbound pattern variable {name!r}")
        return lambda b: b[name]
    if isinstance(p, PLit):
        lit = Lit(p.value, p.sort)
        return lambda b: lit
    fns = tuple(_builder(c, bound) for c in p.children)
    constr = p.constr
    if not fns:
        node = Node(constr)
        return lambda b: node
    return lambda b: Node(constr, tuple(f(b) for f in fns))


# ---------------------------------------------------------------------------
# Signatures


@record
class Symbol:
    constr: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort


class Signature:
    """A many-sorted constructor algebra.

    Immutable after construction. Symbols are indexed by constructor and
    by result sort; arg_sorts_of_sort is precomputed since the
    reachability analysis hits it in a fixpoint loop.
    """

    def __init__(
        self,
        sorts,
        symbols,
        prim_sorts: Mapping[Sort, str] | None = None,
    ):
        self.sorts = frozenset(sorts)
        self.prim_sorts = dict(prim_sorts or {})
        self.symbols = tuple(symbols)
        self.by_constr: dict[str, Symbol] = {}
        by_result: dict[Sort, list[Symbol]] = {}

        for sort, kind in self.prim_sorts.items():
            if sort not in self.sorts:
                raise SignatureError(f"primitive sort {sort!r} is not declared")
            if kind not in PRIM_KINDS:
                raise SignatureError(f"unknown primitive kind {kind!r} for sort {sort!r}")
        for sym in self.symbols:
            if sym.constr in self.by_constr:
                raise SignatureError(f"constructor {sym.constr!r} declared twice")
            for s in sym.arg_sorts + (sym.result_sort,):
                if s not in self.sorts:
                    raise SignatureError(
                        f"constructor {sym.constr!r} mentions undeclared sort {s!r}"
                    )
            if sym.result_sort in self.prim_sorts:
                raise SignatureError(
                    f"constructor {sym.constr!r} targets primitive sort {sym.result_sort!r}"
                )
            self.by_constr[sym.constr] = sym
            by_result.setdefault(sym.result_sort, []).append(sym)

        self.by_result = {s: tuple(v) for s, v in by_result.items()}
        self._arg_sorts: dict[Sort, frozenset[Sort]] = {}
        for s in self.sorts:
            acc: set[Sort] = set()
            for sym in self.by_result.get(s, ()):
                acc.update(sym.arg_sorts)
            self._arg_sorts[s] = frozenset(acc)
        #: constructor -> result sort, for the interpreter's hot path
        self.constr_sort = {c: sym.result_sort for c, sym in self.by_constr.items()}

    def symbol(self, constr: str) -> Symbol:
        try:
            return self.by_constr[constr]
        except KeyError:
            raise SignatureError(f"unknown constructor {constr!r}") from None

    @cached_property
    def min_depths(self) -> dict[Sort, int]:
        """The least depth of a term of each sort; 10**9 for a sort that
        has no finite term. The term generator reads it on every call."""
        inf = 10**9
        md = {s: (1 if s in self.prim_sorts else inf) for s in self.sorts}
        changed = True
        while changed:
            changed = False
            for sym in self.symbols:
                need = 1
                if sym.arg_sorts:
                    worst = max(md[a] for a in sym.arg_sorts)
                    if worst >= inf:
                        continue
                    need = 1 + worst
                if need < md[sym.result_sort]:
                    md[sym.result_sort] = need
                    changed = True
        return md

    def arg_sorts_of_sort(self, sort: Sort) -> frozenset[Sort]:
        """Union of argument sorts over all constructors of `sort`; empty
        for primitive sorts."""
        try:
            return self._arg_sorts[sort]
        except KeyError:
            raise SignatureError(f"unknown sort {sort!r}") from None


def sort_of(sig: Signature, t: Term) -> Sort:
    """Result sort of the root constructor, or the literal's tag."""
    if isinstance(t, Lit):
        return t.sort
    return sig.symbol(t.constr).result_sort


def validate_term(sig: Signature, t: Term) -> None:
    """Raise TermError at the first ill-formed node, naming its path as
    child indices from the root.

    Nodes are visited in preorder. A node is checked first; its
    children's sorts are then checked at the node, last child first,
    before the walk descends into them. One pass, linear in the size of
    the term: the path is a single list trimmed to the depth of each
    visited node, joined into text only for the error.
    """
    by_constr = sig.by_constr
    prim_sorts = sig.prim_sorts
    path: list[int] = []
    stack: list[tuple[Term, int, int]] = [(t, 0, 0)]
    while stack:
        x, d, i = stack.pop()
        if d:
            del path[d - 1 :]
            path.append(i)
        if type(x) is Lit:
            kind = prim_sorts.get(x.sort)
            if kind is None:
                raise TermError(
                    f"at {_where(path)}: {x.sort!r} is not a primitive sort"
                )
            if type(x.value) is not PRIM_KINDS[kind]:
                raise TermError(
                    f"at {_where(path)}: literal {x.value!r} is not of kind {kind!r}"
                )
            continue
        sym = by_constr.get(x.constr)
        if sym is None:
            raise TermError(f"at {_where(path)}: unknown constructor {x.constr!r}")
        children = x.children
        arg_sorts = sym.arg_sorts
        if len(children) != len(arg_sorts):
            raise TermError(
                f"at {_where(path)}: {x.constr!r} expects {len(arg_sorts)} "
                f"children, got {len(children)}"
            )
        d += 1
        for i in range(len(children) - 1, -1, -1):
            c = children[i]
            if type(c) is Lit:
                got = c.sort
            else:
                csym = by_constr.get(c.constr)
                # an unknown constructor is reported when the walk gets there
                got = csym.result_sort if csym else arg_sorts[i]
            if got != arg_sorts[i]:
                raise TermError(
                    f"at {_where(path)}: child {i} of {x.constr!r} has sort "
                    f"{got!r}, expected {arg_sorts[i]!r}"
                )
            stack.append((c, d, i))


def _where(path: list[int]) -> str:
    return "/".join(map(str, path)) or "root"
