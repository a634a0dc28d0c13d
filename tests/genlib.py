"""Shared term builders, hypothesis generators and reference rule
semantics for the test suite."""

import itertools

from hypothesis import strategies as st

from stratkit.laws import builtin_rules
from stratkit.strategies import (
    FAIL,
    GUARDS,
    ID,
    Adhoc,
    All,
    Choice,
    One,
    Rec,
    RuleChoice,
    RuleDef,
    RuleRef,
    Seq,
    Var,
    rule_choice,
    rule_seq,
)
from stratkit.errors import TermError
from stratkit.terms import Lit, Node, PLit, PVar, sort_of


def instantiate(p, subst):
    """p with every variable replaced by its binding: the reference for
    the right sides `stratkit.terms.compile_rewrite` builds."""
    if isinstance(p, PVar):
        try:
            return subst[p.name]
        except KeyError:
            raise TermError(f"unbound pattern variable {p.name!r}") from None
    if isinstance(p, PLit):
        return Lit(p.value, p.sort)
    return Node(p.constr, tuple(instantiate(c, subst) for c in p.children))


def same_term(a, b):
    """Structural equality, the naive recursive way: literals equal in
    sort, payload kind and payload; nodes in constructor and children."""
    if isinstance(a, Lit) or isinstance(b, Lit):
        return (
            isinstance(a, Lit)
            and isinstance(b, Lit)
            and a.sort == b.sort
            and type(a.value) is type(b.value)
            and a.value == b.value
        )
    return (
        a.constr == b.constr
        and len(a.children) == len(b.children)
        and all(same_term(x, y) for x, y in zip(a.children, b.children))
    )


def naive_depth(t):
    if not t.children:
        return 1
    return 1 + max(naive_depth(c) for c in t.children)


def ref_match(p, t, binding=None):
    """The substitution with p[theta] == t, or None, written the naive
    recursive way: the reference for `stratkit.terms.match`. A repeated
    variable needs structurally equal bindings."""
    binding = {} if binding is None else binding
    if isinstance(p, PVar):
        seen = binding.setdefault(p.name, t)
        return binding if seen is t or same_term(seen, t) else None
    if isinstance(p, PLit):
        ok = isinstance(t, Lit) and same_term(Lit(p.value, p.sort), t)
        return binding if ok else None
    if not isinstance(t, Node) or t.constr != p.constr or len(t.children) != len(p.children):
        return None
    for pc, tc in zip(p.children, t.children):
        if ref_match(pc, tc, binding) is None:
            return None
    return binding


def apply_rule(rule, t, sig):
    """One rule application at the root, or None: the rule semantics
    the compiled appliers of `stratkit.interp` are tested against. Sort
    mismatch is a plain failure, not an error: ad hoc dispatch relies on
    it."""
    if isinstance(rule, RuleDef):
        if sort_of(sig, t) != rule.sort:
            return None
        binding = ref_match(rule.lhs, t)
        if binding is None:
            return None
        if rule.guard is not None and not GUARDS[rule.guard](t):
            return None
        return instantiate(rule.rhs, binding)
    if isinstance(rule, RuleChoice):
        for m in rule.members:
            out = apply_rule(m, t, sig)
            if out is not None:
                return out
        return None
    for m in rule.members:
        out = apply_rule(m, t, sig)
        if out is None:
            return None
        t = out
    return t


def canon(s):
    """Alpha-rename binders to r0, r1, ... in traversal order so scheme
    expansions can be compared structurally despite fresh names."""
    counter = itertools.count()

    def go(x, bound):
        if isinstance(x, Var):
            return Var(bound.get(x.name, x.name))
        if isinstance(x, Rec):
            new = f"r{next(counter)}"
            return Rec(new, go(x.body, {**bound, x.name: new}))
        if isinstance(x, (Seq, Choice)):
            return type(x)(go(x.left, bound), go(x.right, bound))
        if isinstance(x, (All, One)):
            return type(x)(go(x.body, bound))
        if isinstance(x, Adhoc):
            return Adhoc(go(x.default, bound), x.rule)
        return x

    return go(s, {})


def nat(n: int) -> Node:
    t = Node("Zero")
    for _ in range(n):
        t = Node("Succ", (t,))
    return t


def natlist(items) -> Node:
    acc = Node("Nil_NatTree")
    for x in reversed(items):
        acc = Node("Cons_NatTree", (x, acc))
    return acc


def boollist(items) -> Node:
    acc = Node("Nil_BoolTree")
    for x in reversed(items):
        acc = Node("Cons_BoolTree", (x, acc))
    return acc


nats = st.integers(min_value=0, max_value=9).map(nat)

nat_trees = st.recursive(
    nats.map(lambda n: Node("Node", (n, Node("Nil_NatTree")))),
    lambda kids: st.tuples(nats, st.lists(kids, max_size=3)).map(
        lambda p: Node("Node", (p[0], natlist(p[1])))
    ),
    max_leaves=20,
)

bools = st.sampled_from([Node("True"), Node("False")])

bool_trees = st.recursive(
    bools.map(lambda b: Node("BNode", (b, Node("Nil_BoolTree")))),
    lambda kids: st.tuples(bools, st.lists(kids, max_size=3)).map(
        lambda p: Node("BNode", (p[0], boollist(p[1])))
    ),
    max_leaves=12,
)

#: a term of any sort from the built-in vocabulary
terms = st.one_of(nats, bools, nat_trees, bool_trees)


def nat_composites():
    """rule_choice and rule_seq composites of the built-in Nat rules,
    nested both ways. On (Zero) every member of the first fails, and
    the second fails at its second stage on every odd number."""
    r = {rule.name: rule for rule in builtin_rules()}
    choice = rule_choice(r["dropSucc"], r["atOdd"])
    seq = rule_seq(r["dropSucc"], r["atEven"])
    return [choice, seq, rule_choice(seq, r["increment"]), rule_seq(choice, r["increment"])]


def strategy_exprs(rules=None, max_leaves=6):
    """Rec-free strategy expressions over the built-in rules."""
    pool = builtin_rules() if rules is None else list(rules)
    leaves = st.sampled_from([ID, FAIL] + [RuleRef(r) for r in pool])
    rule_pick = st.sampled_from(pool)

    def extend(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: Seq(*p)),
            st.tuples(sub, sub).map(lambda p: Choice(*p)),
            sub.map(All),
            sub.map(One),
            st.tuples(sub, rule_pick).map(lambda p: Adhoc(*p)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)
