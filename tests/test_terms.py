"""Terms, patterns, matching.

The iterative walks in stratkit.terms are checked against naive
recursive definitions written here; the recursive versions are the
obviously-correct spelling but die on deep terms, which is exactly why
the library versions are iterative.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratkit.errors import SignatureError, TermError
from stratkit.terms import (
    Lit,
    Node,
    PLit,
    PNode,
    PVar,
    Signature,
    Symbol,
    compile_rewrite,
    count,
    depth,
    is_constant,
    match,
    pattern_vars,
    sort_of,
    subterms,
    term_eq,
    validate_term,
)

from genlib import instantiate, nat, nat_trees as trees, natlist, nats
from stratkit.strategies import GUARDS

# ---------------------------------------------------------------------------
# Naive recursive oracles


def naive_depth(t):
    if not t.children:
        return 1
    return 1 + max(naive_depth(c) for c in t.children)


def naive_count(constr, t):
    own = 1 if isinstance(t, Node) and t.constr == constr else 0
    return own + sum(naive_count(constr, c) for c in t.children)


def naive_preorder(t):
    yield t
    for c in t.children:
        yield from naive_preorder(c)


@given(trees)
def test_depth_matches_naive(t):
    assert depth(t) == naive_depth(t)


@given(trees)
def test_count_matches_naive(t):
    for constr in ("Succ", "Zero", "Node", "Cons_NatTree", "Missing"):
        assert count(constr, t) == naive_count(constr, t)


@given(trees)
def test_subterms_is_preorder(t):
    assert list(subterms(t)) == list(naive_preorder(t))


@given(trees)
def test_is_constant_means_no_children(t):
    for s in subterms(t):
        assert is_constant(s) == (not s.children)


# ---------------------------------------------------------------------------
# Equality and hashing


@given(trees)
def test_equality_is_reflexive_and_rebuildable(t):
    def rebuild(x):
        if isinstance(x, Lit):
            return Lit(x.value, x.sort)
        return Node(x.constr, tuple(rebuild(c) for c in x.children))

    u = rebuild(t)
    assert t == u and u == t
    assert hash(t) == hash(u)
    assert term_eq(t, u)


@given(trees, trees)
def test_equality_agrees_with_term_eq(a, b):
    assert (a == b) == term_eq(a, b)


def test_literal_kind_is_strict():
    assert Lit(1, "S") != Lit(1.0, "S")
    assert Lit(1.0, "S") == Lit(1.0, "S")
    assert Lit(1.0, "S") != Lit(1.0, "T")
    assert Lit("1", "S") != Lit(1, "S")


def test_terms_are_not_equal_to_non_terms():
    assert Node("Zero") != "Zero"
    assert (Node("Zero") == 0) is False


def test_deep_chain_operations_do_not_recurse():
    n = 150_000
    a = nat(n)
    b = nat(n)
    assert depth(a) == n + 1
    assert count("Succ", a) == n
    assert a == b
    assert hash(a) == hash(b)
    assert a != nat(n - 1)


# ---------------------------------------------------------------------------
# Matching and instantiation


@given(trees, nats)
def test_match_inverts_instantiate(tree, n):
    p = PNode("Cons_NatTree", (PVar("x"), PVar("rest")))
    env = {"x": tree, "rest": natlist([Node("Node", (n, Node("Nil_NatTree")))])}
    t = instantiate(p, env)
    assert match(p, t) == env


@given(trees)
def test_nonlinear_match_requires_equal_bindings(t):
    p = PNode("Cons_NatTree", (PVar("x"), PNode("Cons_NatTree", (PVar("x"), PVar("r")))))
    assert match(p, natlist([t, t])) == {"x": t, "r": Node("Nil_NatTree")}
    other = Node("Node", (nat(3), natlist([t])))
    assert match(p, natlist([t, other])) is None


def test_match_on_literals_and_misfits():
    assert match(PLit(2.0, "S"), Lit(2.0, "S")) == {}
    assert match(PLit(2.0, "S"), Lit(2, "S")) is None
    assert match(PLit(2.0, "S"), Node("Zero")) is None
    assert match(PNode("Succ", (PVar("n"),)), Node("Zero")) is None
    assert match(PNode("Zero"), Lit(0, "S")) is None


def test_instantiate_unbound_variable_raises():
    with pytest.raises(TermError, match="unbound"):
        instantiate(PVar("ghost"), {})


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        (PVar("n"), PVar("m")),
        (PVar("n"), PNode("Succ", (PVar("m"),))),
        (PNode("Succ", (PVar("n"),)), PNode("Node", (PVar("n"), PVar("m")))),
        (PLit(0, "S"), PVar("m")),
    ],
)
def test_compile_rewrite_rejects_an_unbound_variable(lhs, rhs):
    for guard in (None, GUARDS["even_nat"]):
        with pytest.raises(TermError) as exc:
            compile_rewrite(lhs, rhs, guard)
        assert str(exc.value) == "unbound pattern variable 'm'"


# A small vocabulary of its own: F/2, G/1, A and B, and literals of two
# kinds and two sorts, so that generated patterns often match generated
# terms.
_LITS = [Lit(0, "S"), Lit(1, "S"), Lit(1.0, "S"), Lit(1, "T")]
_small_terms = st.recursive(
    st.sampled_from([Node("A"), Node("B")] + _LITS),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: Node("F", p)),
        sub.map(lambda c: Node("G", (c,))),
    ),
    max_leaves=6,
)


def _patterns(names):
    """Patterns over the small vocabulary with variables from names."""
    leaves = [st.sampled_from([PNode("A"), PNode("B")]),
              st.sampled_from([PLit(x.value, x.sort) for x in _LITS])]
    if names:
        leaves.append(st.sampled_from(sorted(names)).map(PVar))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: PNode("F", p)),
            sub.map(lambda c: PNode("G", (c,))),
        ),
        max_leaves=5,
    )


_guards = st.sampled_from([None, lambda t: t.depth % 2 == 0, *GUARDS.values()])


@given(st.data())
def test_compile_rewrite_agrees_with_match_and_instantiate(data):
    # with one or three variable names, repeated (non-linear) ones are
    # common; a variable alone is drawn as often as the rest together
    names = data.draw(st.sampled_from([{"x"}, {"x", "y", "z"}]))
    lhs = data.draw(st.one_of(st.just(PVar("x")), _patterns(names)))
    bound = pattern_vars(lhs)
    shapes = [_patterns(bound)]
    if isinstance(lhs, PVar):
        # the identity and one constructor around the matched term
        shapes += [st.just(lhs), st.just(PNode("G", (lhs,)))]
    rhs = data.draw(st.one_of(shapes))
    guard = data.draw(_guards)
    rewrite = compile_rewrite(lhs, rhs, guard)
    # a term built from the left side matches it; a drawn one often not
    binding = {v: data.draw(_small_terms) for v in sorted(bound)}
    for t in (instantiate(lhs, binding), data.draw(_small_terms)):
        theta = match(lhs, t)
        if theta is None or (guard is not None and not guard(t)):
            want = None
        else:
            want = instantiate(rhs, theta)
        got = rewrite(t)
        # repr tells a literal 1 from 1.0
        assert repr(got) == repr(want)


def test_pattern_vars_collects_all_names():
    p = PNode("Node", (PVar("a"), PNode("Cons_NatTree", (PVar("b"), PVar("a")))))
    assert pattern_vars(p) == {"a", "b"}
    assert pattern_vars(PLit(1, "S")) == set()


# ---------------------------------------------------------------------------
# Signatures


def test_signature_rejects_duplicate_constructor():
    with pytest.raises(SignatureError, match="twice"):
        Signature(
            {"A"},
            [Symbol("C", (), "A"), Symbol("C", (), "A")],
        )


def test_signature_rejects_undeclared_sort():
    with pytest.raises(SignatureError, match="undeclared"):
        Signature({"A"}, [Symbol("C", ("B",), "A")])


def test_signature_rejects_constructor_into_primitive_sort():
    with pytest.raises(SignatureError, match="primitive"):
        Signature({"A", "P"}, [Symbol("C", (), "P")], prim_sorts={"P": "int"})


def test_signature_rejects_unknown_prim_kind():
    with pytest.raises(SignatureError, match="kind"):
        Signature({"P"}, [], prim_sorts={"P": "complex"})


def test_sort_of_and_validate(sig):
    t = Node("Node", (nat(2), Node("Nil_NatTree")))
    assert sort_of(sig, t) == "NatTree"
    assert sort_of(sig, nat(0)) == "Nat"
    validate_term(sig, t)


def test_validate_reports_path_of_bad_node(sig):
    bad = Node("Node", (Node("Succ", (Node("Zero"), Node("Zero"))), Node("Nil_NatTree")))
    with pytest.raises(TermError, match=r"at 0: 'Succ' expects 1"):
        validate_term(sig, bad)
    with pytest.raises(TermError, match="unknown constructor"):
        validate_term(sig, Node("Nope"))
    with pytest.raises(TermError, match="sort"):
        validate_term(sig, Node("Succ", (Node("True"),)))


def test_validate_checks_literal_kinds(company_sig):
    validate_term(company_sig, Lit(10.0, "Salary"))
    with pytest.raises(TermError, match="kind"):
        validate_term(company_sig, Lit(10, "Salary"))
    with pytest.raises(TermError, match="not a primitive"):
        validate_term(company_sig, Lit(10.0, "Company"))


def test_arg_sorts_of_sort(sig):
    assert sig.arg_sorts_of_sort("NatTree") == {"Nat", "[NatTree]"}
    assert sig.arg_sorts_of_sort("Nat") == {"Nat"}
    with pytest.raises(SignatureError):
        sig.arg_sorts_of_sort("Ghost")
