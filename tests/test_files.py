"""Signature files and term s-expressions.

The printer/parser pair must be a faithful roundtrip for every
constructible term, including string payloads with quotes and escapes,
and must stay iterative: deep chains are parsed and printed without
touching the recursion limit.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genlib import nat, nat_trees, terms
from stratkit.errors import ParseError
from stratkit.files import parse_signature, parse_term, term_to_sexpr
from stratkit.terms import Lit, Node, sort_of, validate_term

# ---------------------------------------------------------------------------
# Signature files


def test_parse_signature_full_example():
    sig = parse_signature(
        """
        # a tiny vocabulary
        sort Exp
        prim Num : int
        list Exp
        Plus : Exp * Exp -> Exp   # binary
        Lit : Num -> Exp
        Nest : [Exp] -> Exp
        """
    )
    assert sig.sorts == {"Exp", "Num", "[Exp]"}
    assert sig.prim_sorts == {"Num": "int"}
    assert sig.symbol("Plus").arg_sorts == ("Exp", "Exp")
    # `list Exp` generated the spine machinery
    assert sig.symbol("Cons_Exp").arg_sorts == ("Exp", "[Exp]")
    assert sig.symbol("Nil_Exp").result_sort == "[Exp]"


def test_signature_error_positions_and_wording():
    with pytest.raises(ParseError, match="^2:1: list declaration for unknown sort 'Exp'$"):
        parse_signature("sort A\nlist Exp")
    with pytest.raises(ParseError, match="missing '->'"):
        parse_signature("sort A\nC : A")
    with pytest.raises(ParseError, match="unrecognised declaration"):
        parse_signature("sort A\nwat")
    with pytest.raises(ParseError, match="bad prim declaration"):
        parse_signature("prim P : complex")
    with pytest.raises(ParseError, match="declared twice"):
        parse_signature("sort A\nC : -> A\nC : A -> A")
    with pytest.raises(ParseError, match="undeclared sort"):
        parse_signature("sort A\nC : B -> A")
    for text, message in [
        ("prim Salary float", "1:1: bad prim declaration 'prim Salary float'"),
        ("sort A\nlist A B", "2:1: bad list declaration 'list A B'"),
        ("sort A\n: -> A", "2:1: bad constructor declaration ': -> A'"),
        ("sort A\nC : A ->", "2:1: bad constructor declaration 'C : A ->'"),
        ("sort A\nC : A * * A -> A", "2:1: bad argument list in 'C : A * * A -> A'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_signature(text)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Term reader/printer roundtrips

printable = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)

lits = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9).map(lambda v: Lit(v, "Num")),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: Lit(v, "Salary")),
    printable.map(lambda v: Lit(v, "Name")),
)

#: terms with literal leaves mixed in (not signature-valid; the reader
#: does not care and the printer must not either)
lit_terms = st.recursive(
    st.one_of(lits, terms),
    lambda kids: st.lists(kids, min_size=1, max_size=3).map(
        lambda cs: Node("Wrap", tuple(cs))
    ),
    max_leaves=10,
)


@given(lit_terms)
def test_roundtrip_print_then_parse(t):
    back = parse_term(term_to_sexpr(t))
    assert back == t


def test_parse_accepts_bare_nullary_shorthand():
    assert parse_term("(Succ Zero)") == parse_term("(Succ (Zero))")
    assert parse_term("Zero") == Node("Zero")


def test_parse_ignores_comments_and_whitespace():
    text = """
    ; the root
    (Node (Zero)   ; payload
          (Nil_NatTree))
    """
    assert parse_term(text) == Node("Node", (Node("Zero"), Node("Nil_NatTree")))


def test_parse_literals():
    assert parse_term("130.0:Salary") == Lit(130.0, "Salary")
    assert parse_term("7:Num") == Lit(7, "Num")
    assert parse_term("-3:Num") == Lit(-3, "Num")
    assert parse_term('"a b":Name') == Lit("a b", "Name")
    assert parse_term('"say \\"hi\\"\\n":Name') == Lit('say "hi"\n', "Name")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("(Zero) (Zero)", "trailing input"),
        (")", "unmatched"),
        ("(Node (Zero)", "unclosed"),
        ("(1:Num)", "cannot head an application"),
        ("abc:Num", "bad literal payload"),
        ('"abc"', "needs a :Sort tag"),
        ('"abc', "unterminated string"),
        ("()", "expected constructor"),
    ],
)
def test_parse_term_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_term(text)


@pytest.mark.parametrize("payload", ["nan", "-nan", "NaN", "+nan"])
def test_nan_literal_is_a_positioned_error(payload):
    with pytest.raises(ParseError) as exc:
        parse_term(f"(Employee \"x\":Name\n  {payload}:Salary)")
    assert str(exc.value) == (
        f"2:3: bad literal payload {payload!r}: NaN is not equal to itself"
    )


def test_infinite_literals_round_trip():
    for text in ("inf:Salary", "-inf:Salary"):
        t = parse_term(text)
        assert parse_term(term_to_sexpr(t)) == t == parse_term(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term("(Node\n  (Zero")
    assert exc.value.line == 2
    assert exc.value.col == 3
    assert str(exc.value).startswith("2:3:")


def test_deep_chain_roundtrip():
    t = nat(150_000)
    text = term_to_sexpr(t)
    assert text.startswith("(Succ (Succ ")
    assert parse_term(text) == t


# ---------------------------------------------------------------------------
# Shipped fixture files


def test_load_fixture_signature_and_terms(company_sig, fixtures_dir):
    from stratkit.files import load_term

    c0 = load_term(fixtures_dir / "terms" / "c0.term")
    validate_term(company_sig, c0)
    assert sort_of(company_sig, c0) == "Company"
    # the on-disk file contains a `;` comment; the payload survives
    assert parse_term(term_to_sexpr(c0)) == c0


def test_a_term_file_error_names_the_file(tmp_path):
    from stratkit.files import load_term

    bad = tmp_path / "bad.term"
    bad.write_text("(Node\n  (Zero)\n  (Succ\n")
    with pytest.raises(ParseError) as exc:
        load_term(str(bad))
    assert str(exc.value) == f"{bad}:3:3: unclosed '(' for 'Succ'"
    for text in ("", "; only a comment\n  \n"):
        bad.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_term(str(bad))
        assert str(exc.value) == f"{bad}: empty input, expected a term"


@given(nat_trees)
def test_roundtrip_agrees_with_repr(t):
    # Node.__repr__ delegates to the printer, so error messages show
    # terms in the same syntax the reader accepts.
    assert repr(t) == term_to_sexpr(t)
