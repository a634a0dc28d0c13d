"""Differential tests of the term front end against the code it replaced.

front_end_oracle.py keeps the character-by-character reader and the
per-node-path validator verbatim. On generated valid and corrupted input
the single-pass `parse_term` and `validate_term` must give the same
term, or raise the same exception with the same message, line and
column.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import front_end_oracle as oracle
from genlib import nat
from stratkit.errors import ParseError
from stratkit.files import parse_term, term_to_sexpr
from stratkit.terms import Lit, Node, Signature, Symbol, validate_term


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # the exception type is part of the result
        return (
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "col", None),
        )
    # the printed form tells 1 from 1.0
    return "ok", term_to_sexpr(result) if result is not None else None


def assert_same_parse(text):
    got = outcome(parse_term, text)
    want = outcome(oracle.parse_term, text)
    if "\\\n" in text and got[0] is want[0] is ParseError:
        # The old reader did not count a newline escaped inside a string,
        # so its positions after one are off: compare the messages alone.
        # test_position_after_an_escaped_newline pins the right position.
        got = got[0], re.sub(r"^\d+:\d+: ", "", got[1])
        want = want[0], re.sub(r"^\d+:\d+: ", "", want[1])
    assert got == want


# ---------------------------------------------------------------------------
# Reader: generated text

names = st.sampled_from(["Zero", "Succ", "Node", "Nil_NatTree", "A;b", 'q"x', "x\\"])
seps = st.sampled_from(
    [" ", "\n", "\t", "  ", " ; note (\n", "\r\n", ';"x\n ', "\n\n  "]
)
numbers = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["1e3", "1_000", "inf", "nan", "-0.0", "0x1f", "1.2.3", "", "."]),
)
sort_tags = st.sampled_from(["Num", "Salary", "N;x", "", 'S"'])
lit_atoms = st.tuples(numbers, sort_tags).map(lambda p: f"{p[0]}:{p[1]}")
string_bodies = st.lists(
    st.sampled_from(
        ["a", "b c", ";", "(", ")", "\\n", "\\t", '\\"', "\\\\", "\\q", "\\\n"]
    ),
    max_size=4,
).map("".join)
string_tags = st.sampled_from(
    [
        ":Name",
        " :Name",
        "\n:Name",
        " ; c\n:Name",
        " ; a:b\n:Name",
        "\r\n:Name",
        ":N;x",
        ":",
    ]
)
string_lits = st.tuples(string_bodies, string_tags).map(lambda p: f'"{p[0]}"{p[1]}')
leaves = st.one_of(
    names, names.map(lambda n: f"({n})"), lit_atoms, string_lits
)
texts = st.recursive(
    leaves,
    lambda kids: st.tuples(
        st.one_of(st.just(""), seps),
        names,
        st.lists(st.tuples(seps, kids), max_size=3),
    ).map(lambda p: f"({p[0]}{p[1]}" + "".join(s + k for s, k in p[2]) + ")"),
    max_leaves=12,
)
framed = st.tuples(
    st.sampled_from(["", " ", "; head\n"]),
    texts,
    st.sampled_from(["", "\n", " ; tail"]),
).map("".join)


@given(framed)
def test_generated_text_reads_the_same(text):
    assert_same_parse(text)


@settings(max_examples=300)
@given(framed, st.data())
def test_corrupted_text_reads_the_same(text, data):
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()) and at < len(text):
            text = text[:at] + text[at + 1 :]
        else:
            char = data.draw(st.sampled_from(list('()";:\\\n x.0')))
            text = text[:at] + char + text[at:]
    assert_same_parse(text)


# ---------------------------------------------------------------------------
# Reader: the cases the generators may miss

NESTED_LINES = "".join(
    f"(Node (Succ Zero)\n  (Cons_NatTree ; level {i}\n" for i in range(200)
)


@pytest.mark.parametrize(
    "text",
    [
        # errors deep in multi-line files
        NESTED_LINES + "  (Succ (1:Num)",
        NESTED_LINES + "  ( )",
        NESTED_LINES + "\n  )" * 405,
        NESTED_LINES,
        # a bad literal payload late in a long file
        "(Wrap " + " ".join(f"{i}.5:Salary" for i in range(3000)) + " 1.5x:Salary)",
        "(Wrap " + " ".join(f'"e{i}":Name' for i in range(3000)) + " 7:)",
        # string escapes, a backslash before a newline among them
        '"say \\"hi\\"\\n\\t\\\\ \\q":Name',
        '"a\\\nb":Name',
        '(Wrap "a\\\nb":Name\n  (Zero)',
        # a string tag after a space, a newline or a comment
        '"abc" :Name',
        '"abc"\n; why\n:Name',
        '"abc" :',
        '"abc" Name',
        # a `:` in a comment between a string and its tag is not the tag
        '"abc" ; see :Name',
        '"abc" ; a:b\n:Name',
        '(W "x" ; k:\n)',
        # `;` and `"` after an atom's first character
        '(A;b q"x "y":S;z)',
        'a"b',
        # string errors beat every structural error, wherever they are
        ') "abc',
        ') "abc"',
        '(Zero) "abc',
        '(1:Num "abc":S) "x"',
        '"abc" "def',
        '"abc\\',
        # structural errors
        "",
        " ; only a comment",
        "(",
        "( ; c\n Succ)",
        "( ; c\n 1:Num)",
        # an atom in a comment between '(' and its constructor is not it
        '( ; (x:y "q\n Succ Zero)',
        "( ;c",
        "( \t; a(b\n\tSucc (Zero))",
        "(\r\nSucc Zero)",
        '("a":S)',
        "(Zero) (Zero)",
        "(Zero) (Zero",
        "(Zero) )",
        "(Zero) Zero:",
        "Zero Zero",
    ],
)
def test_listed_text_reads_the_same(text):
    assert_same_parse(text)


def test_position_after_an_escaped_newline():
    # the reader counts every newline, escaped or not
    with pytest.raises(ParseError) as exc:
        parse_term('(Wrap "a\\\nb":Name\n  (Zero)')
    assert (exc.value.line, exc.value.col) == (1, 1)
    with pytest.raises(ParseError) as exc:
        parse_term('(Wrap "a\\\nb":Name\n  (Zero)) )')
    assert (exc.value.line, exc.value.col) == (3, 11)


# ---------------------------------------------------------------------------
# Validator

SIG = Signature(
    ["Nat", "Bool", "T", "Num", "Real", "Str"],
    [
        Symbol("Zero", (), "Nat"),
        Symbol("Succ", ("Nat",), "Nat"),
        Symbol("True", (), "Bool"),
        Symbol("Pair", ("Nat", "Bool"), "T"),
        Symbol("Box", ("Num", "Real", "Str"), "T"),
        Symbol("Tri", ("T", "T", "T"), "T"),
    ],
    {"Num": "int", "Real": "float", "Str": "string"},
)

nats = st.integers(0, 6).map(nat)
well_typed = st.recursive(
    st.one_of(
        nats.map(lambda n: Node("Pair", (n, Node("True")))),
        st.tuples(st.integers(), st.floats(), st.text(max_size=3)).map(
            lambda p: Node(
                "Box", (Lit(p[0], "Num"), Lit(p[1], "Real"), Lit(p[2], "Str"))
            )
        ),
    ),
    lambda kids: st.tuples(kids, kids, kids).map(lambda cs: Node("Tri", cs)),
    max_leaves=10,
)
junk = st.sampled_from(
    [
        Node("Nope"),
        Node("Succ"),
        Node("Succ", (Node("Zero"), Node("Zero"))),
        Node("True"),
        Node("Zero"),
        nat(3),
        Lit(1, "Real"),
        Lit(1.0, "Num"),
        Lit(True, "Num"),
        Lit("x", "Nat"),
        Lit("x", "Undeclared"),
        Node("Pair", (Node("Nope"), Node("Nope"))),
        Node("Tri", (Node("Zero"), Node("True"), Lit(2, "Num"))),
    ]
)


def chain(n, leaf):
    for _ in range(n):
        leaf = Node("Succ", (leaf,))
    return leaf


def replace(t, path, new):
    if not path:
        return new
    i = path[0] % len(t.children)
    kids = list(t.children)
    kids[i] = replace(kids[i], path[1:], new)
    return Node(t.constr, tuple(kids))


def mutated(t, data):
    for _ in range(data.draw(st.integers(0, 3))):
        path = []
        x = t
        while x.children and data.draw(st.booleans()):
            path.append(data.draw(st.integers(0, len(x.children) - 1)))
            x = x.children[path[-1]]
        t = replace(t, path, data.draw(junk))
    return t


@settings(max_examples=300)
@given(well_typed, st.data())
def test_validator_agrees_on_mutated_terms(t, data):
    t = mutated(t, data)
    assert outcome(validate_term, SIG, t) == outcome(oracle.validate_term, SIG, t)


@pytest.mark.parametrize(
    "t",
    [
        # several ill-typed children of one node: the last is reported
        Node("Tri", (Node("Zero"), Node("True"), Lit(2, "Num"))),
        Node("Pair", (Node("True"), Node("Zero"))),
        Node("Box", (Lit(1.0, "Num"), Lit(1, "Real"), Lit("s", "Str"))),
        # an unknown child is reported when the walk gets there
        Node("Pair", (Node("Nope"), Node("Zero"))),
        Node(
            "Tri",
            (Node("Nope"), Node("Pair", (Node("Zero"), Node("True"))), Node("Oops")),
        ),
        # a bad node deep in a chain, and under a wide node
        chain(3000, Node("Zero")),
        chain(3000, Node("Nope")),
        chain(3000, Node("True")),
        Node(
            "Tri",
            (Node("Pair", (nat(2), Node("True"))),) * 2 + (chain(50, Lit(1, "Num")),),
        ),
        Lit(1, "Undeclared"),
        Lit(True, "Num"),
    ],
)
def test_validator_agrees_on_listed_terms(t):
    assert outcome(validate_term, SIG, t) == outcome(oracle.validate_term, SIG, t)
