"""Differential tests of the program and query front end against the
code it replaced.

dsl_oracle.py keeps the character-by-character tokenizer and the two
recursive-descent expression parsers verbatim. On generated programs and
queries, and on corrupted copies of them, the regex tokenizer and the
table-driven parser must give the same tokens and the same program, or
raise the same exception with the same message, line and column. Two
differences are intended, and only these are forgiven:

- where the old tokenizer crashed with a ValueError on a digit that
  `int()` rejects (such as '²'), the new one raises a ParseError;
- the old tokenizer never advanced the line inside a string literal, so
  its positions after a string that holds a raw newline are off: there
  the two are compared without positions.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle as oracle
from conftest import FIXTURES
from stratkit.dsl import (
    QUERY_RESERVED,
    RESERVED,
    parse_program,
    parse_query_program,
    tokenize,
)
from stratkit.errors import ParseError
from stratkit.files import load_signature

NAT_SIG = load_signature(FIXTURES / "nat_tree.sig")
COMPANY_SIG = load_signature(FIXTURES / "company.sig")


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
    # each parse numbers its binders from $1, so the reprs compare
    return "ok", repr(result)


def has_raw_newline_string(text):
    return any("\n" in m.group() for m in re.finditer(r'"(?:[^"\\]|\\[\s\S])*"', text))


def assert_same(new, old, text, *args):
    got = outcome(new, text, *args)
    want = outcome(old, text, *args)
    if want[0] is ValueError:
        # the '²' crash: now a positioned ParseError
        assert got[0] is ParseError and got[2] is not None, got
        return
    if has_raw_newline_string(text):
        got, want = without_positions(got), without_positions(want)
    assert got == want


def without_positions(result):
    if result[0] == "ok":  # drop a token's line and column
        return "ok", re.sub(r", \d+, \d+\)", ")", result[1])
    return result[0], re.sub(r"^\d+:\d+: ", "", result[1])


def new_tokens(text, query):
    # a new token carries its offset, an old one its line and column
    return [
        (t.kind, t.value, text.count("\n", 0, t.at) + 1,
         t.at - text.rfind("\n", 0, t.at))
        for t in tokenize(text, query)
    ]


def old_tokens(text, query):
    return [(t.kind, t.value, t.line, t.col) for t in oracle.tokenize(text, query)]


def assert_same_program(text):
    assert_same(parse_program, oracle.parse_program, text, NAT_SIG)
    assert_same(new_tokens, old_tokens, text, False)


def assert_same_query(text):
    assert_same(parse_query_program, oracle.parse_query_program, text, COMPANY_SIG)
    assert_same(new_tokens, old_tokens, text, True)


# ---------------------------------------------------------------------------
# Generated programs, as lists of tokens

SCHEMES = ["try", "repeat", "full_td", "full_bu", "once_td", "once_bu",
           "stop_td", "stop_bu", "innermost"]
PRIMED = ["full_td1", "full_bu1", "once_td1", "once_bu1", "stop_td1", "innermost1"]
NAT_RULES = {
    "inc": ["n", "->", "(", "Succ", "n", ")"],
    "drop": ["(", "Succ", "n", ")", "->", "n"],
    "two": ["Zero", "->", "(", "Succ", "(", "Succ", "Zero", ")", ")"],
    "flip": ["(", "True", ")", "->", "(", "False", ")"],
}
#: what a generated program holds, now and then, in place of a good token
BAD_NAMES = ["ghost", "rule", "where", "qrule", "unit", "x", "1", "-2", "3.5", '"s"']
BAD_PATTERNS = [
    ["(", "Succ", "n", "n", ")"], ["m"], ["(", "succ", "n", ")"], ["3", ":", "Salary"],
    ['"a\\"b"', ":", "Name"], ['"two\nlines"', ":", "Name"], ["(", "Node", "n", ")"],
]


def rarely(draw, good, bad, odds=10):
    """Mostly one of good, and one of bad one time in odds."""
    return draw(st.sampled_from(bad if draw(st.integers(1, odds)) == 1 else good))


def comma_join(parts):
    out = []
    for i, part in enumerate(parts):
        if i:
            out.append(",")
        out.extend(part)
    return out


def rule_designator(draw, depth):
    if depth and draw(st.integers(0, 5)) == 0:
        head = draw(st.sampled_from(["rule_choice", "rule_seq"]))
        members = [rule_designator(draw, depth - 1)
                   for _ in range(draw(st.integers(1, 3)))]
        return [head, "(", *comma_join(members), ")"]
    return [rarely(draw, ["inc", "drop", "two"], ["flip", "ghost", "s", "d0"])]


def strategy(draw, names, defs, depth):
    pick = draw(st.integers(0, 10 if depth else 0))
    if pick == 0:
        return [rarely(draw, ["id", "fail", *NAT_RULES, *names], [*BAD_NAMES, "v"], 40)]
    sub = lambda: strategy(draw, names, defs, depth - 1)  # noqa: E731
    if pick == 1:
        return [*sub(), draw(st.sampled_from([";", "<+"])), *sub()]
    if pick == 2:
        return [*sub(), ";", *sub(), "<+", *sub(), ";", *sub()]
    if pick == 3:
        var = rarely(draw, ["v", "w"], ["fail", "all"])
        return ["rec", var, ".", *strategy(draw, [*names, var], defs, depth - 1)]
    if pick == 4:
        return ["(", *sub(), ")"]
    if pick == 5:
        return [draw(st.sampled_from(["all", "one", *SCHEMES])), "(", *sub(), ")"]
    if pick == 6:
        return ["adhoc", "(", *sub(), ",", *rule_designator(draw, depth), ")"]
    if pick == 7:
        cases = [rule_designator(draw, depth)
                 for _ in range(draw(st.integers(0, 2)))]
        return ["family", "(", "[", *comma_join(cases), "]", ",", *sub(), ")"]
    if pick == 8:
        return [draw(st.sampled_from(PRIMED)), "(", *rule_designator(draw, depth), ")"]
    if pick == 9 or not defs:
        return [*sub(), "<+", *sub(), ";", *sub()]
    args = [sub() for _ in range(rarely(draw, [1], [0, 2]))]
    name = draw(st.sampled_from(defs))
    if not args and draw(st.booleans()):
        return [name]
    return [name, "(", *comma_join(args), ")"]


@st.composite
def programs(draw):
    decls = []
    for name, sides in NAT_RULES.items():
        rule = []
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            rule += rarely(
                draw,
                [["@", "infallible"], ["@", "effect", "(", "less", ",", "any", ")"]],
                [["@", "effect", "(", "wrong", ")"], ["@", "frozen"], ["@", "3"]])
        sort = "Bool" if name == "flip" else "Nat"
        rule += ["rule", name, ":", rarely(draw, [sort], ["Mystery", "Nat", "all"]), "="]
        if draw(st.integers(0, 9)) == 0:
            rule += [*draw(st.sampled_from(BAD_PATTERNS)), "->", "n"]
        else:
            rule += sides
        if draw(st.integers(0, 4)) == 0:
            rule += ["where", rarely(draw, ["even_nat", "odd_nat"], ["sideways"])]
        decls.append(rule)
    decls = draw(st.permutations(decls))
    defs = []
    for name in ["d0", "d1"][: draw(st.integers(0, 2))]:
        params = rarely(draw, [["s"], ["s"], []], [["s", "s"], ["s", "t"]])
        decls.append(["def", name, "(", *comma_join([[p] for p in params]), ")", "=",
                      *strategy(draw, params, list(defs), draw(st.integers(0, 3)))])
        defs.append(name)
    decls.append(["main", "=", *strategy(draw, [], defs, draw(st.integers(0, 4)))])
    return [tok for decl in decls for tok in decl]


def query(draw, depth):
    pick = draw(st.integers(0, 6 if depth else 0))
    if pick == 0:
        return [rarely(
            draw, ["failq", "constq(unit)", "constq(3)", "constq(-1.5)"],
            ["getsal", "unit", "constq(id)", "rec", "id", *BAD_NAMES], 40)]
    sub = lambda: query(draw, depth - 1)  # noqa: E731
    if pick == 1:
        return [*sub(), rarely(draw, ["<+q"], ["<+", ";"]), *sub()]
    if pick == 2:
        return ["(", *sub(), ")"]
    if pick == 3:
        return [draw(st.sampled_from(["allq", "full_cl", "stop_cl", "once_cl"])),
                "(", *sub(), ")"]
    if pick == 4:
        return ["bothq", "(", *sub(), ",", *sub(), ")"]
    if pick == 5:
        return [*sub(), "<+q", *sub(), "<+q", *sub()]
    return ["adhocq", "(", *sub(), ",",
            rarely(draw, ["getsal", "one"], ["ghost", "rule_choice"]), ")"]


@st.composite
def query_programs(draw):
    decls = [
        ["qrule", "getsal", ":", "Salary", "=", "s", "->", "s"],
        ["qrule", "one", ":", rarely(draw, ["Employee"], ["Mystery", "constq"]),
         "=", "e", "->", *rarely(draw, [["1", ":", "Count"]], [["(", "Frob", ")"]])],
    ]
    if draw(st.integers(0, 9)) == 0:
        decls.append(draw(st.sampled_from([
            ["@", "infallible"], ["qrule", "getsal", ":", "Salary", "=", "s", "->", "s"],
            ["qrule", "g", ":", "Salary", "=", "s", "->", "s", "where", "even_nat"]])))
    decls = draw(st.permutations(decls))
    decls.append(["main", "=", *query(draw, draw(st.integers(0, 4)))])
    return [tok for decl in decls for tok in decl]


SEPARATORS = [" ", " ", "\n", "  ", "\t", " # note ; ( \n", "\n\n ", "\r\n"]
STRAY_CHARS = ["é", "ß", "²", "٣", "½", "Ⅷ", "一", "\u00a0", "\u2028", "$", "-",
               "<", "%", "_", "9", "\\", "@"]


def render(draw, toks):
    """The tokens joined by separators; a seeded choice, because a draw
    per separator is slow."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return "".join(tok if i == 0 else rng.choice(SEPARATORS) + tok
                   for i, tok in enumerate(toks))


def corrupt(draw, toks):
    """A token deleted, duplicated or swapped with its neighbour, or a
    stray character in or between tokens."""
    toks = list(toks)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(toks) - 1))
        how = draw(st.integers(0, 3))
        if how == 0:
            del toks[i]
        elif how == 1:
            toks.insert(i, toks[i])
        elif how == 2 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        else:
            tok = toks[i]
            at = draw(st.integers(0, len(tok)))
            toks[i] = tok[:at] + draw(st.sampled_from(STRAY_CHARS)) + tok[at:]
        if not toks:
            break
    return toks


def truncate(draw, text):
    """The text cut inside a string literal, or anywhere."""
    quotes = [m.start() for m in re.finditer('"', text)]
    if quotes and draw(st.booleans()):
        at = draw(st.sampled_from(quotes)) + 1
        return text[: draw(st.integers(at, min(len(text), at + 4)))] + draw(
            st.sampled_from(["", "\\"]))
    return text[: draw(st.integers(0, len(text)))]


@settings(max_examples=400, deadline=None)
@given(programs(), st.data())
def test_generated_programs_parse_the_same(toks, data):
    assert_same_program(render(data.draw, toks))


@settings(max_examples=400, deadline=None)
@given(programs(), st.data())
def test_corrupted_programs_parse_the_same(toks, data):
    text = render(data.draw, corrupt(data.draw, toks))
    if data.draw(st.integers(0, 3)) == 0:
        text = truncate(data.draw, text)
    assert_same_program(text)


@settings(max_examples=300, deadline=None)
@given(query_programs(), st.data())
def test_generated_queries_parse_the_same(toks, data):
    assert_same_query(render(data.draw, toks))


@settings(max_examples=300, deadline=None)
@given(query_programs(), st.data())
def test_corrupted_queries_parse_the_same(toks, data):
    text = render(data.draw, corrupt(data.draw, toks))
    if data.draw(st.integers(0, 3)) == 0:
        text = truncate(data.draw, text)
    assert_same_query(text)


# ---------------------------------------------------------------------------
# The cases the generators may miss

RULES = "@infallible\nrule inc : Nat = n -> (Succ n)\nrule drop : Nat = (Succ n) -> n\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment",
        RULES + "main = adhoc(id, inc # the end",
        RULES + "main = adhoc(id, inc\n# the end",
        RULES + "main = adhoc(id, inc\n   ",
        RULES + "@infallible  # dangling",
        RULES + "@infallible\n",
        RULES + "@effect",
        RULES + "@effect(less rule",
        RULES + "@ 3",
        "3 main = id",
        RULES + "main = id %",
        RULES + "main = 1.5.3",
        RULES + "main = 1. id",
        RULES + "main = -",
        RULES + "main = a<b",
        RULES + 'main = "abc',
        RULES + 'main = "abc\\',
        RULES + 'main = "abc\\\\',
        RULES + 'main = "abc\\"',
        RULES + "main = ٣",
        RULES + "main = x٣ ; ½",
        RULES + "main = rule_choice(inc)",
        RULES + "main = rule_seq(inc, rule_choice(drop, inc)) ; family([inc, drop], id)",
        RULES + "main = family([inc, inc], id)",
        RULES + "main = id(x)",
        RULES + "def d(s) = adhoc(s, inc)\nmain = d(inc) ; d",
        RULES + "def d(s) = rec v. s ; v ; stop_bu(s)\nmain = d(d(try(inc)))",
        RULES + "main = id ; rec x. x <+ inc ; rec y. y",
        RULES + "main = (rec x. x <+ inc) ; x",
        RULES + "@effect(less)\n@infallible\n@effect(any)\nrule r : Nat = n -> n\nmain = r",
        RULES + "main = " + " ; ".join(["try(inc)"] * 300) + " <+ id",
    ],
)
def test_listed_programs_parse_the_same(text):
    assert_same_program(text)


@pytest.mark.parametrize(
    "text",
    [
        "qrule getsal : Salary = s -> s\nmain = full_cl(adhocq(failq, getsal)) <+q constq(1)",
        "main = failq <+qx",
        "main = failq <+q",
        "main = failq <+q# c",
        "main = constq(",
        "main = constq(2.)",
        "main = constq(unit) <+ failq",
        "main = rec",
        "main = rule",
        '"x" main = failq',
    ],
)
def test_listed_queries_parse_the_same(text):
    assert_same_query(text)


def test_reserved_names_are_the_old_sets():
    assert RESERVED == oracle.RESERVED
    assert QUERY_RESERVED == oracle.QUERY_RESERVED


# ---------------------------------------------------------------------------
# The intended differences


@pytest.mark.parametrize("text", ["main = ²", "main = 1²", "main = -²", "main = 1.²"])
def test_a_digit_int_rejects_was_a_crash_and_is_a_parse_error(text):
    with pytest.raises(ValueError):
        oracle.parse_program(text, NAT_SIG)
    with pytest.raises(ParseError) as err:
        parse_program(text, NAT_SIG)
    assert err.value.line == 1


def test_positions_after_a_raw_newline_in_a_string():
    with pytest.raises(ParseError) as err:
        oracle.tokenize('"a\nb" ?')
    assert (err.value.line, err.value.col) == (1, 7)
    with pytest.raises(ParseError) as err:
        tokenize('"a\nb" ?')
    assert (err.value.line, err.value.col) == (2, 4)
