"""The program and query file formats: grammar, precedence, macro
expansion, diagnostics, and lints."""

import pytest

from stratkit.dsl import (
    load_program,
    load_query_program,
    parse_program,
    parse_query_program,
    tokenize,
)
from stratkit.errors import LoadError, ParseError
from stratkit.files import parse_term
from stratkit.interp import CompiledStrategy, Failure
from stratkit.queries import (
    UNIT,
    AdhocQ,
    AllQ,
    BothQ,
    ChoiceQ,
    ConstQ,
    FailQ,
    FullCl,
    OnceCl,
    StopCl,
)
from stratkit.strategies import (
    FAIL,
    ID,
    Adhoc,
    Choice,
    Rec,
    RuleRef,
    Seq,
    Var,
    print_strategy,
    stop_td,
)
from stratkit.termination import ANY, LESS
from stratkit.terms import Node

from genlib import canon

RULES = """\
@infallible
rule increment : Nat = n -> (Succ n)
rule dropSucc : Nat = (Succ n) -> n
"""


def parse(text, sig):
    return parse_program(RULES + text, sig)


def main_of(text, sig):
    return parse(text, sig).main


# ---------------------------------------------------------------------------
# Grammar


def test_rules_and_main(sig):
    prog = parse("main = stop_td(adhoc(fail, increment))", sig)
    inc = prog.rules["increment"]
    assert inc.infallible and inc.sort == "Nat"
    assert not prog.rules["dropSucc"].infallible
    assert canon(prog.main) == canon(stop_td(Adhoc(FAIL, inc)))
    assert prog.lints == []


def test_rules_are_visible_regardless_of_position(sig):
    # rules hoist; only defs must precede use and main must close the file
    text = "main = late\nrule late : Nat = n -> (Succ n)"
    prog = parse_program(text, sig)
    assert prog.main == RuleRef(prog.rules["late"])


def test_operator_precedence_and_associativity(sig):
    prog = parse("main = increment ; dropSucc <+ id", sig)
    inc = RuleRef(prog.rules["increment"])
    drop = RuleRef(prog.rules["dropSucc"])
    assert prog.main == Choice(Seq(inc, drop), ID)
    assert main_of("main = increment <+ dropSucc ; id", sig) == Choice(
        inc, Seq(drop, ID)
    )
    assert main_of("main = increment ; dropSucc ; id", sig) == Seq(
        Seq(inc, drop), ID
    )
    assert main_of("main = increment <+ dropSucc <+ id", sig) == Choice(
        Choice(inc, drop), ID
    )
    assert main_of("main = (increment <+ dropSucc) ; id", sig) == Seq(
        Choice(inc, drop), ID
    )


def test_rec_extends_as_far_right_as_possible(sig):
    assert main_of("main = rec x. x ; id", sig) == Rec("x", Seq(Var("x"), ID))
    assert main_of("main = (rec x. x) ; id", sig) == Seq(Rec("x", Var("x")), ID)
    assert main_of("main = id <+ rec x. x ; x", sig) == Choice(
        ID, Rec("x", Seq(Var("x"), Var("x")))
    )


def test_def_expansion_is_textual(sig):
    text = """\
def twice(s) = s ; s
def again(s) = twice(twice(s))
main = again(increment)
"""
    prog = parse(text, sig)
    inc = RuleRef(prog.rules["increment"])
    once = Seq(inc, inc)
    assert prog.main == Seq(once, once)
    # a nullary definition can be called with or without parens
    assert main_of("def d() = id ; id\nmain = d", sig) == Seq(ID, ID)
    assert main_of("def d() = id ; id\nmain = d()", sig) == Seq(ID, ID)


def test_expanded_recursion_still_runs(sig):
    text = "def loop(s) = rec v. (s ; v)\nmain = loop(rec v. fail <+ id)"
    prog = parse(text, sig)
    # the argument's binder shadows the definition's own
    expected = Rec("a", Seq(Rec("b", Choice(FAIL, ID)), Var("a")))
    assert canon(prog.main) == canon(expected)
    out = CompiledStrategy(main_of("main = rec v. (fail ; v)", sig), sig).run(
        Node("Zero"), 1000
    )
    assert isinstance(out, Failure)


def test_annotations(sig):
    text = """\
@infallible
@effect(less, any)
rule shrink : Nat = (Succ n) -> n
main = shrink
"""
    prog = parse_program(text, sig)
    rule = prog.rules["shrink"]
    assert rule.infallible
    assert rule.effect_claim == (LESS, ANY)


# ---------------------------------------------------------------------------
# Lints


def test_lints_do_not_block_loading(sig):
    text = "def both(s) = s ; s\nmain = stop_bu(increment)"
    prog = parse(text, sig)
    assert len(prog.lints) == 2
    assert any("used 2 times" in lint for lint in prog.lints)
    assert any("identity" in lint for lint in prog.lints)
    # a rec binder hides its name from the count, and nothing else
    shadowed = parse("def d(s, t) = rec s. t ; t\nmain = id", sig)
    assert shadowed.lints == [
        "def 'd': parameter 't' is used 2 times; expansion duplicates its argument"
    ]


def test_lint_fixture_loads_with_both_lints(fixtures_dir):
    prog = load_program(
        str(fixtures_dir / "nat_tree.sig"),
        str(fixtures_dir / "programs" / "lint_bait.strat"),
    )
    assert len(prog.lints) == 2


# ---------------------------------------------------------------------------
# Diagnostics

BAD_PROGRAMS = [
    ("rule increment : Nat = n -> (Succ n)", LoadError, "program has no main"),
    ("main = id\nmain = id", ParseError, "main must be the last declaration"),
    ("main = id\ndef d() = id", ParseError, "main must be the last"),
    (RULES + "rule increment : Nat = n -> n\nmain = id", LoadError, "declared twice"),
    ("def d() = id\ndef d() = id\nmain = id", LoadError, "name 'd' declared twice"),
    ("rule d : Nat = n -> n\ndef d() = id\nmain = id", LoadError, "name 'd' declared twice"),
    ("rule bad : Nat = n -> (Succ m)\nmain = id", LoadError, "unbound variables: m"),
    ("rule bad : Mystery = n -> n\nmain = id", LoadError, "unknown sort 'Mystery'"),
    (
        "rule bad : Nat = (Succ n n) -> n\nmain = id",
        LoadError,
        "'Succ' takes 1 arguments, given 2",
    ),
    ("rule bad : Nat = (Frob n) -> n\nmain = id", LoadError, "unknown constructor"),
    (
        "rule bad : Nat = n -> (True)\nmain = id",
        LoadError,
        "constructor 'True' builds 'Bool', not 'Nat'",
    ),
    (
        "rule bad : NatTree = (Node n k) -> (Node n n)\nmain = id",
        LoadError,
        "variable 'n' used at sorts 'Nat' and '[NatTree]'",
    ),
    (
        "rule g : Nat = n -> n where sideways\nmain = id",
        ParseError,
        "unknown guard 'sideways'",
    ),
    ("rule all : Nat = n -> n\nmain = id", ParseError, "'all' is reserved"),
    ("main = rec fail. id", ParseError, "'fail' is reserved"),
    ("@infallible\nmain = id", ParseError, "annotations must be followed by a rule"),
    ("@frozen\nrule r : Nat = n -> n\nmain = id", ParseError, "unknown annotation"),
    ("@effect(wrong)\nrule r : Nat = n -> n\nmain = id", ParseError, "measure relation"),
    ("def a() = b()\ndef b() = id\nmain = a", ParseError, "unknown name 'b'"),
    ("main = mystery", ParseError, "unknown name 'mystery'"),
    # a name outside every rec and parameter is refused where it stands
    ("rule r : Nat = n -> n\ndef d(s) = t\nmain = id", ParseError, "2:12: unknown name 't'"),
    (
        "def norm(s) = full_td1(s)\nmain = id",
        ParseError,
        "(a rule is required here, not a strategy)",
    ),
    (
        "rule bad : Nat = (succ n) -> n\nmain = id",
        ParseError,
        "constructor names are capitalized",
    ),
    ("def d(a) = a\nmain = d(id, id)", ParseError, "takes 1 argument(s), given 2"),
    ("def try(s) = s\nmain = id", ParseError, "'try' is reserved"),
    ("main = adhoc(id, increment", ParseError, "expected ')'"),
]


@pytest.mark.parametrize("text,exc,fragment", BAD_PROGRAMS)
def test_rejected_programs(sig, text, exc, fragment):
    with pytest.raises(exc) as err:
        parse_program(RULES + text if text.startswith(("main", "def")) else text, sig)
    assert fragment in str(err.value)


def test_load_error_collects_every_diagnostic(sig):
    text = "rule a : Nat = n -> (Succ m)\nrule b : Mystery = n -> n\nmain = id"
    with pytest.raises(LoadError) as err:
        parse_program(text, sig)
    assert len(err.value.diagnostics) == 2


def test_parse_errors_carry_positions(sig):
    with pytest.raises(ParseError) as err:
        parse_program("main = id %", sig)
    assert str(err.value).startswith("1:11:")
    assert err.value.line == 1 and err.value.col == 11
    # parsed from a string without an origin, an error names no file
    with pytest.raises(ParseError) as err:
        parse_program("main = 1.5.3", sig)
    assert str(err.value) == "1:8: expected a strategy, found '1.5'"


def test_loaders_name_the_file_before_the_position(fixtures_dir, tmp_path):
    prog = tmp_path / "bad.strat"
    prog.write_text("# a comment\nmain = 1.5.3\n")
    with pytest.raises(ParseError) as err:
        load_program(str(fixtures_dir / "nat_tree.sig"), str(prog))
    assert str(err.value) == f"{prog}:2:8: expected a strategy, found '1.5'"
    assert (err.value.line, err.value.col) == (2, 8)
    query = tmp_path / "bad.query"
    query.write_text("main = failq <+q\n")
    with pytest.raises(ParseError) as err:
        load_query_program(str(fixtures_dir / "company.sig"), str(query))
    assert str(err.value) == f"{query}:1:14: expected a query, found end of input"
    # semantic diagnostics are not positioned, and name no file
    prog.write_text("rule r : Mystery = n -> n\nmain = r\n")
    with pytest.raises(LoadError) as err:
        load_program(str(fixtures_dir / "nat_tree.sig"), str(prog))
    assert str(err.value) == "rule 'r': unknown sort 'Mystery'"


def test_a_digit_int_cannot_read_is_a_parse_error(sig, company_sig):
    # '²' is a digit to str.isdigit, but int() rejects it
    with pytest.raises(ParseError) as err:
        parse_program("main = ²", sig)
    assert str(err.value) == "1:8: unexpected character '²'"
    with pytest.raises(ParseError, match="^1:9: unexpected character '²'$"):
        parse_program("main = 1²", sig)
    # an Arabic-Indic digit is a decimal digit: it reads as 3 here, as
    # it does in a term file
    assert qmain("main = constq(٣)", company_sig) == ConstQ(3)
    assert parse_term("٣:Count").value == 3


def test_a_ten_thousand_step_program_parses(sig):
    prog = parse(" main = " + " ; ".join(["try(increment)"] * 10_000), sig)
    steps, s = 1, prog.main
    while isinstance(s, Seq):
        steps, s = steps + 1, s.left
    assert steps == 10_000


# ---------------------------------------------------------------------------
# Tokenizer corners


def test_comments_and_literals():
    toks = tokenize('# note\nrule -3 2.5 "a\\"b\\n"')
    kinds = [(t.kind, t.value) for t in toks[:-1]]
    assert kinds == [
        ("ident", "rule"),
        ("int", -3),
        ("float", 2.5),
        ("string", 'a"b\n'),
    ]


def test_query_choice_operator_needs_a_break():
    toks = tokenize("a <+q b", query=True)
    assert [t.value for t in toks[:-1]] == ["a", "<+q", "b"]
    toks = tokenize("a <+qb", query=True)
    assert [t.value for t in toks[:-1]] == ["a", "<+", "qb"]
    toks = tokenize("a <+q b", query=False)
    assert [t.value for t in toks[:-1]] == ["a", "<+", "q", "b"]


# ---------------------------------------------------------------------------
# Query programs

QRULES = """\
qrule getsal : Salary = s -> s
qrule one : Salary = s -> 1.0:Salary
"""


def qmain(text, company_sig):
    return parse_query_program(QRULES + text, company_sig).main


def test_query_grammar(company_sig):
    prog = parse_query_program(
        QRULES + "main = full_cl(adhocq(constq(unit), getsal))", company_sig
    )
    getsal = prog.qrules["getsal"]
    hit = AdhocQ(FailQ(), getsal)
    assert prog.main == FullCl(AdhocQ(ConstQ(UNIT), getsal))
    assert qmain("main = constq(3)", company_sig) == ConstQ(3)
    assert qmain(
        "main = bothq(failq, allq(adhocq(failq, getsal)))", company_sig
    ) == BothQ(FailQ(), AllQ(hit))
    assert qmain(
        "main = failq <+q adhocq(failq, getsal) <+q constq(unit)", company_sig
    ) == ChoiceQ(ChoiceQ(FailQ(), hit), ConstQ(UNIT))
    assert qmain(
        "main = stop_cl(once_cl(adhocq(failq, getsal)))", company_sig
    ) == StopCl(OnceCl(hit))


def test_query_rules_enter_only_through_adhocq(company_sig):
    with pytest.raises(ParseError, match="unknown name 'getsal'"):
        parse_query_program(QRULES + "main = getsal", company_sig)


BAD_QUERIES = [
    ("main = adhocq(failq, ghost)", ParseError, "unknown query rule 'ghost'"),
    (QRULES + "main = constq(id)", ParseError, "unit or a numeric literal"),
    (QRULES + "qrule getsal : Salary = s -> s\nmain = failq", LoadError, "twice"),
    (QRULES, LoadError, "query program has no main"),
    ("@infallible\nqrule g : Salary = s -> s\nmain = failq", ParseError, "no annotations"),
    ("qrule g : Salary = s -> s where even_nat\nmain = failq", ParseError, "no guard"),
    (
        'qrule r : Salary = "x":Salary -> 1.0:Salary\nmain = failq',
        LoadError,
        "rule 'r' lhs: 'x' is not a float (sort 'Salary')",
    ),
    (
        "qrule g : Salary = s -> s\nmain = failq\nqrule h : Salary = s -> s",
        ParseError,
        "3:1: main must be the last declaration",
    ),
]


@pytest.mark.parametrize("text,exc,fragment", BAD_QUERIES)
def test_rejected_query_programs(company_sig, text, exc, fragment):
    with pytest.raises(exc) as err:
        parse_query_program(text, company_sig)
    assert fragment in str(err.value)


def test_query_extraction_side_is_not_sort_checked(company_sig):
    # mgrzero maps a Manager subtree to a Salary literal; only the lhs
    # must fit the rule's sort
    text = "qrule mgrzero : Manager = m -> 0.0:Salary\nmain = adhocq(failq, mgrzero)"
    prog = parse_query_program(text, company_sig)
    assert prog.qrules["mgrzero"].sort == "Manager"


# ---------------------------------------------------------------------------
# Shipped fixtures all load

PROGRAM_SIGS = {
    "inc_salary.strat": "company.sig",
}


def test_every_shipped_program_loads(fixtures_dir):
    for prog_path in sorted((fixtures_dir / "programs").glob("*.strat")):
        sig_name = PROGRAM_SIGS.get(prog_path.name, "nat_tree.sig")
        prog = load_program(str(fixtures_dir / sig_name), str(prog_path))
        assert prog.main is not None


def test_every_shipped_query_loads(fixtures_dir):
    for q_path in sorted((fixtures_dir / "queries").glob("*.query")):
        prog = load_query_program(str(fixtures_dir / "company.sig"), str(q_path))
        assert prog.main is not None


def test_each_load_numbers_binders_from_one(fixtures_dir):
    def load():
        return load_program(
            fixtures_dir / "nat_tree.sig",
            fixtures_dir / "programs" / "stop_increment.strat",
        )

    first = print_strategy(load().main)
    assert first == "rec $1. adhoc(fail,increment) <+ all($1)"
    assert print_strategy(load().main) == first
