"""Loaders for the strategy and query program formats.

A program file declares rewrite rules, optional parameterized
definitions, and a mandatory final main expression:

    @infallible
    rule increment : Nat = n -> (Succ n)
    rule atEven : Nat = n -> (Succ (Succ n)) where even_nat
    def norm(s) = repeat(s ; try(all(s)))
    main = stop_td(adhoc(fail, increment))

The grammar ({x}: any number of x; [x]: optional x; `#` comments run to
the end of the line):

    program  = {["@infallible" | "@effect(" rel {"," rel} ")"] rule | def | main}
    rule     = "rule" name ":" sort "=" pattern "->" pattern ["where" guard]
    def      = "def" name "(" [param {"," param}] ")" "=" strategy
    main     = "main" "=" strategy
    strategy = strategy ";" strategy | strategy "<+" strategy
             | "rec" var "." strategy | form | var | param | rule-name
             | def-name ["(" [strategy {"," strategy}] ")"]
    pattern  = "(" Constructor {pattern} ")" | Constructor | variable | literal ":" sort
    queries  = {"qrule" name ":" sort "=" pattern "->" pattern | "main" "=" query}
    query    = query "<+q" query | form
    form     = "(" expression ")" | form-name ["(" argument {"," argument} ")"]

with the forms and their argument kinds in `_STRATEGY_FORMS` and
`_QUERY_FORMS`. `;` binds tighter than `<+`; both, and `<+q`, associate
to the left; `rec v. e` extends as far right as possible. Rules are
visible everywhere; definitions are macros that expand at the call site
(alpha-renaming recursion binders, so nesting is safe) and must be
declared before use; main comes last, apart from rules. Capitalized
names in patterns are constructors, lower-case ones are variables, and
literals carry a sort tag, as in term files: `0.0:Salary`. A number is
`-?digits[.digits]`; a string is double-quoted, with `\\n` and `\\t`
escapes and `\\c` for any other c.
"""

from __future__ import annotations

import re
import warnings
from contextlib import contextmanager
from collections import namedtuple
from collections.abc import Callable

from .errors import LoadError, ParseError, StratkitError
from .files import _ESCAPE, _unescape, load_signature, read_text
from .queries import (
    UNIT,
    AdhocQ,
    AllQ,
    BothQ,
    ChoiceQ,
    ConstQ,
    FailQ,
    FullCl,
    OnceCl,
    QueryExpr,
    QueryRule,
    StopCl,
)
from .records import mutable_record, record
from .strategies import (
    FAIL,
    GUARDS,
    ID,
    Adhoc,
    Choice,
    One,
    All,
    Rec,
    Rule,
    RuleDef,
    RuleRef,
    Seq,
    Strategy,
    Var,
    binder_numbering,
    family,
    free_occurrences,
    full_bu,
    full_bu1,
    full_td,
    full_td1,
    innermost,
    innermost1,
    once_bu,
    once_bu1,
    once_td,
    once_td1,
    repeat,
    rule_choice,
    rule_seq,
    stop_bu,
    stop_td,
    stop_td1,
    substitute,
    try_,
)
from .terms import (
    PRIM_KINDS,
    Pattern,
    PLit,
    PNode,
    PVar,
    Signature,
    pattern_vars,
)


# ---------------------------------------------------------------------------
# Tokens


def _token_regex(choice: str) -> re.Pattern:
    """One token per match, after the whitespace and comments in front
    of it. `bad` takes a character no token starts with, and the quote
    of an unterminated string; `eof` matches once the text is used up."""
    return re.compile(
        r"""(?:\s|\#[^\n]*)*(?:
            (?P<float>-?\d+\.\d+) | (?P<int>-?\d+) | (?P<ident>\w+)
          | (?P<string>"(?:[^"\\]|\\[\s\S])*")
          | (?P<sym>""" + choice + r"""|->|[;()\[\],.=:@])
          | (?P<eof>\Z) | (?P<bad>[\s\S]))""",
        re.VERBOSE,
    )


#: In a query program `<+q` is one operator, unless the q opens a name.
_TOKENS = {False: _token_regex(r"<\+"), True: _token_regex(r"<\+(?:q(?!\w))?")}

KEYWORDS = frozenset({"rule", "qrule", "def", "main", "rec", "where"})


class Token(namedtuple("Token", "kind value at")):
    """kind is ident, int, float, string, sym or eof; at is the offset of
    the token's first character in the text."""

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(str(self.value))


def _is(t: Token, sym: str) -> bool:
    return t.kind == "sym" and t.value == sym


class _Error(Exception):
    """An error at an offset in the text; `_positions` turns it into a
    ParseError at a line and column."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


@contextmanager
def _positions(text: str, origin: str | None = None):
    try:
        yield
    except _Error as exc:
        raise ParseError.at(str(exc), text, exc.at, origin) from None


def tokenize(text: str, query: bool = False) -> list[Token]:
    """The tokens of text, ending with an eof token."""
    with _positions(text):
        return _scan(text, query)


def _scan(text: str, query: bool) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKENS[query].finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        at = m.start(kind)
        value: object = word
        if kind == "int":
            value = int(word)
        elif kind == "float":
            value = float(word)
        elif kind == "string":
            value = _ESCAPE.sub(_unescape, word[1:-1])
        elif kind == "eof":
            # where a comment runs to the end, the text ends at its start
            tail = text[m.start() :]
            comment = tail.find("#", tail.rfind("\n") + 1)
            toks.append(Token(kind, None, at if comment < 0 else m.start() + comment))
            break
        elif word == '"':
            # the string runs to the end of the text; it stops inside an
            # escape when the text ends in an odd run of backslashes
            trailing = len(text) - len(text.rstrip("\\"))
            raise _Error(f"unterminated {'escape' if trailing % 2 else 'string'}", at)
        elif kind == "bad" or kind == "ident" and not (
            word[0].isalpha() or word[0] == "_"
        ):
            # a name starts with a letter or `_`; '²' is a digit, but not
            # one int() reads
            raise _Error(f"unexpected character {word[0]!r}", at)
        toks.append(Token(kind, value, at))
    return toks


def _declarations(toks: list[Token], keywords: tuple[str, ...]) -> list[list[Token]]:
    """Split the tokens into declarations: an annotation, or a keyword
    and everything up to the next keyword or annotation. Each one ends
    with an eof token at its own last token."""
    out: list[list[Token]] = []
    i = 0
    while toks[i].kind != "eof":
        t, j = toks[i], i + 1
        if _is(t, "@"):
            if toks[j].kind != "ident":
                raise _Error("expected annotation name after '@'", t.at)
            j += 1
            if _is(toks[j], "("):
                while not _is(toks[j], ")"):
                    if toks[j].kind == "eof":
                        raise _Error("unclosed annotation", t.at)
                    j += 1
                j += 1
        elif t.kind == "ident" and t.value in keywords:
            while not (toks[j].kind == "eof" or _is(toks[j], "@")
                       or toks[j].kind == "ident" and toks[j].value in keywords):
                j += 1
        else:
            raise _Error(f"expected a declaration, found {t.describe()}", t.at)
        out.append(toks[i:j] + [Token("eof", None, toks[j - 1].at)])
        i = j
    return out


# ---------------------------------------------------------------------------
# The two languages
#
# A form is a name applied to arguments: name -> (builder, argument
# kinds). A form without argument kinds takes no parentheses. The kinds:
#   expr   an expression of the form's own language: a strategy or a query
#   rule   a rule name, or a rule_choice(...) or rule_seq(...) form
#   rules  one or more rules, separated by commas
#   cases  a bracketed, possibly empty list of rules
#   qrule  a query rule name
#   value  unit, or a numeric literal

_STRATEGY_FORMS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "id": (lambda: ID, ()),
    "fail": (lambda: FAIL, ()),
    "all": (All, ("expr",)),
    "one": (One, ("expr",)),
    "adhoc": (Adhoc, ("expr", "rule")),
    "family": (family, ("cases", "expr")),
    "rule_choice": (lambda rules: RuleRef(rule_choice(*rules)), ("rules",)),
    "rule_seq": (lambda rules: RuleRef(rule_seq(*rules)), ("rules",)),
    "try": (try_, ("expr",)),
    "repeat": (repeat, ("expr",)),
    "full_td": (full_td, ("expr",)),
    "full_bu": (full_bu, ("expr",)),
    "once_td": (once_td, ("expr",)),
    "once_bu": (once_bu, ("expr",)),
    "stop_td": (stop_td, ("expr",)),
    "stop_bu": (stop_bu, ("expr",)),
    "innermost": (innermost, ("expr",)),
    "full_td1": (full_td1, ("rule",)),
    "full_bu1": (full_bu1, ("rule",)),
    "once_td1": (once_td1, ("rule",)),
    "once_bu1": (once_bu1, ("rule",)),
    "stop_td1": (stop_td1, ("rule",)),
    "innermost1": (innermost1, ("rule",)),
}

_QUERY_FORMS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "failq": (FailQ, ()),
    "constq": (ConstQ, ("value",)),
    "bothq": (BothQ, ("expr", "expr")),
    "allq": (AllQ, ("expr",)),
    "adhocq": (AdhocQ, ("expr", "qrule")),
    "full_cl": (FullCl, ("expr",)),
    "stop_cl": (StopCl, ("expr",)),
    "once_cl": (OnceCl, ("expr",)),
}

#: Names with fixed meaning in strategy expressions.
RESERVED = KEYWORDS | frozenset(_STRATEGY_FORMS)

#: Names with fixed meaning in query expressions.
QUERY_RESERVED = KEYWORDS | frozenset(_QUERY_FORMS) | {"unit"}


#: what: the noun in "expected a ..., found ..."; infix: symbol ->
#: (precedence, builder), all associating left; binder: the prefix that
#: binds a recursion variable, or None; forms; keywords: names rejected
#: where an operand is expected
_Language = namedtuple("_Language", "what infix binder forms keywords")


_STRATEGY = _Language(
    "strategy", {";": (1, Seq), "<+": (0, Choice)}, "rec", _STRATEGY_FORMS, KEYWORDS
)
_QUERY = _Language("query", {"<+q": (0, ChoiceQ)}, None, _QUERY_FORMS, frozenset())


# ---------------------------------------------------------------------------
# Declarations


@record
class Def:
    name: str
    params: tuple[str, ...]
    body: Strategy


@mutable_record
class Program:
    signature: Signature
    rules: dict[str, RuleDef]
    defs: dict[str, Def]
    main: Strategy
    lints: list[str]


@mutable_record
class QueryProgram:
    signature: Signature
    qrules: dict[str, QueryRule]
    main: QueryExpr


class _Parser:
    """Reads one program's declarations, one at a time, by recursive
    descent; infix operators are read by precedence climbing in a loop,
    so a long chain of them costs no stack."""

    def __init__(self, lang: _Language):
        self.lang = lang
        self.rules: dict[str, RuleDef] = {}
        self.qrules: dict[str, QueryRule] = {}
        self.defs: dict[str, Def] = {}
        self.params: frozenset[str] = frozenset()
        self.scope: list[str] = []  # recursion variables bound here
        self.lints: list[str] = []
        self.toks: list[Token] = []
        self.pos = 0

    def start(self, toks: list[Token]) -> str:
        """Start on a declaration; the value of its first token."""
        self.toks, self.pos = toks, 1
        return str(toks[0].value)

    def next(self) -> Token:  # every caller rejects an eof token
        self.pos += 1
        return self.toks[self.pos - 1]

    def at(self, sym: str) -> bool:
        return _is(self.toks[self.pos], sym)

    def expect(self, sym: str) -> None:
        t = self.toks[self.pos]
        if not _is(t, sym):
            raise _Error(f"expected {sym!r}, found {t.describe()}", t.at)
        self.pos += 1

    def ident(self, what: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident":
            raise _Error(f"expected {what}, found {t.describe()}", t.at)
        self.pos += 1
        return t

    def name(self, what: str, reserved: frozenset) -> str:
        """A name a declaration or binder introduces."""
        t = self.ident(what)
        if t.value in reserved:
            raise _Error(f"{t.value!r} is reserved", t.at)
        return str(t.value)

    def end(self, context: str) -> None:
        t = self.toks[self.pos]
        if t.kind != "eof":
            raise _Error(f"unexpected {t.describe()} after {context}", t.at)

    def commas(self, item: Callable) -> list:
        """One or more items, separated by commas."""
        out = [item()]
        while self.at(","):
            self.pos += 1
            out.append(item())
        return out

    def group(self, item: Callable, open: str = "(", close: str = ")") -> list:
        """Items separated by commas, between open and close."""
        self.expect(open)
        out = [] if self.at(close) else self.commas(item)
        self.expect(close)
        return out

    # -- expressions

    def body(self, context: str, params=()) -> object:
        """The expression that ends the declaration; a scheme that can
        never do useful work adds a lint."""
        self.params = frozenset(params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            e = self.expr()
        self.lints.extend(str(w.message) for w in caught)
        self.end(context)
        return e

    def expr(self, min_prec: int = 0) -> object:
        t = self.toks[self.pos]
        if t.kind == "ident" and t.value == self.lang.binder:
            self.pos += 1
            name = self.name("recursion variable", RESERVED)
            self.expect(".")
            self.scope.append(name)
            body = self.expr()
            self.scope.pop()
            return Rec(name, body)
        left = self.operand()
        while True:
            t = self.toks[self.pos]
            op = self.lang.infix.get(t.value) if t.kind == "sym" else None
            if op is None or op[0] < min_prec:
                return left
            self.pos += 1
            left = op[1](left, self.expr(op[0] + 1))

    def operand(self) -> object:
        t = self.next()
        if _is(t, "("):
            inner = self.expr()
            self.expect(")")
            return inner
        if t.kind != "ident":
            raise _Error(f"expected a {self.lang.what}, found {t.describe()}", t.at)
        name = str(t.value)
        if name in self.lang.forms:
            return self.apply(t, *self.lang.forms[name])
        if name in self.lang.keywords:
            raise _Error(f"unexpected {name!r}", t.at)
        if name in self.scope or name in self.params:
            return Var(name)
        if name in self.defs:
            d = self.defs[name]
            args = self.group(self.expr) if self.at("(") else []
            if len(args) != len(d.params):
                raise _Error(
                    f"{name!r} takes {len(d.params)} argument(s), given {len(args)}",
                    t.at,
                )
            return substitute(d.body, dict(zip(d.params, args)))
        if name in self.rules:
            return RuleRef(self.rules[name])
        raise _Error(f"unknown name {name!r}", t.at)

    def apply(self, at: Token, build: Callable, kinds: tuple[str, ...]) -> object:
        args = []
        for i, kind in enumerate(kinds):
            self.expect("," if i else "(")
            args.append(self.argument(kind))
        if kinds:
            self.expect(")")
        try:
            return build(*args)
        except StratkitError as exc:
            raise _Error(str(exc), at.at) from None

    def argument(self, kind: str) -> object:
        if kind == "expr":
            return self.expr()
        if kind == "rule":
            return self.rule()
        if kind == "rules":
            return self.commas(self.rule)
        if kind == "cases":
            return self.group(self.rule, "[", "]")
        if kind == "qrule":
            t = self.ident("query rule name")
            if t.value not in self.qrules:
                raise _Error(f"unknown query rule {t.value!r}", t.at)
            return self.qrules[str(t.value)]
        t = self.next()  # a value
        if t.kind == "ident" and t.value == "unit":
            return UNIT
        if t.kind in ("int", "float"):
            return t.value
        raise _Error("constq takes unit or a numeric literal", t.at)

    def rule(self) -> Rule:
        t = self.ident("rule name")
        name = str(t.value)
        if name in ("rule_choice", "rule_seq"):
            return self.apply(t, *_STRATEGY_FORMS[name]).rule
        if name not in self.rules:
            hint = ""
            if name in self.params or name in self.defs:
                hint = " (a rule is required here, not a strategy)"
            raise _Error(f"unknown rule {name!r}{hint}", t.at)
        return self.rules[name]

    # -- declarations

    def pattern(self) -> Pattern:
        t = self.next()
        if _is(t, "("):
            head = self.ident("constructor")
            name = str(head.value)
            if not name[0].isupper():
                raise _Error(
                    f"constructor names are capitalized, found {name!r}", head.at
                )
            children = []
            while not self.at(")"):
                if self.toks[self.pos].kind == "eof":
                    raise _Error("unclosed pattern", t.at)
                children.append(self.pattern())
            self.pos += 1
            return PNode(name, tuple(children))
        if t.kind == "ident":
            name = str(t.value)
            if name in KEYWORDS:
                raise _Error(f"{name!r} cannot appear in a pattern", t.at)
            return PNode(name, ()) if name[0].isupper() else PVar(name)
        if t.kind in ("int", "float", "string"):
            self.expect(":")
            return PLit(t.value, str(self.ident("sort name").value))
        raise _Error(f"expected a pattern, found {t.describe()}", t.at)

    def annotation(self) -> tuple[str, object]:
        t = self.ident("annotation name")
        if t.value == "infallible":
            self.end("@infallible")
            return ("infallible", True)
        if t.value != "effect":
            raise _Error(
                f"unknown annotation {t.value!r} (expected infallible or effect)", t.at
            )
        self.expect("(")
        rels = self.commas(self.relation)
        self.expect(")")
        self.end("@effect(...)")
        return ("effect", tuple(rels))

    def relation(self):
        from .termination import parse_rel  # only effect claims need it

        t = self.ident("effect component (less/leq/any)")
        try:
            return parse_rel(str(t.value))
        except ParseError as exc:
            raise _Error(str(exc), t.at) from None

    def rule_decl(self, kind: str, annotations: dict[str, object]):
        reserved = RESERVED if kind == "rule" else QUERY_RESERVED
        name = self.name("rule name", reserved)
        self.expect(":")
        sort = str(self.ident("sort name").value)
        self.expect("=")
        lhs = self.pattern()
        self.expect("->")
        rhs = self.pattern()
        guard = None
        t = self.toks[self.pos]
        if t.kind == "ident" and t.value == "where":
            if kind == "qrule":
                raise _Error("query rules take no guard", t.at)
            self.pos += 1
            guard_tok = self.ident("guard name")
            guard = str(guard_tok.value)
            if guard not in GUARDS:
                known = ", ".join(sorted(GUARDS))
                raise _Error(f"unknown guard {guard!r} (known: {known})", guard_tok.at)
        self.end(f"{kind} {name!r}")
        if kind == "qrule":
            return QueryRule(name, sort, lhs, rhs)
        return RuleDef(
            name, sort, lhs, rhs, guard=guard,
            infallible=bool(annotations.get("infallible")),
            effect_claim=annotations.get("effect"),
        )

    def definition(self, diags: list[str]) -> None:
        name = self.name("definition name", RESERVED)
        if name in self.defs or name in self.rules:
            diags.append(f"name {name!r} declared twice")
        params = self.group(lambda: str(self.ident("parameter").value))
        if len(set(params)) != len(params):
            diags.append(f"def {name!r}: duplicate parameter names")
        self.expect("=")
        expr = self.body(f"def {name!r}", params)
        d = Def(name, tuple(params), expr)
        _param_linearity_lints(d, self.lints)
        self.defs[name] = d


# ---------------------------------------------------------------------------
# Semantic checks


def _check_pattern(
    sig: Signature,
    p: Pattern,
    expected: str,
    binding: dict[str, str],
    where: str,
    diags: list[str],
) -> None:
    if isinstance(p, PVar):
        seen = binding.get(p.name)
        if seen is None:
            binding[p.name] = expected
        elif seen != expected:
            diags.append(
                f"{where}: variable {p.name!r} used at sorts "
                f"{seen!r} and {expected!r}"
            )
        return
    if isinstance(p, PLit):
        if p.sort != expected:
            diags.append(
                f"{where}: literal of sort {p.sort!r} where {expected!r} is needed"
            )
        kind = sig.prim_sorts.get(p.sort)
        if kind is None:
            diags.append(f"{where}: {p.sort!r} is not a primitive sort")
        elif type(p.value) is not PRIM_KINDS[kind]:
            diags.append(
                f"{where}: {p.value!r} is not a {kind} (sort {p.sort!r})"
            )
        return
    sym = sig.by_constr.get(p.constr)
    if sym is None:
        diags.append(f"{where}: unknown constructor {p.constr!r}")
        return
    if sym.result_sort != expected:
        diags.append(
            f"{where}: constructor {p.constr!r} builds {sym.result_sort!r}, "
            f"not {expected!r}"
        )
    if len(p.children) != len(sym.arg_sorts):
        diags.append(
            f"{where}: {p.constr!r} takes {len(sym.arg_sorts)} arguments, "
            f"given {len(p.children)}"
        )
        return
    for child, arg_sort in zip(p.children, sym.arg_sorts):
        _check_pattern(sig, child, arg_sort, binding, where, diags)


def _check_rule_patterns(
    sig: Signature,
    name: str,
    sort: str,
    lhs: Pattern,
    rhs: Pattern,
    diags: list[str],
    kind: str = "rule",
) -> None:
    where = f"{kind} {name!r}"
    if sort not in sig.sorts:
        diags.append(f"{where}: unknown sort {sort!r}")
        return
    binding: dict[str, str] = {}
    _check_pattern(sig, lhs, sort, binding, where + " lhs", diags)
    missing = pattern_vars(rhs) - pattern_vars(lhs)
    if missing:
        names = ", ".join(sorted(missing))
        diags.append(f"{where}: rhs uses unbound variables: {names}")
    if kind == "rule":  # a query rule's extraction is no term of its sort
        _check_pattern(sig, rhs, sort, dict(binding), where + " rhs", diags)


def _param_linearity_lints(d: Def, lints: list[str]) -> None:
    counts = free_occurrences(d.body)
    for p in d.params:
        if counts.get(p, 0) > 1:
            lints.append(
                f"def {d.name!r}: parameter {p!r} is used {counts[p]} times; "
                "expansion duplicates its argument"
            )


# ---------------------------------------------------------------------------
# Program loading


def parse_program(
    text: str, sig: Signature, origin: str | None = None
) -> Program:
    """The program in text; its expansions number their recursion
    binders from $1, as in a fresh process. A ParseError names origin,
    when it is given, before its line and column."""
    with binder_numbering(), _positions(text, origin):
        toks = _scan(text, False)
        p = _Parser(_STRATEGY)
        diags: list[str] = []

        # rules first: order-free visibility for defs and main
        pending: dict[str, object] = {}  # annotations, the first of each kind
        deferred: list[list[Token]] = []
        for decl in _declarations(toks, ("rule", "def", "main")):
            kind = p.start(decl)
            if kind == "@":
                pending.setdefault(*p.annotation())
            elif kind == "rule":
                rule = p.rule_decl("rule", pending)
                pending = {}
                if rule.name in p.rules:
                    diags.append(f"rule {rule.name!r} declared twice")
                p.rules[rule.name] = rule
            elif pending:
                raise _Error("annotations must be followed by a rule", decl[0].at)
            else:
                deferred.append(decl)
        if pending:
            raise _Error("annotations must be followed by a rule", toks[-1].at)

        for rule in p.rules.values():
            _check_rule_patterns(sig, rule.name, rule.sort, rule.lhs, rule.rhs, diags)

        main: Strategy | None = None
        for decl in deferred:
            if main is not None:
                raise _Error("main must be the last declaration", decl[0].at)
            if p.start(decl) == "def":
                p.definition(diags)
            else:
                p.expect("=")
                main = p.body("main")

    if main is None:
        diags.append("program has no main")
    if diags:
        raise LoadError(diags)
    return Program(sig, p.rules, p.defs, main, p.lints)


def load_program(sig_path: str, prog_path: str) -> Program:
    sig = load_signature(sig_path)
    return parse_program(read_text(prog_path), sig, origin=prog_path)


# ---------------------------------------------------------------------------
# Query programs


def parse_query_program(
    text: str, sig: Signature, origin: str | None = None
) -> QueryProgram:
    """The query program in text. A ParseError names origin, when it is
    given, before its line and column."""
    p = _Parser(_QUERY)
    diags: list[str] = []
    main: QueryExpr | None = None
    with _positions(text, origin):
        for decl in _declarations(_scan(text, True), ("qrule", "main")):
            kind = p.start(decl)
            if kind == "@":
                raise _Error("query rules take no annotations", decl[0].at)
            if main is not None:
                raise _Error("main must be the last declaration", decl[0].at)
            if kind == "qrule":
                qr = p.rule_decl("qrule", {})
                if qr.name in p.qrules:
                    diags.append(f"query rule {qr.name!r} declared twice")
                p.qrules[qr.name] = qr
                _check_rule_patterns(
                    sig, qr.name, qr.sort, qr.lhs, qr.extract, diags, kind="query rule"
                )
            else:
                p.expect("=")
                main = p.body("main")
    if main is None:
        diags.append("query program has no main")
    if diags:
        raise LoadError(diags)
    return QueryProgram(sig, p.qrules, main)


def load_query_program(sig_path: str, query_path: str) -> QueryProgram:
    sig = load_signature(sig_path)
    return parse_query_program(read_text(query_path), sig, origin=query_path)
