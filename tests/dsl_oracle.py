"""Reference oracle for the program and query front end: the
character-by-character tokenizer, the token cursor, and the two
recursive-descent expression parsers (with the declaration loops
around them) that `stratkit.dsl` replaced, kept verbatim. Only the
imports changed: `Def`, `Program` and `QueryProgram` come from
`stratkit.dsl`, so the results of both front ends compare equal.

test_dsl_front_end.py holds the new front end to its results, error
messages and positions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from stratkit.errors import LoadError, ParseError, StratkitError
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
    QueryExpr,
    QueryRule,
    StopCl,
)
from stratkit.strategies import (
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
    free_vars,
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
from stratkit.terms import (
    PRIM_KINDS,
    Pattern,
    PLit,
    PNode,
    PVar,
    Signature,
    pattern_vars,
)
from stratkit.termination import Rel, parse_rel
from stratkit.dsl import Def, Program, QueryProgram


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = {";", "(", ")", "[", "]", ",", ".", "=", ":", "@"}

KEYWORDS = frozenset({"rule", "qrule", "def", "main", "rec", "where"})

#: Names with fixed meaning in strategy expressions.
RESERVED = KEYWORDS | frozenset(
    {
        "id",
        "fail",
        "all",
        "one",
        "adhoc",
        "family",
        "rule_choice",
        "rule_seq",
        "try",
        "repeat",
        "full_td",
        "full_bu",
        "once_td",
        "once_bu",
        "stop_td",
        "stop_bu",
        "innermost",
        "full_td1",
        "full_bu1",
        "once_td1",
        "once_bu1",
        "stop_td1",
        "innermost1",
    }
)

QUERY_RESERVED = KEYWORDS | frozenset(
    {
        "constq",
        "failq",
        "bothq",
        "allq",
        "adhocq",
        "full_cl",
        "stop_cl",
        "once_cl",
        "unit",
    }
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | float | string | sym | eof
    value: object
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(str(self.value))


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str, query: bool = False) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            toks.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            kind = "int"
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                kind = "float"
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            word = text[i:j]
            value = float(word) if kind == "float" else int(word)
            toks.append(Token(kind, value, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    if j + 1 >= n:
                        raise ParseError(
                            "unterminated escape", start_line, start_col
                        )
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            toks.append(Token("string", "".join(out), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "<" and text[i : i + 2] == "<+":
            # in query mode the operator carries a q suffix, unless the q
            # opens an ordinary identifier
            if (
                query
                and text[i : i + 3] == "<+q"
                and (i + 3 >= n or not _is_ident_char(text[i + 3]))
            ):
                toks.append(Token("sym", "<+q", start_line, start_col))
                i += 3
                col += 3
            else:
                toks.append(Token("sym", "<+", start_line, start_col))
                i += 2
                col += 2
            continue
        if c == "-" and text[i : i + 2] == "->":
            toks.append(Token("sym", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _SYMBOLS:
            toks.append(Token("sym", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Declarations


def _split_chunks(toks: list[Token], keywords: tuple[str, ...]):
    """Group the token stream into annotation/declaration chunks."""
    chunks: list[tuple[str, list[Token]]] = []
    i = 0
    while toks[i].kind != "eof":
        t = toks[i]
        if t.kind == "sym" and t.value == "@":
            j = i + 1
            if toks[j].kind != "ident":
                raise ParseError("expected annotation name after '@'", t.line, t.col)
            j += 1
            if toks[j].kind == "sym" and toks[j].value == "(":
                while toks[j].kind != "eof" and not (
                    toks[j].kind == "sym" and toks[j].value == ")"
                ):
                    j += 1
                if toks[j].kind == "eof":
                    raise ParseError("unclosed annotation", t.line, t.col)
                j += 1
            chunks.append(("@", toks[i:j]))
            i = j
            continue
        if t.kind == "ident" and t.value in keywords:
            j = i + 1
            while toks[j].kind != "eof" and not (
                (toks[j].kind == "ident" and toks[j].value in keywords)
                or (toks[j].kind == "sym" and toks[j].value == "@")
            ):
                j += 1
            chunks.append((str(t.value), toks[i:j]))
            i = j
            continue
        raise ParseError(
            f"expected a declaration, found {t.describe()}", t.line, t.col
        )
    return chunks


class _TokenCursor:
    def __init__(self, toks: list[Token]):
        self.toks = list(toks)
        if not self.toks or self.toks[-1].kind != "eof":
            last = self.toks[-1] if self.toks else Token("eof", None, 1, 1)
            self.toks.append(Token("eof", None, last.line, last.col))
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, *values: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.value in values

    def expect_sym(self, value: str) -> Token:
        t = self.peek()
        if not (t.kind == "sym" and t.value == value):
            raise ParseError(f"expected {value!r}, found {t.describe()}", t.line, t.col)
        return self.next()

    def expect_ident(self, what: str = "name") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.describe()}", t.line, t.col)
        return self.next()

    def expect_end(self, context: str) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(
                f"unexpected {t.describe()} after {context}", t.line, t.col
            )


# ---------------------------------------------------------------------------
# Patterns


def _parse_pattern(cur: _TokenCursor) -> Pattern:
    t = cur.next()
    if t.kind == "sym" and t.value == "(":
        head = cur.expect_ident("constructor")
        name = str(head.value)
        if not name[0].isupper():
            raise ParseError(
                f"constructor names are capitalized, found {name!r}",
                head.line,
                head.col,
            )
        children = []
        while not cur.at_sym(")"):
            if cur.peek().kind == "eof":
                raise ParseError("unclosed pattern", t.line, t.col)
            children.append(_parse_pattern(cur))
        cur.next()
        return PNode(name, tuple(children))
    if t.kind == "ident":
        name = str(t.value)
        if name in KEYWORDS:
            raise ParseError(f"{name!r} cannot appear in a pattern", t.line, t.col)
        if name[0].isupper():
            return PNode(name, ())
        return PVar(name)
    if t.kind in ("int", "float", "string"):
        cur.expect_sym(":")
        sort = cur.expect_ident("sort name")
        return PLit(t.value, str(sort.value))
    raise ParseError(f"expected a pattern, found {t.describe()}", t.line, t.col)


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
    check_rhs_sort: bool = True,
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
    if check_rhs_sort:
        _check_pattern(sig, rhs, sort, dict(binding), where + " rhs", diags)


# ---------------------------------------------------------------------------
# Strategy expressions

_SCHEMES = {
    "try": try_,
    "repeat": repeat,
    "full_td": full_td,
    "full_bu": full_bu,
    "once_td": once_td,
    "once_bu": once_bu,
    "stop_td": stop_td,
    "stop_bu": stop_bu,
    "innermost": innermost,
}

_PRIMED = {
    "full_td1": full_td1,
    "full_bu1": full_bu1,
    "once_td1": once_td1,
    "once_bu1": once_bu1,
    "stop_td1": stop_td1,
    "innermost1": innermost1,
}


class _ExprParser:
    def __init__(
        self,
        cur: _TokenCursor,
        rules: dict[str, RuleDef],
        defs: dict[str, Def],
        params: frozenset[str],
        lints: list[str],
    ):
        self.cur = cur
        self.rules = rules
        self.defs = defs
        self.params = params
        self.lints = lints
        self.scope: list[str] = []

    def expr(self, min_prec: int = 0) -> Strategy:
        t = self.cur.peek()
        if t.kind == "ident" and t.value == "rec":
            self.cur.next()
            binder = self.cur.expect_ident("recursion variable")
            name = str(binder.value)
            if name in RESERVED:
                raise ParseError(
                    f"{name!r} is reserved", binder.line, binder.col
                )
            self.cur.expect_sym(".")
            self.scope.append(name)
            try:
                body = self.expr(0)
            finally:
                self.scope.pop()
            return Rec(name, body)
        left = self.atom()
        while True:
            if self.cur.at_sym(";") and min_prec <= 1:
                self.cur.next()
                left = Seq(left, self.expr(2))
            elif self.cur.at_sym("<+") and min_prec <= 0:
                self.cur.next()
                left = Choice(left, self.expr(1))
            else:
                return left

    def atom(self) -> Strategy:
        t = self.cur.next()
        if t.kind == "sym" and t.value == "(":
            inner = self.expr(0)
            self.cur.expect_sym(")")
            return inner
        if t.kind != "ident":
            raise ParseError(
                f"expected a strategy, found {t.describe()}", t.line, t.col
            )
        name = str(t.value)
        if name == "id":
            return ID
        if name == "fail":
            return FAIL
        if name == "all" or name == "one":
            self.cur.expect_sym("(")
            body = self.expr(0)
            self.cur.expect_sym(")")
            return All(body) if name == "all" else One(body)
        if name == "adhoc":
            self.cur.expect_sym("(")
            default = self.expr(0)
            self.cur.expect_sym(",")
            rule = self.rule_designator()
            self.cur.expect_sym(")")
            return Adhoc(default, rule)
        if name == "family":
            return self.family_call(t)
        if name in ("rule_choice", "rule_seq"):
            return RuleRef(self.composite(name, t))
        if name in _SCHEMES:
            self.cur.expect_sym("(")
            body = self.expr(0)
            self.cur.expect_sym(")")
            return self.build_scheme(name, body)
        if name in _PRIMED:
            self.cur.expect_sym("(")
            rule = self.rule_designator()
            self.cur.expect_sym(")")
            return _PRIMED[name](rule)
        if name in KEYWORDS:
            raise ParseError(f"unexpected {name!r}", t.line, t.col)
        for binder in reversed(self.scope):
            if binder == name:
                return Var(name)
        if name in self.params:
            return Var(name)
        if name in self.defs:
            return self.def_call(name, t)
        if name in self.rules:
            return RuleRef(self.rules[name])
        raise ParseError(f"unknown name {name!r}", t.line, t.col)

    def build_scheme(self, name: str, body: Strategy) -> Strategy:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _SCHEMES[name](body)
        for w in caught:
            self.lints.append(str(w.message))
        return out

    def family_call(self, at: Token) -> Strategy:
        self.cur.expect_sym("(")
        self.cur.expect_sym("[")
        cases: list[Rule] = []
        if not self.cur.at_sym("]"):
            cases.append(self.rule_designator())
            while self.cur.at_sym(","):
                self.cur.next()
                cases.append(self.rule_designator())
        self.cur.expect_sym("]")
        self.cur.expect_sym(",")
        default = self.expr(0)
        self.cur.expect_sym(")")
        try:
            return family(cases, default)
        except StratkitError as exc:
            raise ParseError(str(exc), at.line, at.col) from None

    def composite(self, kind: str, at: Token) -> Rule:
        self.cur.expect_sym("(")
        members = [self.rule_designator()]
        while self.cur.at_sym(","):
            self.cur.next()
            members.append(self.rule_designator())
        self.cur.expect_sym(")")
        build = rule_choice if kind == "rule_choice" else rule_seq
        try:
            return build(*members)
        except StratkitError as exc:
            raise ParseError(str(exc), at.line, at.col) from None

    def rule_designator(self) -> Rule:
        t = self.cur.peek()
        if t.kind == "ident" and t.value in ("rule_choice", "rule_seq"):
            self.cur.next()
            return self.composite(str(t.value), t)
        name_tok = self.cur.expect_ident("rule name")
        name = str(name_tok.value)
        rule = self.rules.get(name)
        if rule is None:
            hint = ""
            if name in self.params or name in self.defs:
                hint = " (a rule is required here, not a strategy)"
            raise ParseError(
                f"unknown rule {name!r}{hint}", name_tok.line, name_tok.col
            )
        return rule

    def def_call(self, name: str, at: Token) -> Strategy:
        d = self.defs[name]
        args: list[Strategy] = []
        if self.cur.at_sym("("):
            self.cur.next()
            if not self.cur.at_sym(")"):
                args.append(self.expr(0))
                while self.cur.at_sym(","):
                    self.cur.next()
                    args.append(self.expr(0))
            self.cur.expect_sym(")")
        if len(args) != len(d.params):
            raise ParseError(
                f"{name!r} takes {len(d.params)} argument(s), given {len(args)}",
                at.line,
                at.col,
            )
        return substitute(d.body, dict(zip(d.params, args)))


# ---------------------------------------------------------------------------
# Program loading


def _parse_annotation(toks: list[Token]):
    cur = _TokenCursor(toks)
    cur.expect_sym("@")
    name_tok = cur.expect_ident("annotation name")
    name = str(name_tok.value)
    if name == "infallible":
        cur.expect_end("@infallible")
        return ("infallible", True)
    if name == "effect":
        cur.expect_sym("(")
        rels: list[Rel] = []
        while True:
            t = cur.expect_ident("effect component (less/leq/any)")
            try:
                rels.append(parse_rel(str(t.value)))
            except ParseError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
            if cur.at_sym(","):
                cur.next()
                continue
            break
        cur.expect_sym(")")
        cur.expect_end("@effect(...)")
        return ("effect", tuple(rels))
    raise ParseError(
        f"unknown annotation {name!r} (expected infallible or effect)",
        name_tok.line,
        name_tok.col,
    )


def _parse_rule_chunk(
    toks: list[Token],
    infallible: bool,
    effect: Optional[tuple[Rel, ...]],
    kind: str,
):
    cur = _TokenCursor(toks)
    cur.next()  # rule / qrule keyword
    name_tok = cur.expect_ident("rule name")
    name = str(name_tok.value)
    reserved = RESERVED if kind == "rule" else QUERY_RESERVED
    if name in reserved:
        raise ParseError(f"{name!r} is reserved", name_tok.line, name_tok.col)
    cur.expect_sym(":")
    sort = str(cur.expect_ident("sort name").value)
    cur.expect_sym("=")
    lhs = _parse_pattern(cur)
    arrow = cur.peek()
    if not cur.at_sym("->"):
        raise ParseError(
            f"expected '->', found {arrow.describe()}", arrow.line, arrow.col
        )
    cur.next()
    rhs = _parse_pattern(cur)
    guard = None
    if cur.peek().kind == "ident" and cur.peek().value == "where":
        if kind == "qrule":
            t = cur.peek()
            raise ParseError("query rules take no guard", t.line, t.col)
        cur.next()
        guard_tok = cur.expect_ident("guard name")
        guard = str(guard_tok.value)
        if guard not in GUARDS:
            known = ", ".join(sorted(GUARDS))
            raise ParseError(
                f"unknown guard {guard!r} (known: {known})",
                guard_tok.line,
                guard_tok.col,
            )
    cur.expect_end(f"{kind} {name!r}")
    if kind == "qrule":
        return QueryRule(name, sort, lhs, rhs)
    return RuleDef(
        name, sort, lhs, rhs, guard=guard, infallible=infallible,
        effect_claim=effect,
    )


def _param_linearity_lints(d: Def, lints: list[str]) -> None:
    counts: dict[str, int] = {p: 0 for p in d.params}
    stack = [d.body]
    while stack:
        s = stack.pop()
        if isinstance(s, Var) and s.name in counts:
            counts[s.name] += 1
        elif isinstance(s, (Seq, Choice)):
            stack.extend((s.left, s.right))
        elif isinstance(s, (All, One)):
            stack.append(s.body)
        elif isinstance(s, Adhoc):
            stack.append(s.default)
        elif isinstance(s, Rec):
            if s.name not in counts:
                stack.append(s.body)
    for p in d.params:
        if counts[p] > 1:
            lints.append(
                f"def {d.name!r}: parameter {p!r} is used {counts[p]} times; "
                "expansion duplicates its argument"
            )


def parse_program(
    text: str, sig: Signature, origin: str = "<program>"
) -> Program:
    """The program in text; its expansions number their recursion
    binders from $1, as in a fresh process."""
    with binder_numbering():
        return _parse_program(text, sig)


def _parse_program(text: str, sig: Signature) -> Program:
    toks = tokenize(text)
    chunks = _split_chunks(toks, ("rule", "def", "main"))

    rules: dict[str, RuleDef] = {}
    diags: list[str] = []
    lints: list[str] = []

    # rules first: order-free visibility for defs and main
    pending: list[tuple[str, object]] = []
    deferred: list[tuple[str, list[Token]]] = []
    for kind, body in chunks:
        if kind == "@":
            pending.append(_parse_annotation(body))
            continue
        if kind == "rule":
            infallible = any(k == "infallible" for k, _ in pending)
            effect = next((v for k, v in pending if k == "effect"), None)
            pending = []
            rule = _parse_rule_chunk(body, infallible, effect, "rule")
            if rule.name in rules:
                diags.append(f"rule {rule.name!r} declared twice")
            rules[rule.name] = rule
            continue
        if pending:
            raise ParseError(
                "annotations must be followed by a rule",
                body[0].line,
                body[0].col,
            )
        deferred.append((kind, body))
    if pending:
        last = toks[-1]
        raise ParseError("annotations must be followed by a rule", last.line, last.col)

    for rule in rules.values():
        _check_rule_patterns(
            sig, rule.name, rule.sort, rule.lhs, rule.rhs, diags
        )

    defs: dict[str, Def] = {}
    main: Optional[Strategy] = None
    for kind, body in deferred:
        if main is not None:
            raise ParseError(
                "main must be the last declaration", body[0].line, body[0].col
            )
        cur = _TokenCursor(body)
        if kind == "def":
            cur.next()
            name_tok = cur.expect_ident("definition name")
            name = str(name_tok.value)
            if name in RESERVED:
                raise ParseError(
                    f"{name!r} is reserved", name_tok.line, name_tok.col
                )
            if name in defs or name in rules:
                diags.append(f"name {name!r} declared twice")
            cur.expect_sym("(")
            params: list[str] = []
            if not cur.at_sym(")"):
                params.append(str(cur.expect_ident("parameter").value))
                while cur.at_sym(","):
                    cur.next()
                    params.append(str(cur.expect_ident("parameter").value))
            cur.expect_sym(")")
            if len(set(params)) != len(params):
                diags.append(f"def {name!r}: duplicate parameter names")
            cur.expect_sym("=")
            parser = _ExprParser(cur, rules, defs, frozenset(params), lints)
            expr = parser.expr(0)
            cur.expect_end(f"def {name!r}")
            stray = free_vars(expr) - set(params)
            if stray:
                diags.append(
                    f"def {name!r}: unbound variables: "
                    + ", ".join(sorted(stray))
                )
            d = Def(name, tuple(params), expr)
            _param_linearity_lints(d, lints)
            defs[name] = d
        else:  # main
            cur.next()
            cur.expect_sym("=")
            parser = _ExprParser(cur, rules, defs, frozenset(), lints)
            main = parser.expr(0)
            cur.expect_end("main")
            stray = free_vars(main)
            if stray:
                diags.append(
                    "main: unbound variables: " + ", ".join(sorted(stray))
                )

    if main is None:
        diags.append("program has no main")
    if diags:
        raise LoadError(diags)
    assert main is not None
    return Program(sig, rules, defs, main, lints)


# ---------------------------------------------------------------------------
# Query programs


class _QueryExprParser:
    def __init__(self, cur: _TokenCursor, qrules: dict[str, QueryRule]):
        self.cur = cur
        self.qrules = qrules

    def expr(self) -> QueryExpr:
        left = self.atom()
        while self.cur.at_sym("<+q"):
            self.cur.next()
            left = ChoiceQ(left, self.atom())
        return left

    def atom(self) -> QueryExpr:
        t = self.cur.next()
        if t.kind == "sym" and t.value == "(":
            inner = self.expr()
            self.cur.expect_sym(")")
            return inner
        if t.kind != "ident":
            raise ParseError(
                f"expected a query, found {t.describe()}", t.line, t.col
            )
        name = str(t.value)
        if name == "failq":
            return FailQ()
        if name == "constq":
            self.cur.expect_sym("(")
            v = self.cur.next()
            if v.kind == "ident" and v.value == "unit":
                value: object = UNIT
            elif v.kind in ("int", "float"):
                value = v.value
            else:
                raise ParseError(
                    "constq takes unit or a numeric literal", v.line, v.col
                )
            self.cur.expect_sym(")")
            return ConstQ(value)
        if name in ("allq", "full_cl", "stop_cl", "once_cl"):
            self.cur.expect_sym("(")
            body = self.expr()
            self.cur.expect_sym(")")
            build = {
                "allq": AllQ,
                "full_cl": FullCl,
                "stop_cl": StopCl,
                "once_cl": OnceCl,
            }[name]
            return build(body)
        if name == "bothq":
            self.cur.expect_sym("(")
            a = self.expr()
            self.cur.expect_sym(",")
            b = self.expr()
            self.cur.expect_sym(")")
            return BothQ(a, b)
        if name == "adhocq":
            self.cur.expect_sym("(")
            default = self.expr()
            self.cur.expect_sym(",")
            case_tok = self.cur.expect_ident("query rule name")
            case = self.qrules.get(str(case_tok.value))
            if case is None:
                raise ParseError(
                    f"unknown query rule {case_tok.value!r}",
                    case_tok.line,
                    case_tok.col,
                )
            self.cur.expect_sym(")")
            return AdhocQ(default, case)
        raise ParseError(f"unknown name {name!r}", t.line, t.col)


def parse_query_program(
    text: str, sig: Signature, origin: str = "<query>"
) -> QueryProgram:
    toks = tokenize(text, query=True)
    chunks = _split_chunks(toks, ("qrule", "main"))
    qrules: dict[str, QueryRule] = {}
    diags: list[str] = []
    main: Optional[QueryExpr] = None
    for kind, body in chunks:
        if kind == "@":
            raise ParseError(
                "query rules take no annotations", body[0].line, body[0].col
            )
        if main is not None:
            raise ParseError(
                "main must be the last declaration", body[0].line, body[0].col
            )
        if kind == "qrule":
            qr = _parse_rule_chunk(body, False, None, "qrule")
            if qr.name in qrules:
                diags.append(f"query rule {qr.name!r} declared twice")
            qrules[qr.name] = qr
            # the extraction side is not a term of the rule's sort, so
            # only the lhs is checked against the signature
            _check_rule_patterns(
                sig, qr.name, qr.sort, qr.lhs, qr.extract, diags,
                kind="query rule", check_rhs_sort=False,
            )
        else:
            cur = _TokenCursor(body)
            cur.next()
            cur.expect_sym("=")
            main = _QueryExprParser(cur, qrules).expr()
            cur.expect_end("main")
    if main is None:
        diags.append("query program has no main")
    if diags:
        raise LoadError(diags)
    assert main is not None
    return QueryProgram(sig, qrules, main)
