"""File formats: signature declarations and term s-expressions.

Both readers report line and column so error messages point at the
offending token: the signature reader counts lines as it goes, the term
reader works them out from a token's offset only when it raises. The
term reader and writer are iterative and linear in the size of the term;
term files routinely hold trees deeper than the interpreter stack.
"""

from __future__ import annotations

import re
from functools import partial

from .errors import ParseError, SignatureError
from .terms import PRIM_KINDS, Lit, Signature, Symbol, Term, _node

# ---------------------------------------------------------------------------
# Signature files
#
#   sort Nat
#   prim Salary : float
#   list NatTree
#   Succ : Nat -> Nat
#   Zero : -> Nat
#   Node : Nat * [NatTree] -> NatTree
#
# `list S` declares the sort [S] together with its two spine
# constructors Cons_S and Nil_S, so list-shaped children stay inside the
# ordinary constructor discipline.


def list_sort(elem: str) -> str:
    return f"[{elem}]"


def parse_signature(text: str, origin: str | None = None) -> Signature:
    """The signature in text; a declaration's error reads `[origin:]line:col: …`."""
    sorts: list[str] = []
    prims: dict[str, str] = {}
    symbols: list[Symbol] = []
    list_elems: list[tuple[str, int, str]] = []

    def err(lineno: int, msg: str) -> ParseError:
        col = len(raw) - len(raw.lstrip()) + 1  # raw: the declaration's line
        return ParseError(msg, lineno, col, origin=origin)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("sort "):
            name = line[5:].strip()
            if not name or " " in name:
                raise err(lineno, f"bad sort declaration {raw.strip()!r}")
            sorts.append(name)
        elif line.startswith("prim "):
            rest = line[5:]
            if ":" not in rest:
                raise err(lineno, f"bad prim declaration {raw.strip()!r}")
            name, kind = (part.strip() for part in rest.split(":", 1))
            if not name or kind not in PRIM_KINDS:
                raise err(lineno, f"bad prim declaration {raw.strip()!r}")
            sorts.append(name)
            prims[name] = kind
        elif line.startswith("list "):
            elem = line[5:].strip()
            if not elem or " " in elem:
                raise err(lineno, f"bad list declaration {raw.strip()!r}")
            list_elems.append((elem, lineno, raw))
        elif ":" in line:
            name, sig_part = (part.strip() for part in line.split(":", 1))
            if "->" not in sig_part:
                raise err(lineno, f"constructor {name!r} is missing '->'")
            args_part, result = (part.strip() for part in sig_part.rsplit("->", 1))
            if not name or not result:
                raise err(lineno, f"bad constructor declaration {raw.strip()!r}")
            if args_part:
                arg_sorts = tuple(a.strip() for a in args_part.split("*"))
                if any(not a for a in arg_sorts):
                    raise err(lineno, f"bad argument list in {raw.strip()!r}")
            else:
                arg_sorts = ()
            symbols.append(Symbol(name, arg_sorts, result))
        else:
            raise err(lineno, f"unrecognised declaration {raw.strip()!r}")

    declared = set(sorts)
    for elem, lineno, raw in list_elems:
        if elem not in declared:
            raise err(lineno, f"list declaration for unknown sort {elem!r}")
        ls = list_sort(elem)
        sorts.append(ls)
        symbols.append(Symbol(f"Cons_{elem}", (elem, ls), ls))
        symbols.append(Symbol(f"Nil_{elem}", (), ls))

    try:
        return Signature(sorts, symbols, prims)
    except SignatureError as e:
        raise ParseError(str(e), origin=origin) from None


def read_text(path: str) -> str:
    """The file at path as UTF-8 text. A file that cannot be opened or
    decoded is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        message = f"not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}"
    except OSError as e:
        message = f"cannot read: {e.strerror or e}"
    raise ParseError(message, origin=path)


def load_signature(path: str) -> Signature:
    return parse_signature(read_text(path), origin=path)


# ---------------------------------------------------------------------------
# Term s-expressions
#
#   (Node (Succ (Zero)) (Nil_NatTree))
#   100.0:Salary
#   "Amsterdam":Name
#
# A bare constructor name is shorthand for its nullary application, so
# (Succ Zero) reads the same as (Succ (Zero)).

#: One token per match, and every character in some token, so the
#: running sum of token lengths is each token's offset: whitespace, a
#: `;` comment, a parenthesis, a string literal (its closing quote is
#: missing when the string is unterminated), or a bare atom. Only the
#: first character of an atom is restricted; `;` and `"` may follow.
_TOKEN = re.compile(
    r'[ \t\r\n]+|;[^\n]*|[()]|"(?:[^"\\\n]|\\[\s\S])*"?|[^() \t\r\n;"][^() \t\r\n]*'
)
_STRING = re.compile(r'"((?:[^"\\\n]|\\[\s\S])*)"')
_ESCAPE = re.compile(r"\\([\s\S])")
_SKIP = frozenset(" \t\r\n;")


def _unescape(m: re.Match) -> str:
    c = m.group(1)
    return "\n" if c == "n" else "\t" if c == "t" else c


def parse_term(text: str, origin: str | None = None) -> Term:
    """Read exactly one term; trailing input is an error, which reads
    `[origin:]line:col: …` (`[origin: ]…` for input without a term).

    One pass over the tokens builds the term with an explicit stack of
    open applications. Positions are worked out only for an error.
    """
    tokens = _TOKEN.findall(text)
    fail = partial(_fail, text, tokens, origin)
    top: list[Term] = []
    kids = top  # children of the innermost open application
    stack: list[tuple[str, list[Term], int]] = []  # (constr, kids, '(' index)
    opened = -1  # index of a '(' still waiting for its constructor
    string: str | None = None  # a string literal waiting for its :Sort tag
    string_at = 0
    for k, tok in enumerate(tokens):
        c = tok[0]
        if c in _SKIP:
            continue
        if string is not None:
            if c != ":":
                fail("string literal needs a :Sort tag", string_at)
            if len(tok) == 1:
                fail("missing sort tag after string", string_at)
            value: Term = Lit(string, tok[1:])
            string = None
            at = string_at
        elif opened >= 0:
            if c in '()"':
                fail("expected constructor after '('", opened)
            if ":" in tok:
                fail(f"literal {tok!r} cannot head an application", k)
            kids = []
            stack.append((tok, kids, opened))
            opened = -1
            continue
        elif c == "(":
            opened = k
            continue
        elif c == ")":
            if not stack:
                fail("unmatched ')'", k)
            constr, children, at = stack.pop()
            value = _node(constr, tuple(children))
            kids = stack[-1][1] if stack else top
        elif c == '"':
            m = _STRING.fullmatch(tok)
            if m is None:
                fail("unterminated string literal", k)
            string = m.group(1)
            if "\\" in string:
                string = _ESCAPE.sub(_unescape, string)
            string_at = k
            continue
        elif ":" in tok:
            payload, sort = tok.rsplit(":", 1)
            if not sort:
                fail(f"missing sort tag in literal {tok!r}", k)
            try:
                # int() never accepts '.', so skip its exception for floats
                num = float(payload) if "." in payload else int(payload)
            except ValueError:
                try:
                    num = float(payload)
                except ValueError:
                    fail(f"bad literal payload {payload!r}", k)
                if num != num:
                    # its term would be unequal to its own re-read, and
                    # would never match a literal pattern
                    fail(f"bad literal payload {payload!r}: "
                         "NaN is not equal to itself", k)
            value = Lit(num, sort)
            at = k
        else:
            value = _node(tok, ())
            at = k
        kids.append(value)
        if kids is top and len(top) > 1:
            fail("trailing input after term", at)
    if string is not None:
        fail("string literal needs a :Sort tag", string_at)
    if opened >= 0:
        fail("expected constructor after '('", opened)
    if stack:
        constr, _, at = stack[-1]
        fail(f"unclosed '(' for {constr!r}", at)
    if not top:
        raise ParseError("empty input, expected a term", origin=origin)
    return top[0]


def _fail(text: str, tokens: list[str], origin: str | None, message: str, k: int):
    """Raise the error for input whose first problem in reading order is
    `message` at token k. A string literal's own errors come first,
    wherever they are: an unterminated string, then a string without its
    :Sort tag (separated from it by whitespace or comments at most)."""
    strings = [j for j, tok in enumerate(tokens) if tok[0] == '"']
    bad = [j for j in strings if _STRING.fullmatch(tokens[j]) is None]
    if bad:
        message, k = "unterminated string literal", bad[0]
    else:
        for j in strings:
            i = j + 1
            while i < len(tokens) and tokens[i][0] in _SKIP:
                i += 1
            tag = tokens[i] if i < len(tokens) else ""
            if not tag.startswith(":"):
                message, k = "string literal needs a :Sort tag", j
                break
            if tag == ":":
                message, k = "missing sort tag after string", j
                break
    raise ParseError.at(message, text, sum(map(len, tokens[:k])), origin)


def load_term(path: str) -> Term:
    return parse_term(read_text(path), origin=path)


def _format_lit(t: Lit) -> str:
    if isinstance(t.value, str):
        escaped = (
            t.value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
        )
        return f'"{escaped}":{t.sort}'
    return f"{t.value!r}:{t.sort}"


def term_to_sexpr(t: Term) -> str:
    """Canonical printed form; parse_term(term_to_sexpr(t)) == t."""
    out: list[str] = []
    stack: list[object] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Lit):
            out.append(_format_lit(x))
        else:
            out.append(f"({x.constr}")
            stack.append(")")
            for c in reversed(x.children):
                stack.append(c)
                stack.append(" ")
    return "".join(out)
