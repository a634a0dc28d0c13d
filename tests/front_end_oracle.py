"""Reference oracles for the term front end: the character-by-character
reader and the per-node-path validator that `stratkit.files.parse_term`
and `stratkit.terms.validate_term` replaced, kept verbatim except that
the reader rejects a NaN literal payload, as `parse_term` now does.

Both are quadratic or slow in places, which is why they were replaced;
the differential tests in test_front_end.py hold the fast versions to
their results, error messages and positions.
"""

from __future__ import annotations

from typing import Optional

from stratkit.errors import ParseError, TermError
from stratkit.terms import PRIM_KINDS, Lit, Node, Signature, Term

# ---------------------------------------------------------------------------
# stratkit.files


_BARE_END = set("() \t\r\n")


def _tokenize_term(text: str):
    """Yield (kind, value, line, col); kind in {'(', ')', 'atom', 'str'}."""
    i, n = 0, len(text)
    line, col = 1, 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            i += 1
            col += 1
        elif ch == '"':
            start_line, start_col = line, col
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError(
                        "unterminated string literal", line=start_line, col=start_col
                    )
                if text[j] == "\\" and j + 1 < n:
                    nxt = text[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError(
                    "unterminated string literal", line=start_line, col=start_col
                )
            col += j + 1 - i
            i = j + 1
            yield ("str", "".join(buf), start_line, start_col)
        else:
            start_line, start_col = line, col
            j = i
            while j < n and text[j] not in _BARE_END:
                j += 1
            yield ("atom", text[i:j], start_line, start_col)
            col += j - i
            i = j


def _atom_to_term(tok: str, line: int, col: int) -> Term:
    """A bare atom is either a `value:Sort` literal or a nullary node."""
    if ":" in tok:
        payload, sort = tok.rsplit(":", 1)
        if not sort:
            raise ParseError(f"missing sort tag in literal {tok!r}", line=line, col=col)
        try:
            value = int(payload)
        except ValueError:
            try:
                value = float(payload)
            except ValueError:
                raise ParseError(
                    f"bad literal payload {payload!r}", line=line, col=col
                ) from None
            if value != value:
                raise ParseError(
                    f"bad literal payload {payload!r}: NaN is not equal to itself",
                    line=line,
                    col=col,
                )
        return Lit(value, sort)
    return Node(tok)


def parse_term(text: str) -> Term:
    """Read exactly one term; trailing input is an error."""
    tokens = list(_tokenize_term(text))
    # A string literal's sort tag arrives as a separate ':Sort' atom
    # right after the quotes (`"abc":Name`, no space). Stitch the pairs.
    stitched: list[tuple[str, object, int, int]] = []
    i = 0
    while i < len(tokens):
        kind, value, line, col = tokens[i]
        if kind == "str":
            if (
                i + 1 < len(tokens)
                and tokens[i + 1][0] == "atom"
                and tokens[i + 1][1].startswith(":")
            ):
                sort = tokens[i + 1][1][1:]
                if not sort:
                    raise ParseError("missing sort tag after string", line=line, col=col)
                stitched.append(("lit", Lit(value, sort), line, col))
                i += 2
                continue
            raise ParseError(
                "string literal needs a :Sort tag", line=line, col=col
            )
        stitched.append((kind, value, line, col))
        i += 1

    if not stitched:
        raise ParseError("empty input, expected a term")

    # Iterative build: a stack of (constr, children, line, col) frames.
    stack: list[tuple[str, list[Term], int, int]] = []
    result: Optional[Term] = None
    pos = 0

    def push_value(t: Term, line: int, col: int):
        nonlocal result
        if stack:
            stack[-1][1].append(t)
        elif result is None:
            result = t
        else:
            raise ParseError("trailing input after term", line=line, col=col)

    while pos < len(stitched):
        kind, value, line, col = stitched[pos]
        pos += 1
        if kind == "(":
            if pos >= len(stitched) or stitched[pos][0] != "atom":
                raise ParseError("expected constructor after '('", line=line, col=col)
            head = stitched[pos]
            if ":" in head[1]:
                raise ParseError(
                    f"literal {head[1]!r} cannot head an application",
                    line=head[2],
                    col=head[3],
                )
            stack.append((head[1], [], line, col))
            pos += 1
        elif kind == ")":
            if not stack:
                raise ParseError("unmatched ')'", line=line, col=col)
            constr, children, oline, ocol = stack.pop()
            push_value(Node(constr, tuple(children)), oline, ocol)
        elif kind == "lit":
            push_value(value, line, col)
        else:  # atom
            push_value(_atom_to_term(value, line, col), line, col)

    if stack:
        constr, _, line, col = stack[-1]
        raise ParseError(f"unclosed '(' for {constr!r}", line=line, col=col)
    assert result is not None
    return result


# ---------------------------------------------------------------------------
# stratkit.terms


def validate_term(sig: Signature, t: Term) -> None:
    """Raise TermError at the first ill-formed node (preorder), naming
    its path as child indices from the root."""
    stack: list[tuple[Term, tuple[int, ...]]] = [(t, ())]
    while stack:
        x, path = stack.pop()
        where = "/".join(map(str, path)) or "root"
        if isinstance(x, Lit):
            kind = sig.prim_sorts.get(x.sort)
            if kind is None:
                raise TermError(f"at {where}: {x.sort!r} is not a primitive sort")
            if type(x.value) is not PRIM_KINDS[kind]:
                raise TermError(
                    f"at {where}: literal {x.value!r} is not of kind {kind!r}"
                )
            continue
        sym = sig.by_constr.get(x.constr)
        if sym is None:
            raise TermError(f"at {where}: unknown constructor {x.constr!r}")
        if len(x.children) != len(sym.arg_sorts):
            raise TermError(
                f"at {where}: {x.constr!r} expects {len(sym.arg_sorts)} children, "
                f"got {len(x.children)}"
            )
        for i in range(len(x.children) - 1, -1, -1):
            c = x.children[i]
            got = c.sort if isinstance(c, Lit) else None
            if got is None:
                csym = sig.by_constr.get(c.constr)
                got = csym.result_sort if csym else None
            if got is not None and got != sym.arg_sorts[i]:
                raise TermError(
                    f"at {where}: child {i} of {x.constr!r} has sort {got!r}, "
                    f"expected {sym.arg_sorts[i]!r}"
                )
            stack.append((c, path + (i,)))
