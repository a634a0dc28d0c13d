"""Exception types shared across the package."""

from __future__ import annotations


class StratkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(StratkitError):
    """A file failed to parse; names the file it is in when `origin` is
    given, then the position when one is known."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        col: int | None = None,
        origin: str | None = None,
    ):
        self.line = line
        self.col = col
        where = [] if origin is None else [origin]
        if line is not None:
            where.append(f"{line}" if col is None else f"{line}:{col}")
        if where:
            message = f"{':'.join(where)}: {message}"
        super().__init__(message)

    @classmethod
    def at(cls, message: str, text: str, offset: int, origin: str | None = None):
        """The error at character offset in text, by line and column."""
        line = text.count("\n", 0, offset) + 1
        return cls(message, line, offset - text.rfind("\n", 0, offset), origin)


class SignatureError(StratkitError):
    """A signature is ill-formed or a sort/constructor lookup failed."""


class TermError(StratkitError):
    """A term violates its signature, or a pattern operation failed."""


class LoadError(StratkitError):
    """Semantic diagnostics raised while loading a program.

    `diagnostics` keeps the individual messages so callers can report
    all of them, not just the first.
    """

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class KindError(StratkitError):
    """A query value does not fit the selected monoid."""


class EngineError(StratkitError):
    """Internal invariant violation; a bug, not a user error."""
