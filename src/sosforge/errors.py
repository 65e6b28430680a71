"""Exception types shared across the workbench."""

from __future__ import annotations


class SosError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SosError):
    """Raised on malformed input text; carries line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


class DuplicateDeclaration(ParseError):
    """A name was declared twice, or shadows a built-in symbol."""


class UnknownSymbol(ParseError):
    """An identifier was used without a matching declaration."""


class ArityMismatch(ParseError):
    """An operator was applied to the wrong number of arguments."""


class UnboundVariable(ParseError):
    """A term required to be closed contains a free variable."""


class SortError(SosError):
    """A variable was bound to a term of an incompatible sort."""


class OpenTerm(SosError):
    """An operation requiring a closed term met a free variable."""


class NonBccspTerm(SosError):
    """A term left the deadlock/prefix/choice fragment where that fragment is required."""


class UnknownDefConst(SosError):
    """A recursion constant has no defining equation."""


class InvalidSpec(SosError):
    """A specification fails the rule format; carries the violations `validate` reports."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(["invalid specification", *map(str, self.violations)]))


class StateCapExceeded(SosError):
    """Transition-system exploration hit the state cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"state cap exceeded ({cap} states)")


class BudgetExceeded(SosError):
    """A rewrite or recursion budget ran out; the input term is likely not well founded."""
