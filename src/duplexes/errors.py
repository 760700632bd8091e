"""Exception types shared across the package."""
import enum


class DuplexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDegree(DuplexError):
    """A degree argument outside the domain of the operation (usually < 1)."""


class BoundExceeded(DuplexError):
    """An enumeration or exhaustive scan was asked to go past its resource bound."""


class ArityTooSmall(DuplexError):
    """A tree node was given fewer than two children."""


class StubNotSplittable(DuplexError):
    """The leaf placeholder of a binary tree has no root to split or evaluate."""


class UnboundGenerator(DuplexError):
    """Evaluation met a generator label with no assigned value."""


class ComposeNonzeroConstant(DuplexError):
    """Series substitution requires the inner series to have zero constant term."""


class CountRouteMismatch(DuplexError, RuntimeError):
    """Two independent routes to the same counts disagree: a fault of the
    package, not of the request, so the CLI exits 4 (internal error).
    ``check`` is the failed comparison, a ``series.CheckResult`` naming the
    first differing degree and both coefficients.  It is also a
    ``RuntimeError``, the kind of fault it reports."""

    def __init__(self, message: str, check):
        super().__init__(message)
        self.check = check


class ParseError(DuplexError):
    """A textual representation could not be parsed."""


class ExprSyntaxError(ParseError):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedChainError(ExprSyntaxError):
    """A chain mixes '.' and '*' without parentheses."""


class UnknownGenerator(ExprSyntaxError):
    """An identifier in an expression is not in the declared alphabet."""


def check_degree(n: int, bound: int) -> None:
    """Reject a degree below 1 or above an enumeration bound."""
    if n < 1:
        raise InvalidDegree(f"degree must be >= 1, got {n}")
    if n > bound:
        raise BoundExceeded(f"degree {n} exceeds the enumeration bound {bound}")


def check_member(name: str, value, members: type[enum.Enum]) -> None:
    """Reject a ``value`` that is not a member of ``members``, naming them."""
    if value.__class__ is not members:
        *rest, last = [f"{members.__name__}.{m.name}" for m in members]
        raise TypeError(f"{name} must be {', '.join(rest)} or {last}, got {value!r}")


def check_text(text) -> None:
    """Reject a parser input that is not a string."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {text!r}")
