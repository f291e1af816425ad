"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "Z2ZuError",
    "ShapeMismatch",
    "MatrixParseError",
    "AmbientTooLarge",
    "CodeTooLarge",
    "TrivialCode",
    "InternalVerificationFailure",
    "NonIntegralTransform",
    "ZeroColumnPresent",
    "NotOneWeight",
    "NotTwoWeight",
    "NotProjective",
    "PreconditionViolation",
    "SpaceTooLarge",
    "ClassificationViolation",
]


class Z2ZuError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(Z2ZuError):
    """Operands live in different ambient spaces."""


class MatrixParseError(Z2ZuError):
    """A generator matrix file or string could not be parsed.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class AmbientTooLarge(Z2ZuError):
    """The ambient module is too large for an exhaustive scan."""


class CodeTooLarge(Z2ZuError):
    """The code has too many words to build them all."""


class TrivialCode(Z2ZuError):
    """The operation needs at least one nonzero codeword."""


class InternalVerificationFailure(Z2ZuError):
    """A self-check that must hold by construction failed.

    Raised when two independent computations of the same quantity
    disagree; this always indicates a bug, never bad input.
    """


class NonIntegralTransform(Z2ZuError):
    """A MacWilliams transform produced a non-integral or negative count."""


class ZeroColumnPresent(Z2ZuError):
    """The code has an identically-zero coordinate, violating a precondition."""


class NotOneWeight(Z2ZuError):
    """The code does not have exactly one nonzero Lee weight."""


class NotTwoWeight(Z2ZuError):
    """The code does not have exactly two nonzero Lee weights."""


class NotProjective(Z2ZuError):
    """The dual has words of Lee weight 1 or 2."""


class PreconditionViolation(Z2ZuError):
    """A verifier was handed a code outside its stated scope."""


class SpaceTooLarge(Z2ZuError):
    """An exhaustive search space exceeds the candidate budget."""


class ClassificationViolation(Z2ZuError):
    """An exhaustive classification found an unexpected survivor."""
