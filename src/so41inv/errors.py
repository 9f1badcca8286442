"""Shared exception types.

Every failure mode that a verification routine can hit on purpose gets its
own class, so callers (and the test suite) can tell a mathematical failure
apart from a plain bug.
"""


class EngineError(Exception):
    """Base class for all errors raised deliberately by this package."""


class SpanError(EngineError):
    """The matrix realization gave a nonreal value where the basis needs a
    real one (the trace form of two basis matrices)."""


class DomainError(EngineError):
    """An element lies outside the subspace an operation requires (for
    example a k-action applied to something with p-components)."""


class SolveError(EngineError):
    """An exact linear system turned out to be inconsistent."""


class NotStableError(EngineError):
    """A subspace handed to a module decomposition is not closed under the
    k-action.

    Kept as a public name; no verify path raises it. Only the test-side
    k-module decomposition does."""


class InvarianceError(EngineError):
    """A catalog element failed its invariance certificate."""

    def __init__(self, element: str, generator: str, detail: str = ""):
        self.element = element
        self.generator = generator
        msg = f"{element} is not invariant under ad({generator})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PrimeDisagreement(EngineError):
    """Modular ranks computed over independently chosen primes disagree.

    Kept as a public name; no computation in the package raises it, since
    every dimension and rank verdict is exact over Q."""


class ParseError(EngineError):
    """Expression text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ExprTypeError(EngineError, TypeError):
    """An expression mixes sorts illegally, e.g. wedging a k-generator."""


class EvalError(EngineError):
    """Evaluation of a parsed expression failed; wraps the engine error."""
