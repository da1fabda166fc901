"""Exception types shared across the package."""


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class SingularInputError(ValueError):
    """A surface constructor received data defining a singular surface."""


class UnsupportedError(ValueError):
    """The request is outside the implemented computational track."""


class NotComparable(ValueError):
    """Two surfaces do not share a common quotient curve."""


class CocycleError(ValueError):
    """Raw transition data violates the cocycle condition on a triple."""


class NoSplittingFound(RuntimeError):
    """The splitting solver exhausted its degree schedule.

    Does not certify that no splitting exists; only that none was found
    within the attempted bounds (stored in ``bounds``).
    """

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        super().__init__(f"no splitting found at degree bounds {self.bounds}")


class ProofFormatError(ValueError):
    """A proof document lacks a key or holds a value of the wrong JSON type."""


class UsageError(ValueError):
    """Command-line arguments that do not make a valid request."""


class ParseError(ValueError):
    """Syntax error with a position in the input text."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
