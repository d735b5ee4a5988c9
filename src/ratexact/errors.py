"""Exception types shared across the library."""


class RatexactError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(RatexactError):
    """A rational function was constructed with denominator zero."""


class ZeroPolynomial(RatexactError):
    """An operation that requires a nonzero polynomial received zero."""


class QModeMismatch(RatexactError):
    """An operator or decision path was requested under an incompatible
    q-mode (e.g. a q-shift without a q, or a root-of-unity reduction when
    q is transcendental)."""


class ExprSyntaxError(RatexactError):
    """A rational-function expression failed to parse.

    ``line`` and ``col`` are 1-based positions of the offending token.
    """

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col
