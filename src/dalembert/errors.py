"""Exception types shared across the package."""


class DegenerateZeroPolynomial(ValueError):
    """The identically-zero polynomial was given where a nonzero one is required."""


class CannotDeflateConstant(ValueError):
    """Synthetic division requires degree >= 1."""


class NotApplicableToConstant(ValueError):
    """The operation requires a non-constant polynomial."""


class BelowThreshold(ValueError):
    """The growth-bound hypothesis norm(z) >= threshold_radius does not hold."""


class AlreadyAtRoot(ValueError):
    """A descent step was requested at a point where the polynomial is zero."""


class StepStalled(ArithmeticError):
    """Step-size halving found no strict decrease before the step rounded to
    nothing or its gain fell below the noise floor."""


class NoRootExists(ValueError):
    """Nonzero constant polynomials have no roots."""


class EmptyPolynomial(ValueError):
    """No coefficients were supplied."""


class ParseError(ValueError):
    """Malformed polynomial or complex literal.

    ``position`` is the 1-based index of the offending token.
    """

    def __init__(self, message: str, position: int = 1):
        super().__init__(message)
        self.position = position
