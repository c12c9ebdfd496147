"""Exception types raised by the polyvec operations."""


class PolyvecError(Exception):
    """Base class for all polyvec errors."""


class DimensionError(PolyvecError):
    """Operands live on spaces of different ambient dimension."""


class DegenerateNormalizerError(PolyvecError):
    """The scaled radial field e^(k,l) is undefined because n + k - l = 0."""


class HomogeneityError(PolyvecError):
    """An operation requiring a homogeneous field received a mixed one."""


class ParityError(PolyvecError):
    """A multivector degree had the wrong parity for the operation."""


class PreconditionError(PolyvecError):
    """A documented precondition of the operation does not hold."""


class ExceptionalDegreeError(PolyvecError):
    """The polynomial degree equals twice the vector degree (k = 2l)."""


class IncompatibleSplittingError(PolyvecError):
    """The supplied trace splitting violates the compatibility equation."""


class DomainError(PolyvecError):
    """Numeric arguments outside the domain of the requested formula."""


class DegreeLimitError(PolyvecError):
    """A term's total degree is past what a packed monomial key can hold."""


class SingularMatrixError(PolyvecError):
    """A matrix that must be invertible has determinant zero."""


class ParseError(PolyvecError):
    """Malformed field expression; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
