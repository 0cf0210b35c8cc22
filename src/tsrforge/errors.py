"""Exception hierarchy for tsrforge.

Every error raised by the library derives from TsrforgeError so callers can
catch library failures without shadowing programming errors.
"""


class TsrforgeError(Exception):
    """Base class for all tsrforge errors."""


class CompositeCharacteristic(TsrforgeError):
    """Requested a prime field with a composite characteristic."""


class ReducibleModulus(TsrforgeError):
    """Supplied extension-field modulus is not irreducible."""


class DivisionByZeroPoly(TsrforgeError):
    """Polynomial division by the zero polynomial."""


class NonSquareMatrix(TsrforgeError):
    """Operation requires a square matrix."""


class BaseNotSubfield(TsrforgeError):
    """Claimed base field is not a subfield of the element's field."""


class ZeroElement(TsrforgeError):
    """Operation undefined for the zero element."""


class ZeroConstantTerm(TsrforgeError):
    """Operation requires a nonzero constant term."""


class BadDegree(TsrforgeError):
    """Polynomial degree does not match the requested shape."""


class SingularB(TsrforgeError):
    """TSR coefficient matrix B must be invertible."""


class DimensionMismatch(TsrforgeError):
    """Operands have incompatible dimensions."""


class ScaleExceeded(TsrforgeError):
    """Requested computation exceeds the configured brute-force guard."""


class UnknownKind(TsrforgeError):
    """Unrecognized enumeration kind."""


class FiberSizeViolation(TsrforgeError):
    """Family size is not divisible by the conjugate-fiber size."""


class FactorizationOverflow(TsrforgeError):
    """Integer too large for the deterministic factorization regime."""


class InvalidParity(TsrforgeError):
    """Even n with q^m = 3 (mod 4): the norm f(0) of f(g(X)) is not primitive (Lidl & Niederreiter, Thm 3.18)."""


class BudgetExhausted(TsrforgeError):
    """Candidate budget exhausted without a hit."""

    def __init__(self, message: str, candidates_tried: int = 0):
        super().__init__(message)
        self.candidates_tried = candidates_tried


class ExistenceViolation(TsrforgeError):
    """A guaranteed-existence search came up empty (internal bug)."""


class CoefficientNotDescended(TsrforgeError):
    """Conjugate product produced a coefficient outside the base field."""
