"""Exception hierarchy for tritcodes."""


class TritcodesError(Exception):
    """Base class for all tritcodes errors."""


class EvenDegree(TritcodesError):
    """Extension degree m is even or below 3."""


class UnsupportedDegree(TritcodesError):
    """Extension degree m is outside the supported range (tables too large)."""


class NotIrreducible(TritcodesError):
    """The chosen modulus factors over GF(3)."""


class NotPrimitive(TritcodesError):
    """x generates a proper subgroup of GF(3^m)*."""


class ZeroInverse(TritcodesError):
    """Multiplicative inverse of zero requested."""


class ZeroInput(TritcodesError):
    """Logarithm of zero requested."""


class DivisionByZeroPoly(TritcodesError):
    """Polynomial division by the zero polynomial."""


class OutOfRange(TritcodesError):
    """Exponent outside [0, 3^m - 2]."""


class CoefficientNotInBaseField(TritcodesError):
    """Minimal-polynomial expansion produced a coefficient outside GF(3)."""


class CosetCollision(TritcodesError):
    """The cyclotomic cosets of u and v intersect or have the wrong size."""


class LengthMismatch(TritcodesError):
    """Word length does not match the code length."""


class BudgetExceeded(TritcodesError):
    """Estimated work exceeds the configured operation budget."""


class NonIntegerOutput(TritcodesError):
    """MacWilliams transform produced a non-integer count."""


class NonIntegralWeight(TritcodesError):
    """Spectral weight formula produced a non-integral or complex value."""


class Inconsistent(TritcodesError):
    """Structured search and independent oracle disagree."""
