"""Exception hierarchy for tritcodes, and the one budget gate that raises
BudgetExceeded for the oracle and both enumerators."""


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


# Operation-count ceiling for the budget-gated paths (oracles, spectrum).
DEFAULT_BUDGET = 10**9


def check_budget(what: str, work: int, unit: str, budget: int) -> None:
    """Raise BudgetExceeded when a path's work estimate exceeds the budget."""
    if work > budget:
        raise BudgetExceeded(f"{what} needs ~{work:.2e} {unit} (budget {budget:.0e})")


class NonIntegerOutput(TritcodesError):
    """MacWilliams transform produced a non-integer count."""


class NonIntegralWeight(TritcodesError):
    """Spectral weight formula produced a non-integral or complex value."""


class Inconsistent(TritcodesError):
    """Structured search and independent oracle disagree."""
