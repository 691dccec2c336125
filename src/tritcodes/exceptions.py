"""Exception hierarchy for tritcodes, and the budget gate of the direct dual
enumerator: a caller skips it by BudgetExceeded.note().

Each class carries the CLI exit code it maps to.  TritcodesError and its
input errors exit 2 (invalid input).  Inconsistent exits 1: a self-check
failed, because two paths disagree or a computed value breaks an identity
that it must satisfy.  Library misuse raises the built-in ValueError or
ZeroDivisionError instead.
"""

import sys


class TritcodesError(Exception):
    """Base class for all tritcodes errors; invalid input, exit code 2."""

    exit_code = 2


class EvenDegree(TritcodesError):
    """Extension degree m is even or below 3."""


class UnsupportedDegree(TritcodesError):
    """Extension degree m is outside the supported range (tables too large)."""


class NotIrreducible(TritcodesError):
    """The chosen modulus factors over GF(3)."""


class NotPrimitive(TritcodesError):
    """x has order below 3^m - 1 modulo the chosen modulus."""


class BudgetExceeded(TritcodesError):
    """Estimated work exceeds the configured operation budget."""

    def note(self) -> None:  # the one way a caller says that it skipped the path
        print(f"note: skipped: {self}", file=sys.stderr)


# Operation-count ceiling for the one budget-gated path, the direct dual enumerator
# (1.43e9 trace comparisons at m = 11).
DEFAULT_BUDGET = 2 * 10**9


def check_budget(what: str, work: int, unit: str, budget: int) -> None:
    """Raise BudgetExceeded when a path's work estimate exceeds the budget."""
    if work > budget:
        raise BudgetExceeded(f"{what} needs ~{work:.2e} {unit} (budget {budget})")


class Inconsistent(TritcodesError):
    """A self-check failed, exit code 1: two paths disagree, or a computed
    value breaks an identity that it must satisfy."""

    exit_code = 1
