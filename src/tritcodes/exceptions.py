"""Exception hierarchy for tritcodes.

Each class carries the CLI exit code it maps to.  TritcodesError and its
input errors exit 2 (invalid input).  Inconsistent exits 1: a self-check
failed, because two paths disagree or a computed value breaks an identity
that it must satisfy.  Library misuse raises the built-in ValueError or
ZeroDivisionError instead.
"""


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


class Inconsistent(TritcodesError):
    """A self-check failed, exit code 1: two paths disagree, or a computed
    value breaks an identity that it must satisfy."""

    exit_code = 1
