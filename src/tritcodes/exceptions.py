"""Exception hierarchy for tritcodes.

Each class carries the CLI exit code it maps to.  TritcodesError and its
input errors, the refusals of gf3m.check_modulus (one class per rule), exit
2.  Inconsistent exits 1: a self-check failed, because two paths disagree or
a computed value breaks an identity that it must satisfy.  Library misuse
raises the built-in ValueError or ZeroDivisionError instead.
"""


class TritcodesError(Exception):
    """Base class for all tritcodes errors; invalid input, exit code 2."""

    exit_code = 2


class EvenDegree(TritcodesError):
    """Extension degree m is even."""


class UnsupportedDegree(TritcodesError):
    """Extension degree m is odd but outside 3..MAX_M (tables too large)."""


class NotPrimitive(TritcodesError):
    """The chosen modulus is not a primitive polynomial of degree m: not
    monic, of another degree, or x of order below 3^m - 1 modulo it."""


class Inconsistent(TritcodesError):
    """A self-check failed, exit code 1: two paths disagree, or a computed
    value breaks an identity that it must satisfy."""

    exit_code = 1
