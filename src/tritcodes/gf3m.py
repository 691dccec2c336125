"""Exact GF(3^m) arithmetic for odd m from precomputed exp/log/Zech/trace tables.

Elements are plain Python ints in [0, 3^m): the base-3 digits of the int
are the coefficients of the residue class, digit i holding the
coefficient of x^i.  The primitive element pi is always the residue
class of x.  All tables are materialized at construction (m <= 13,
about 1.6M entries at the top), after which every operation is a pure
function of (inputs, ctx) and the context is safe to share.  The exp
table reduces powers of x by polyring.poly_mod, the one GF(3)[x] reduction.

Addition runs in the log domain through the Zech table
zech[k] = log(1 + pi^k):  pi^a + pi^b = pi^(a + zech[b - a]).  With
h = (3^m - 1)/2, -1 = pi^h, so negation adds h to a log and the scalar
c in {1, 2} adds (c - 1)*h.  The log of zero is -1 in both tables:
log[0] = -1 and zech[h] = -1.
"""

from __future__ import annotations

import numpy as np

from . import polyring
from .exceptions import (
    EvenDegree,
    NotIrreducible,
    NotPrimitive,
    UnsupportedDegree,
    ZeroInput,
    ZeroInverse,
)

MAX_M = 13

# Monic primitive polynomials used when no modulus is supplied, ascending
# trit lists.  The m = 5, 7, 9 entries are pinned so that the generator
# polynomials and dual enumerators match the shipped fixtures bit-exactly.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    3: (1, 2, 0, 1),  # x^3 + 2x + 1
    5: (1, 2, 0, 0, 0, 1),  # x^5 + 2x + 1
    7: (1, 0, 2, 0, 0, 0, 0, 1),  # x^7 + 2x^2 + 1
    9: (1, 1, 2, 2, 0, 0, 0, 0, 0, 1),  # x^9 + 2x^3 + 2x^2 + x + 1
    11: (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^11 + 2x^2 + 1
    13: (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^13 + 2x + 1
}

class FieldCtx:
    """Immutable GF(3^m) context: modulus, primitive element pi = x, tables.

    Do not instantiate directly; use make_field(), which validates the
    modulus and caches the default-modulus contexts.
    """

    def __init__(self, m: int, modulus: tuple[int, ...]):
        self.m = m
        self.ell = (m - 1) // 2
        self.modulus = modulus
        self.size = 3**m
        self.order = self.size - 1
        self.half = self.order // 2  # log of -1
        self.exp, digits_by_log = _build_exp_table(m, modulus)
        self.log = np.full(self.size, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(self.order, dtype=np.int64)
        assigned = int(np.count_nonzero(self.log >= 0))
        if assigned != self.order or self.exp[0] != 1:
            raise NotPrimitive(
                f"x generates a subgroup of order < {self.order} modulo {modulus}"
            )
        self.zech = _build_zech_table(self.exp, self.log)
        self.trace_by_log = _build_trace_table(self, digits_by_log)

    # -- scalar operations ----------------------------------------------

    def exp_of(self, j: int) -> int:
        """pi^j for any integer j (reduced mod 3^m - 1)."""
        return int(self.exp[j % self.order])

    def log_of(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("log of zero")
        return int(self.log[a])

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        la = self.log_add(self.log[a], self.log[b])
        return 0 if la < 0 else int(self.exp[la])

    def neg(self, a: int) -> int:
        return self.smul(2, a)

    def smul(self, c: int, a: int) -> int:
        """Scalar multiple by c in GF(3)."""
        c %= 3
        if c == 0 or a == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log_of_scalar(c)) % self.order])

    # -- log-domain helpers (ints or numpy arrays of logs) ---------------

    def log_of_scalar(self, c: int) -> int:
        """log of c in GF(3)*: 0 for 1, h for 2 = -1."""
        return (c - 1) * self.half

    def log_add(self, la, lb):
        """log(pi^la + pi^lb) for logs of nonzero elements; -1 where the sum is 0."""
        z = self.zech[(lb - la) % self.order]
        return np.where(z < 0, -1, (la + z) % self.order)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % self.order])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroInverse("negative power of zero")
        return int(self.exp[(self.log[a] * e) % self.order])

    def trace(self, a: int) -> int:
        return int(self.trace_by_log[self.log[a]]) if a else 0

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={polyring.format_poly(self.modulus)})"


def _build_exp_table(m: int, modulus: tuple[int, ...]):
    """exp table for pi = x (entry j is the packed element x^j) and its
    digit matrix, row i holding digit i of every x^j.

    Starting from x^0, each step doubles the known prefix [0, L) by applying
    the linear multiply-by-x^L map to its digit rows, so the work is
    O(m^2 * 3^m) int8 operations in O(m^2 * log(3^m)) numpy calls.  The m
    images x^(L + i) that define the map come from polyring.poly_mod.
    """
    order = 3**m - 1
    digits = np.zeros((m, order), dtype=np.int8)
    digits[0, 0] = 1
    length = 1
    while length < order:
        # column i: digits of x^(length + i), the image of the basis element
        # x^i under multiplication by x^length
        image = np.zeros((m, m), dtype=np.int8)
        col = polyring.normalize(digits[:, length - 1].tolist())
        for i in range(m):
            col = polyring.poly_mod(polyring.poly_mul(polyring.X, col), modulus)
            image[: len(col), i] = col
        hi = min(2 * length, order)
        for r in range(m):
            digits[r, length:hi] = _lincomb3(image[r], digits[:, : hi - length])
        length = hi

    exp = digits[m - 1].astype(np.int64)
    for r in range(m - 2, -1, -1):
        exp *= 3
        exp += digits[r]
    return exp, digits


def _lincomb3(coeffs, rows: np.ndarray) -> np.ndarray:
    """sum(c * row) mod 3 over int8 digit rows, for trit coefficients c."""
    acc = np.zeros(rows.shape[1], dtype=np.int8)
    for c, row in zip(coeffs, rows):
        if c == 1:
            acc += row
        elif c == 2:  # 2 = -1 mod 3; |acc| stays <= 26 for m <= 13
            acc -= row
    return acc % 3


def _build_zech_table(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    """zech[k] = log(1 + pi^k), -1 at k = h where pi^h = -1.

    Adding 1 changes only digit 0 of a packed element, so one pass over
    exp gives every 1 + pi^k.
    """
    one_plus = exp + 1
    one_plus[exp % 3 == 2] -= 3
    return log[one_plus]


def _build_trace_table(ctx: FieldCtx, digits_by_log: np.ndarray) -> np.ndarray:
    """Absolute trace GF(3^m) -> GF(3) of pi^j, indexed by j."""
    m, order = ctx.m, ctx.order
    # trace of each basis element x^i: sum of the conjugates x^(i*3^k),
    # which must be a constant polynomial
    basis_tr = []
    for i in range(m):
        conjugates = [(i * 3**k) % order for k in range(m)]
        acc = digits_by_log[:, conjugates].sum(axis=1) % 3
        if np.any(acc[1:]):
            raise NotIrreducible(
                "trace of a basis element is not in GF(3); modulus is invalid"
            )
        basis_tr.append(int(acc[0]))
    return _lincomb3(basis_tr, digits_by_log)


# Contexts for the DEFAULT_MODULI only, so the cache holds at most one per m.
_FIELD_CACHE: dict[int, FieldCtx] = {}


def make_field(m: int, modulus=None) -> FieldCtx:
    """Build a fully populated GF(3^m) context.

    Validates that the modulus is monic of degree m, irreducible, and
    that x is primitive.  When no modulus is given the built-in default
    for that m is used.  Default-modulus contexts are cached; any other
    modulus gets a fresh context on each call.
    """
    if m % 2 == 0 or m < 3:
        raise EvenDegree(f"m must be odd and >= 3, got {m}")
    if m > MAX_M:
        raise UnsupportedDegree(f"m={m} exceeds the supported maximum {MAX_M}")
    if modulus is None:
        mod = DEFAULT_MODULI[m]
    else:
        mod = polyring.normalize(modulus)
    default = mod == DEFAULT_MODULI[m]
    if default and m in _FIELD_CACHE:
        return _FIELD_CACHE[m]
    if polyring.degree(mod) != m or mod[-1] != 1:
        raise NotIrreducible(
            f"modulus must be monic of degree {m}: {polyring.format_poly(mod)}"
        )
    if not polyring.is_irreducible(mod):
        raise NotIrreducible(f"modulus factors over GF(3): {polyring.format_poly(mod)}")
    ctx = FieldCtx(m, mod)
    if default:
        _FIELD_CACHE[m] = ctx
    return ctx
