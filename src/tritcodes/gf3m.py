"""Exact GF(3^m) arithmetic for odd m from precomputed exp/log/Zech/trace tables.

Elements are plain Python ints in [0, 3^m): the base-3 digits of the int
are the coefficients of the residue class, digit i holding the
coefficient of x^i.  The primitive element pi is always the residue
class of x.  All tables are materialized at construction (m <= 13,
about 1.6M entries at the top), after which every operation is a pure
function of (inputs, ctx) and the context is safe to share.  The exp, log
and Zech tables are int32; arithmetic on their entries runs in int64 or ints.

Addition runs in the log domain through the Zech table
zech[k] = log(1 + pi^k):  pi^a + pi^b = pi^(a + zech[b - a]).  With
h = (3^m - 1)/2, -1 = pi^h, so negation adds h to a log and the scalar
c in {1, 2} adds (c - 1)*h.  The log of zero is -1 in both tables:
log[0] = -1 and zech[h] = -1.
"""

from __future__ import annotations

from functools import reduce

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
        self.exp, digit0 = _build_exp_table(m, modulus)
        self.log = np.full(self.size, -1, dtype=np.int32)
        self.log[self.exp] = np.arange(self.order, dtype=np.int32)
        if np.count_nonzero(self.log >= 0) != self.order or self.exp[0] != 1:
            raise NotPrimitive(
                f"x generates a subgroup of order < {self.order} modulo {modulus}"
            )
        # zech[k] = log(1 + pi^k), -1 at k = h where pi^h = -1: adding 1
        # changes only digit 0 of the packed element exp[k]
        one_plus = self.exp + 1
        np.subtract(one_plus, 3, out=one_plus, where=digit0 == 2)
        self.zech = self.log[one_plus]
        self.trace_by_log = _build_trace_table(self)

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
        la = self.log_add(int(self.log[a]), int(self.log[b]))
        return 0 if la < 0 else int(self.exp[la])

    def neg(self, a: int) -> int:
        return self.smul(2, a)

    def smul(self, c: int, a: int) -> int:
        """Scalar multiple by c in GF(3)."""
        c %= 3
        if c == 0 or a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + self.log_of_scalar(c)) % self.order])

    # -- log-domain helpers (ints or numpy arrays of logs) ---------------

    def log_of_scalar(self, c: int) -> int:
        """log of c in GF(3)*: 0 for 1, h for 2 = -1."""
        return (c - 1) * self.half

    def log_add(self, la, lb):
        """log(pi^la + pi^lb) for logs in [0, n) (ints or int64 arrays) of
        nonzero elements; -1 where the sum is 0."""
        z = self.zech[lb - la]  # a negative index wraps mod n
        out = self.wrap(np.asarray(la + z, dtype=np.int64))
        np.copyto(out, -1, where=z < 0)
        return out

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """x mod n in place for an int64 array x in [0, 2n): as uint64, x - n
        is huge exactly where x < n, so the minimum is the residue."""
        np.minimum(x.view(np.uint64), (x - self.order).view(np.uint64), out=x.view(np.uint64))
        return x

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % self.order])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroInverse("negative power of zero")
        return int(self.exp[(int(self.log[a]) * e) % self.order])

    def trace(self, a: int) -> int:
        return int(self.trace_by_log[self.log[a]]) if a else 0

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={polyring.format_poly(self.modulus)})"


def _recurring(first, modulus: tuple[int, ...], length: int) -> np.ndarray:
    """`length` int8 terms of the linear recurring sequence of the modulus f
    that starts with the m trits `first`: s_j = lam(x^j mod f) for a linear
    lam, so x^(j+L) = x^j * (x^L mod f) gives s_(j+L) = sum_k a_k s_(j+k).
    The prefix doubles from m slices: O(m * length) int8 operations."""
    m = len(modulus) - 1
    s = np.zeros(length, dtype=np.int8)
    s[:m] = first
    known = m
    while known < length:
        # s_(known+j) for j < known - m + 1 reads only s[:known]
        hi = min(2 * known - m + 1, length)
        a = polyring.poly_pow_mod(polyring.X, known, modulus)
        s[known:hi] = _lincomb3(a, [s[k : k + hi - known] for k in range(m)])
        known = hi
    return s


def _build_exp_table(m: int, modulus: tuple[int, ...]):
    """exp table for pi = x (entry j is the packed element x^j, int32) and the
    int8 digit 0 of every x^j.  The top digit s_j is a _recurring sequence;
    row r - 1 is row r shifted plus f_r*s, since x^(j+1) = x * x^j, so row
    r reads s up to entry n - 1 + r."""
    order = 3**m - 1
    s = row = _recurring([0] * (m - 1) + [1], modulus, order + m - 1)
    exp = np.zeros(order, dtype=np.int32)
    for r in range(m - 1, -1, -1):
        exp *= 3
        exp += row[:order]
        if r:  # a shift alone where f_r = 0
            row = row[1:]
            row = np.take(_MOD3, row + modulus[r] * s[: len(row)]) if modulus[r] else row
    return exp, row[:order]


_MOD3 = (np.arange(64) % 3).astype(np.int8)  # x mod 3 for int8 x < 64: faster than %


def _lincomb3(coeffs, rows) -> np.ndarray:
    """sum(c * row) mod 3 over up to 13 int8 rows of trits, for trit coefficients c."""
    acc = np.full(len(rows[0]), 27, dtype=np.int8)  # 27 = 0 mod 3 keeps acc in [14, 40]
    for c, row in zip(coeffs, rows):
        if c == 1:
            acc += row
        elif c == 2:  # 2 = -1 mod 3
            acc -= row
    return np.take(_MOD3, acc)


def _build_trace_table(ctx: FieldCtx) -> np.ndarray:
    """Absolute trace GF(3^m) -> GF(3) of pi^j, indexed by j: a _recurring
    sequence (Tr is linear) started by Tr(x^i), the sum of the conjugates
    x^(i*3^k), for i < m; each must be a constant."""
    m = ctx.m
    basis_tr = [reduce(ctx.add, [ctx.exp_of(i * 3**k) for k in range(m)]) for i in range(m)]
    if max(basis_tr) > 2:
        raise NotIrreducible("trace of a basis element is not in GF(3); modulus is invalid")
    return _recurring(basis_tr, ctx.modulus, ctx.order)


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
    mod = DEFAULT_MODULI[m] if modulus is None else polyring.normalize(modulus)
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
