"""Root counts of sparse polynomials over GF(3) in GF(3^m), with no field table
and no numpy; the lemma's polynomial.

The roots of P in GF(3^m) are those of gcd(P, x^(3^m) - x), which is
squarefree, so its degree counts them, 0 included when P(0) = 0.  x^(3^m)
mod P takes m cube-and-fold steps, because cubing in GF(3)[x] only spreads
the coefficients: (sum a_i x^i)^3 = sum a_i x^(3i).  This is the first step
of distinct-degree factorisation (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14).

A sparse polynomial is a map {exponent: coefficient}.  Inside this module a
polynomial is a bit pair (ones, twos) of ints: bit i of ones is set when
the coefficient of x^i is 1, bit i of twos when it is 2.  Negation swaps
the pair, and one addition of whole polynomials is seven bitwise
operations.  polyring's trit tuples stay the package's GF(3)[x] API.
"""

from __future__ import annotations

from typing import Mapping

_Pair = tuple[int, int]

_X: _Pair = (0b10, 0)

# Byte b with bit j moved to bit 3j, as 3 little-endian bytes.
_SPREAD = [sum((b >> j & 1) << 3 * j for j in range(8)).to_bytes(3, "little") for b in range(256)]


def nonzero_root_count(terms: Mapping[int, int], m: int) -> int:
    """Number of distinct x in GF(3^m)* with P(x) = 0, for P = sum c x^e over
    the (e, c) of terms, c taken mod 3: deg gcd(P, x^(3^m) - x), minus one
    when P(0) = 0.  Each fold lowers the degree by deg P minus the degree of
    P's second term, so a P with a wide gap below its leading term is cheap:
    the lemma's, with gap q - 1, takes at most five per cube at m = 13."""
    coeffs = {e: c % 3 for e, c in terms.items() if c % 3}
    if not coeffs:
        raise ValueError("P = 0 vanishes at every element")
    d = max(coeffs)
    # x^d = -sum (c_e / c_d) x^e modulo P, where 1/c = c in GF(3)*
    fold = [(e, -c * coeffs[d] % 3) for e, c in coeffs.items() if e < d]
    power = _fold(_X, d, fold)
    for _ in range(m):
        power = _fold(_cube(power), d, fold)
    p = (_mask(coeffs, 1), _mask(coeffs, 2))
    return _degree(_gcd(p, _add(power, _neg(_X)))) - (0 not in coeffs)


def lemma_polynomial(m: int, epsilon: int, c: int) -> dict[int, int]:
    """(x^q + eps)(x^q - x) - c = x^(2q) - x^(q+1) + eps*x^q - eps*x - c with
    q = 3^ell, m = 2*ell + 1: its roots in GF(3^m) solve the lemma's equation
    lhs(x) = c."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    q = 3 ** ((m - 1) // 2)
    return {2 * q: 1, q + 1: 2, q: epsilon, 1: -epsilon % 3, 0: -c % 3}


def _mask(coeffs: Mapping[int, int], c: int) -> int:
    return sum(1 << e for e, a in coeffs.items() if a == c)


def _degree(a: _Pair) -> int:
    """-1 for the zero polynomial."""
    return max(a[0].bit_length(), a[1].bit_length()) - 1


def _neg(a: _Pair) -> _Pair:
    return a[1], a[0]


def _add(a: _Pair, b: _Pair) -> _Pair:
    (a1, a2), (b1, b2) = a, b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _spread(v: int) -> int:
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_SPREAD.__getitem__, data)), "little")


def _cube(a: _Pair) -> _Pair:
    return _spread(a[0]), _spread(a[1])


def _fold(a: _Pair, d: int, fold) -> _Pair:
    """a mod P for a P of degree d, by replacing h*x^d with h*(-tail) until
    nothing is left above degree d - 1; fold holds -tail's (e, c), e < d."""
    low = (1 << d) - 1
    ones, twos = a
    while (ones | twos) >> d:
        h1, h2 = ones >> d, twos >> d
        r = ones & low, twos & low
        for e, c in fold:
            r = _add(r, (h1 << e, h2 << e) if c == 1 else (h2 << e, h1 << e))
        ones, twos = r
    return ones, twos


def _rem(a: _Pair, b: _Pair) -> _Pair:
    """a mod b for b != 0, one leading term at a time."""
    db = _degree(b)
    b_lead_one = b[0] >> db & 1
    while (da := _degree(a)) >= db:
        # a - (lead_a / lead_b) x^s b: lead_b's inverse is lead_b itself
        s = da - db
        shifted = b[0] << s, b[1] << s
        a = _add(a, _neg(shifted) if (a[0] >> da & 1) == b_lead_one else shifted)
    return a


def _gcd(a: _Pair, b: _Pair) -> _Pair:
    while any(b):
        a, b = b, _rem(a, b)
    return a
