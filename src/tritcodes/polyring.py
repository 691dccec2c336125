"""Polynomial arithmetic over GF(3), cyclotomic cosets, minimal polynomials,
and root counts in GF(3^m) with no field table and no numpy.

Polynomials are tuples of trits (ints in {0,1,2}) in ascending order of
degree, with no trailing zeros; the zero polynomial is the empty tuple.
The same ascending comma-separated text format ("1,2,0,0,0,1" for
x^5+2x+1) is shared with field elements throughout the CLI and JSON
surfaces.  A cyclotomic coset is the ascending tuple of its members.

Inside this module a polynomial is a bit pair (ones, twos) of ints: bit i
of ones is set when the coefficient of x^i is 1, bit i of twos when it is 2.
Negation swaps the pair, and one addition of whole polynomials is seven
bitwise operations.  Each public function converts its trit tuples to pairs,
computes on pairs, and converts the result back.  Cubing in GF(3)[x] only
spreads the coefficients, (sum a_i x^i)^3 = sum a_i x^(3i), which gives the
conjugates of the minimal polynomial and the Frobenius powers x^(3^k).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .exceptions import Inconsistent

Poly = tuple[int, ...]
_Pair = tuple[int, int]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)

_ONE: _Pair = (1, 0)
_X: _Pair = (0b10, 0)

# Byte b with bit j moved to bit 3j, as 3 little-endian bytes.
_SPREAD = [sum((b >> j & 1) << 3 * j for j in range(8)).to_bytes(3, "little") for b in range(256)]


def normalize(coeffs: Iterable[int]) -> Poly:
    """Reduce entries mod 3 and strip trailing zeros."""
    out = [c % 3 for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Sequence[int]) -> int:
    """Degree of a canonical polynomial; -1 for the zero polynomial."""
    return len(f) - 1


def parse_poly(text: str) -> Poly:
    """Parse the ascending trit-list format, e.g. "1,2,0,0,0,1": each part,
    spaces around it stripped, is exactly 0, 1 or 2."""
    text = text.strip()
    if not text:
        return ZERO
    parts = [part.strip() for part in text.split(",")]
    if any(part not in ("0", "1", "2") for part in parts):
        raise ValueError(f"trit list may only contain 0, 1, 2: {text!r}")
    return normalize([int(part) for part in parts])


def format_poly(f: Sequence[int]) -> str:
    """Inverse of parse_poly (canonical form, so round-trips exactly)."""
    return ",".join(str(c) for c in f)


def poly_add(f: Sequence[int], g: Sequence[int]) -> Poly:
    return _trits(_add(_pair(f), _pair(g)))


def poly_sub(f: Sequence[int], g: Sequence[int]) -> Poly:
    return _trits(_add(_pair(f), _neg(_pair(g))))


def poly_mul(f: Sequence[int], g: Sequence[int]) -> Poly:
    return _trits(_mul(_pair(f), _pair(g)))


def poly_mod(f: Sequence[int], g: Sequence[int]) -> Poly:
    """Remainder of f divided by g over GF(3)."""
    return _trits(_rem(_pair(f), _pair(g)))


def poly_pow_mod(base: Sequence[int], e: int, mod: Sequence[int]) -> Poly:
    """base^e mod `mod` by square-and-multiply; handles huge e exactly."""
    return _trits(_pow_mod(_pair(base), e, _pair(mod)))


def is_irreducible(f: Sequence[int]) -> bool:
    """Rabin irreducibility test over GF(3)."""
    p = _pair(f)
    d = _degree(p)
    if d < 1:
        return False
    if d == 1:
        return True
    # x^(3^d) == x mod f, and gcd(x^(3^(d/r)) - x, f) = 1 for each prime r | d
    if _frobenius(_X, d, p) != _X:
        return False
    return all(
        _degree(_gcd(p, _add(_frobenius(_X, d // r, p), _neg(_X)))) == 0
        for r in _prime_factors(d)
    )


def is_primitive(f: Sequence[int]) -> bool:
    """True iff x has order 3^d - 1 modulo f of degree d: x^(3^d - 1) = 1 and
    x^((3^d - 1)/p) != 1 for every prime p dividing 3^d - 1.  Such an f is
    irreducible, since x then reaches every nonzero residue."""
    p = _pair(f)
    order = 3 ** _degree(p) - 1
    if order < 1 or _pow_mod(_X, order, p) != _ONE:
        return False
    return all(_pow_mod(_X, order // r, p) != _ONE for r in _prime_factors(order))


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic_coset(j: int, m: int) -> tuple[int, ...]:
    """Ascending members of the orbit of j under x -> 3x modulo 3^m - 1."""
    n = 3**m - 1
    if not 0 <= j <= n - 1:
        raise ValueError(f"j={j} outside [0, {n - 1}]")
    return tuple(sorted({j * 3**k % n for k in range(m)}))  # 3^m = 1 mod n


def minimal_polynomial(j: int, modulus: Sequence[int]) -> Poly:
    """Minimal polynomial over GF(3) of pi^j, pi = x in GF(3)[x]/(modulus).

    prod (X - r) over the conjugates r = x^(j*3^k) mod f, expanded with
    coefficients in GF(3)[x]/(f); each next conjugate is the cube of the
    last.  Every coefficient must be a constant.  Monic of degree |C_j|,
    with pi^j as a root.
    """
    f = _pair(modulus)
    coset = cyclotomic_coset(j, _degree(f))
    root = _pow_mod(_X, j, f)
    coeffs = [_ONE]  # ascending in X, each a residue mod f
    for _ in coset:
        new = [(0, 0), *coeffs]  # X * coeffs; the loop subtracts root * coeffs
        for t, c in enumerate(coeffs):
            new[t] = _add(new[t], _neg(_rem(_mul(c, root), f)))
        coeffs = new
        root = _rem(_cube(root), f)
    if any(_degree(c) > 0 for c in coeffs):
        raise Inconsistent(f"minimal polynomial of {j} has a coefficient outside GF(3)")
    return normalize(c[0] + 2 * c[1] for c in coeffs)


def nonzero_root_count(terms: Mapping[int, int], m: int) -> int:
    """Number of distinct x in GF(3^m)* with P(x) = 0, for P = sum c x^e over
    the (e, c) of terms, c taken mod 3: deg gcd(P, x^(3^m) - x), minus one
    when P(0) = 0.  The gcd is squarefree, so its degree counts the roots,
    0 included; this is the first step of distinct-degree factorisation (von
    zur Gathen and Gerhard, Modern Computer Algebra, ch. 14).  x^(3^m) mod P
    takes m cube-and-fold steps.  Each fold lowers the degree by deg P minus
    the degree of P's second term, so a P with a wide gap below its leading
    term is cheap: the lemma's, with gap q - 1, takes at most five per cube
    at m = 13."""
    coeffs = {e: c % 3 for e, c in terms.items() if c % 3}
    if not coeffs:
        raise ValueError("P = 0 vanishes at every element")
    d = max(coeffs)
    # x^d = -sum (c_e / c_d) x^e modulo P, where 1/c = c in GF(3)*
    fold = [(e, -c * coeffs[d] % 3) for e, c in coeffs.items() if e < d]
    power = _fold(_X, d, fold)
    for _ in range(m):
        power = _fold(_cube(power), d, fold)
    p = (_mask(coeffs.items(), 1), _mask(coeffs.items(), 2))
    return _degree(_gcd(p, _add(power, _neg(_X)))) - (0 not in coeffs)


def lemma_polynomial(m: int, epsilon: int, c: int) -> dict[int, int]:
    """(x^q + eps)(x^q - x) - c = x^(2q) - x^(q+1) + eps*x^q - eps*x - c with
    q = 3^ell, m = 2*ell + 1: its roots in GF(3^m) solve the lemma's equation
    lhs(x) = c."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    q = 3 ** ((m - 1) // 2)
    return {2 * q: 1, q + 1: 2, q: epsilon, 1: -epsilon % 3, 0: -c % 3}


def _mask(terms: Iterable[tuple[int, int]], c: int) -> int:
    return sum(1 << e for e, a in terms if a % 3 == c)


def _pair(f: Sequence[int]) -> _Pair:
    """The bit pair of f, coefficients taken mod 3."""
    return _mask(enumerate(f), 1), _mask(enumerate(f), 2)


def _trits(a: _Pair) -> Poly:
    ones, twos = a
    return tuple((ones >> i & 1) + 2 * (twos >> i & 1) for i in range(_degree(a) + 1))


def _degree(a: _Pair) -> int:
    """-1 for the zero polynomial."""
    return (a[0] | a[1]).bit_length() - 1


def _neg(a: _Pair) -> _Pair:
    return a[1], a[0]


def _add(a: _Pair, b: _Pair) -> _Pair:
    (a1, a2), (b1, b2) = a, b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _mul(a: _Pair, b: _Pair) -> _Pair:
    """Shift and add, over the terms of the factor of lower degree."""
    if _degree(a) < _degree(b):
        a, b = b, a
    out = (0, 0)
    for i in range(_degree(b) + 1):
        if b[0] >> i & 1:
            out = _add(out, (a[0] << i, a[1] << i))
        elif b[1] >> i & 1:
            out = _add(out, (a[1] << i, a[0] << i))
    return out


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
    """a mod b, one leading term at a time."""
    db = _degree(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
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


def _pow_mod(a: _Pair, e: int, mod: _Pair) -> _Pair:
    result, acc = _rem(_ONE, mod), _rem(a, mod)
    while e > 0:
        if e & 1:
            result = _rem(_mul(result, acc), mod)
        acc = _rem(_mul(acc, acc), mod)
        e >>= 1
    return result


def _frobenius(a: _Pair, k: int, mod: _Pair) -> _Pair:
    """a^(3^k) mod `mod`, by k cubes."""
    a = _rem(a, mod)
    for _ in range(k):
        a = _rem(_cube(a), mod)
    return a
