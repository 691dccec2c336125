"""Polynomial arithmetic over GF(3), cyclotomic cosets, minimal polynomials,
and root counts in GF(3^m) with no field table and no numpy.

Polynomials are tuples of trits (ints in {0,1,2}) in ascending order of
degree, with no trailing zeros; the zero polynomial is the empty tuple.  The
CLI and JSON write them, and field elements, as "1,2,0,0,0,1" (x^5+2x+1).
A cyclotomic coset is the ascending tuple of its members.

Inside this module a polynomial is a bit pair (ones, twos) of ints: bit i
of ones is set when the coefficient of x^i is 1, bit i of twos when it is 2.
Negation swaps the pair, and one addition is seven bitwise operations.
Each public function converts trit tuples to pairs and back.  A cube only
spreads the coefficients, (sum a_i x^i)^3 = sum a_i x^(3i).  Every product
and cube modulo a fixed P goes through P's reducer: the order test, the
minimal polynomials and the lemma's root count, deg gcd(P, x^(3^m) - x).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

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


def poly_mul(f: Sequence[int], g: Sequence[int]) -> Poly:
    return _trits(_mul(_pair(f), _pair(g)))


def poly_pow_mod(base: Sequence[int], e: int, mod: Sequence[int]) -> Poly:
    """base^e mod `mod` by square-and-multiply; handles huge e exactly."""
    return _trits(_pow_mod(_pair(base), e, _pair(mod)))


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
    reduce = _reducer(f)
    root = _pow_mod(_X, j, f)
    coeffs = [_ONE]  # ascending in X, each a residue mod f
    for _ in coset:
        new = [(0, 0), *coeffs]  # X * coeffs; the loop subtracts root * coeffs
        for t, c in enumerate(coeffs):
            new[t] = _add(new[t], _neg(reduce(_mul(c, root))))
        coeffs = new
        root = reduce(_cube(root))
    if any(_degree(c) > 0 for c in coeffs):
        raise Inconsistent(f"minimal polynomial of {j} has a coefficient outside GF(3)")
    return normalize(c[0] + 2 * c[1] for c in coeffs)


def nonzero_root_count(terms: Mapping[int, int], m: int) -> int:
    """Number of distinct x in GF(3^m)* with P(x) = 0, for P = sum c x^e over
    the (e, c) of terms, c taken mod 3: deg gcd(P, x^(3^m) - x), minus one
    when P(0) = 0.  The gcd is squarefree, so its degree counts each root
    once, 0 included: the first step of distinct-degree factorisation (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 14).  The lemma's P, with
    gap q - 1 below its leading term, takes m cubes of at most five _fold
    rounds each at m = 13."""
    p = _mask(terms.items(), 1), _mask(terms.items(), 2)
    if not any(p):
        raise ValueError("P = 0 vanishes at every element")
    reduce = _reducer(p)
    power = reduce(_X)
    for _ in range(m):
        power = reduce(_cube(power))
    return _degree(_gcd(p, _add(power, _neg(_X)))) - ((p[0] | p[1]) & 1 == 0)


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


def _reducer(p: _Pair) -> Callable[[_Pair], _Pair]:
    """a -> a mod P.  A _fold round lowers the degree by the gap below P's
    leading term for one addition per lower term, a _rem step by at least one
    for one addition: _fold when the gap is wider than the lower terms are many."""
    d = _degree(p)
    tail = [e for e in range(d) if (p[0] | p[1]) >> e & 1]
    if d - (tail[-1] if tail else -1) <= len(tail):
        return lambda a: _rem(a, p)
    # x^d = -sum (c_e / c_d) x^e modulo P, with 1/c = c: minus has the +1 terms
    minus = p[1] if p[0] >> d & 1 else p[0]
    fold = [(e, 1 if minus >> e & 1 else 2) for e in tail]
    return lambda a: _fold(a, d, fold)


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
    reduce = _reducer(mod)
    result, acc = reduce(_ONE), reduce(a)
    while e > 0:
        if e & 1:
            result = reduce(_mul(result, acc))
        acc = reduce(_mul(acc, acc))
        e >>= 1
    return result
