"""Polynomial arithmetic over GF(3), cyclotomic cosets, and minimal polynomials.

Polynomials are tuples of trits (ints in {0,1,2}) in ascending order of
degree, with no trailing zeros; the zero polynomial is the empty tuple.
The same ascending comma-separated text format ("1,2,0,0,0,1" for
x^5+2x+1) is shared with field elements throughout the CLI and JSON
surfaces.  A cyclotomic coset is the ascending tuple of its members.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exceptions import Inconsistent

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


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
    """Parse the ascending trit-list format, e.g. "1,2,0,0,0,1"."""
    text = text.strip()
    if not text:
        return ZERO
    coeffs = [int(part) for part in text.split(",")]
    if any(c not in (0, 1, 2) for c in coeffs):
        raise ValueError(f"trit list may only contain 0, 1, 2: {text!r}")
    return normalize(coeffs)


def format_poly(f: Sequence[int]) -> str:
    """Inverse of parse_poly (canonical form, so round-trips exactly)."""
    return ",".join(str(c) for c in f)


def poly_add(f: Sequence[int], g: Sequence[int]) -> Poly:
    n = max(len(f), len(g))
    return normalize(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_neg(f: Sequence[int]) -> Poly:
    return tuple((-c) % 3 for c in f)


def poly_sub(f: Sequence[int], g: Sequence[int]) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Sequence[int], g: Sequence[int]) -> Poly:
    """Schoolbook product with coefficients reduced mod 3."""
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % 3
    return normalize(out)


def poly_mod(f: Sequence[int], g: Sequence[int]) -> Poly:
    """Remainder of f divided by g over GF(3)."""
    g = normalize(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(normalize(f))
    dg = degree(g)
    # the leading coefficient is its own inverse in GF(3): 1*1 = 2*2 = 1
    while len(rem) - 1 >= dg:
        shift = len(rem) - 1 - dg
        factor = (rem[-1] * g[-1]) % 3
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - factor * c) % 3
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def poly_pow_mod(base: Sequence[int], e: int, mod: Sequence[int]) -> Poly:
    """base^e mod `mod` by square-and-multiply; handles huge e exactly."""
    result = poly_mod(ONE, mod)
    acc = poly_mod(base, mod)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, acc), mod)
        acc = poly_mod(poly_mul(acc, acc), mod)
        e >>= 1
    return result


def poly_gcd(f: Sequence[int], g: Sequence[int]) -> Poly:
    a, b = normalize(f), normalize(g)
    while b:
        a, b = b, poly_mod(a, b)
    if a and a[-1] == 2:  # make monic
        a = poly_neg(a)
    return normalize(a)


def is_irreducible(f: Sequence[int]) -> bool:
    """Rabin irreducibility test over GF(3)."""
    f = normalize(f)
    d = degree(f)
    if d < 1:
        return False
    if d == 1:
        return True
    # x^(3^d) == x mod f
    xq = poly_pow_mod(X, 3**d, f)
    if poly_sub(xq, X) != ZERO:
        return False
    for p in _prime_factors(d):
        h = poly_pow_mod(X, 3 ** (d // p), f)
        if poly_gcd(poly_sub(h, X), f) != ONE:
            return False
    return True


def is_primitive(f: Sequence[int]) -> bool:
    """True iff x has order 3^d - 1 modulo f of degree d: x^(3^d - 1) = 1 and
    x^((3^d - 1)/p) != 1 for every prime p dividing 3^d - 1.  Such an f is
    irreducible, since x then reaches every nonzero residue."""
    f = normalize(f)
    order = 3 ** degree(f) - 1
    if order < 1 or poly_pow_mod(X, order, f) != ONE:
        return False
    return all(poly_pow_mod(X, order // p, f) != ONE for p in _prime_factors(order))


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
    coefficients in GF(3)[x]/(f); each next conjugate is the cube of the last,
    and cubing in GF(3)[x] spreads the coefficients: (sum c_i x^i)^3 =
    sum c_i x^(3i).  Every coefficient must be a constant.  Monic of degree
    |C_j|, with pi^j as a root.
    """
    coset = cyclotomic_coset(j, degree(modulus))
    root = poly_pow_mod(X, j, modulus)
    coeffs = [ONE]  # ascending in X, each a residue mod f
    for _ in coset:
        new = [ZERO, *coeffs]  # X * coeffs; the loop subtracts root * coeffs
        for t, c in enumerate(coeffs):
            new[t] = poly_sub(new[t], poly_mod(poly_mul(c, root), modulus))
        coeffs = new
        root = poly_mod(tuple(c for a in root for c in (a, 0, 0)), modulus)
    if any(len(c) > 1 for c in coeffs):
        raise Inconsistent(f"minimal polynomial of {j} has a coefficient outside GF(3)")
    return normalize(c[0] if c else 0 for c in coeffs)
