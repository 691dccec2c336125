"""Assembly of the cyclic code C_(u,v) and the sphere-packing ceiling.

The code of interest has length n = 3^m - 1, nonzeros pi^u and pi^v with
u = (3^m + 1)/2 and v = 2*3^ell + 1 (m = 2*ell + 1), and generator
polynomial m_u(x) * m_v(x).  The code object stores the generator
polynomial only; membership is polynomial divisibility, which keeps
n = 3^13 - 1 instances cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import polyring
from .exceptions import CosetCollision, LengthMismatch
from .fieldctx import FieldCtx


@dataclass(frozen=True)
class CyclicCode:
    n: int
    u: int
    v: int
    gen: tuple[int, ...]
    k: int
    ctx: FieldCtx

    @property
    def m(self) -> int:
        return self.ctx.m

    def to_json_dict(self) -> dict:
        return {
            "m": self.ctx.m,
            "n": self.n,
            "k": self.k,
            "u": self.u,
            "v": self.v,
            "modulus": polyring.format_poly(self.ctx.modulus),
            "generator": polyring.format_poly(self.gen),
        }


def exponent_pair(m: int) -> tuple[int, int]:
    """(u, v) = ((3^m + 1)/2, 2*3^ell + 1) for m = 2*ell + 1."""
    ell = (m - 1) // 2
    return (3**m + 1) // 2, 2 * 3**ell + 1


def build_code(ctx: FieldCtx) -> CyclicCode:
    """Construct C_(u,v) over the given field context."""
    m = ctx.m
    n = ctx.order
    u, v = exponent_pair(m)
    cos_u = polyring.cyclotomic_coset(u, m)
    cos_v = polyring.cyclotomic_coset(v, m)
    if len(cos_u) != m or len(cos_v) != m:
        raise CosetCollision(
            f"coset sizes |C_u|={len(cos_u)}, |C_v|={len(cos_v)}, expected {m}"
        )
    if set(cos_u) & set(cos_v):
        raise CosetCollision(f"C_{u} and C_{v} intersect mod {n}")
    gen = polyring.poly_mul(
        polyring.minimal_polynomial(u, ctx), polyring.minimal_polynomial(v, ctx)
    )
    k = n - polyring.degree(gen)
    if k != n - 2 * m or gen[-1] != 1:
        raise CosetCollision(f"generator degree {polyring.degree(gen)} != 2m")
    # g | x^n - 1, checked via x^n mod g == 1 (square-and-multiply)
    if polyring.poly_pow_mod(polyring.X, n, gen) != polyring.ONE:
        raise CosetCollision("generator polynomial does not divide x^n - 1")
    return CyclicCode(n=n, u=u, v=v, gen=gen, k=k, ctx=ctx)


def is_codeword(word, code: CyclicCode) -> bool:
    """True iff the polynomial of the length-n word is divisible by gen.

    Only nonzero terms are reduced: sum(c_t * (x^t mod gen)) must vanish, so
    a weight-4 word at n = 3^13 - 1 costs four square-and-multiply powers.
    """
    if len(word) != code.n:
        raise LengthMismatch(f"word length {len(word)} != n={code.n}")
    coeffs = np.asarray(word) % 3
    rem = polyring.ZERO
    for t in np.flatnonzero(coeffs):
        term = polyring.poly_pow_mod(polyring.X, int(t), code.gen)
        rem = polyring.poly_add(rem, polyring.poly_mul((int(coeffs[t]),), term))
    return rem == polyring.ZERO


def hamming_ball_volume(n: int, r: int) -> int:
    """Number of ternary words within Hamming distance r; exact big-integer arithmetic."""
    return sum(comb(n, i) * 2**i for i in range(r + 1))


def sphere_packing_max_d(n: int, k: int) -> int:
    """Largest minimum distance a ternary [n, k] code can have.

    Sphere packing: the radius-floor((d-1)/2) ball volume must not exceed
    3^(n-k).  The ball condition alone never rules out d = 2, so the
    Singleton bound d <= n - k + 1 is applied on top (this is what makes
    the zero-redundancy case return 1).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    bound = 3 ** (n - k)
    r = 0
    while hamming_ball_volume(n, r + 1) <= bound:
        r += 1
    return min(2 * r + 2, n - k + 1)
