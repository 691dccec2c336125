"""Assembly of the cyclic code C_(u,v) and the sphere-packing ceiling.

The code of interest has length n = 3^m - 1, nonzeros pi^u and pi^v with
u = (3^m + 1)/2 and v = 2*3^ell + 1 (m = 2*ell + 1), and generator
polynomial m_u(x) * m_v(x), built in GF(3)[x]/(f) by polyring without numpy
or field tables.  The code is a NamedTuple, so construct loads no dataclasses:
its generator and the field context the distance searches read; membership
(distance.is_codeword) is polynomial divisibility, cheap at n = 3^13 - 1.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from . import polyring
from .exceptions import Inconsistent

if TYPE_CHECKING:
    from .gf3m import FieldCtx


class CyclicCode(NamedTuple):
    """C_(u,v) over the field context ctx: its GF(3)[x] data, what `construct` prints."""

    ctx: FieldCtx
    n: int
    u: int
    v: int
    gen: tuple[int, ...]
    k: int

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
    """C_(u,v) over the field context: gen = m_u * m_v, computed and checked in
    GF(3)[x]/(ctx.modulus), so no field table is read and numpy is not loaded."""
    m, n = ctx.m, ctx.order
    u, v = exponent_pair(m)
    cos_u = polyring.cyclotomic_coset(u, m)
    cos_v = polyring.cyclotomic_coset(v, m)
    if len(cos_u) != m or len(cos_v) != m:
        raise Inconsistent(f"coset sizes |C_u|={len(cos_u)}, |C_v|={len(cos_v)}, expected {m}")
    if set(cos_u) & set(cos_v):
        raise Inconsistent(f"C_{u} and C_{v} intersect mod {n}")
    gen = polyring.poly_mul(
        polyring.minimal_polynomial(u, ctx.modulus), polyring.minimal_polynomial(v, ctx.modulus)
    )
    k = n - polyring.degree(gen)
    if k != n - 2 * m or gen[-1] != 1:
        raise Inconsistent(f"generator degree {polyring.degree(gen)} != 2m")
    # g | x^n - 1, checked via x^n mod g == 1 (square-and-multiply)
    if polyring.poly_pow_mod(polyring.X, n, gen) != polyring.ONE:
        raise Inconsistent("generator polynomial does not divide x^n - 1")
    return CyclicCode(ctx=ctx, n=n, u=u, v=v, gen=gen, k=k)


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
