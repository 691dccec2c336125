"""GF(3^m) for odd m: modulus validation (check_modulus), without numpy, and
the cache of default-modulus contexts; contexts and tables live in fieldctx."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import polyring
from .exceptions import EvenDegree, NotIrreducible, NotPrimitive, UnsupportedDegree

if TYPE_CHECKING:
    from .fieldctx import FieldCtx

MAX_M = 13

# Positions per block of FieldCtx.line_logs, orbit_logs and orbit_reps and of
# the table builds, read at each call: int64 block arrays of 256 KiB, L2-sized.
BLOCK = 1 << 15

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

# Contexts for the DEFAULT_MODULI only, so the cache holds at most one per m.
_FIELD_CACHE: dict[int, FieldCtx] = {}


def check_modulus(m: int, modulus=None) -> polyring.Poly:
    """The modulus of GF(3^m), the default for m when None, checked in GF(3)[x]
    without numpy: m odd and supported, monic of degree m, irreducible, x primitive."""
    if m % 2 == 0 or m < 3:
        raise EvenDegree(f"m must be odd and >= 3, got {m}")
    if m > MAX_M:
        raise UnsupportedDegree(f"m={m} exceeds the supported maximum {MAX_M}")
    mod = DEFAULT_MODULI[m] if modulus is None else polyring.normalize(modulus)
    text = polyring.format_poly(mod)
    if polyring.degree(mod) != m or mod[-1] != 1:
        raise NotIrreducible(f"modulus must be monic of degree {m}: {text}")
    if not polyring.is_irreducible(mod):
        raise NotIrreducible(f"modulus factors over GF(3): {text}")
    if not polyring.is_primitive(mod):
        raise NotPrimitive(f"x generates a subgroup of order < {3**m - 1} modulo {text}")
    return mod


def make_field(m: int, modulus=None) -> FieldCtx:
    """A GF(3^m) context, whose tables are built on first read.

    Only a modulus that passes check_modulus (None: the default for m)
    imports fieldctx, and so numpy.  Default-modulus contexts are cached;
    any other modulus gets a fresh context on each call.
    """
    mod = check_modulus(m, modulus)
    default = mod == DEFAULT_MODULI[m]
    if default and m in _FIELD_CACHE:
        return _FIELD_CACHE[m]
    from .fieldctx import FieldCtx

    ctx = FieldCtx(m, mod)
    if default:
        _FIELD_CACHE[m] = ctx
    return ctx
