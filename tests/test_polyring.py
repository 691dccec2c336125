import random

import pytest

from tritcodes import polyring
from tritcodes.codebuilder import build_code, exponent_pair
from tritcodes.gf3m import DEFAULT_MODULI, make_field
from tritcodes.exceptions import Inconsistent
from tritcodes.polyring import (
    ONE,
    X,
    ZERO,
    cyclotomic_coset,
    minimal_polynomial,
    normalize,
    parse_poly,
    format_poly,
    poly_add,
    poly_mod,
    poly_mul,
    poly_sub,
)

from conftest import GEN_M5
from reference import add, exp_of, mul


def test_parse_format_round_trip():
    assert parse_poly("1,2,0,0,0,1") == (1, 2, 0, 0, 0, 1)
    assert format_poly((1, 2, 0, 0, 0, 1)) == "1,2,0,0,0,1"
    assert parse_poly("") == ZERO
    assert parse_poly("1,2,0") == (1, 2)  # canonical: no trailing zeros
    with pytest.raises(ValueError):
        parse_poly("1,3")


def test_poly_mul_trivia():
    g = (1, 2, 0, 0, 0, 1)
    assert poly_mul(ZERO, g) == ZERO
    assert poly_mul(ONE, g) == g


def test_poly_mul_generator_example(ctx5):
    # m_122 * m_19 is the generator polynomial of the m=5 code
    got = poly_mul(minimal_polynomial(122, ctx5.modulus), minimal_polynomial(19, ctx5.modulus))
    assert got == GEN_M5


def test_poly_mod_trivia():
    g = (1, 2, 0, 0, 0, 1)
    assert poly_mod(g, g) == ZERO
    assert poly_mod(g, ONE) == ZERO
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_mod(g, ZERO)


def test_poly_mod_x_n_minus_1_by_generator():
    # the m=5 code is cyclic of length 242, so gen | x^242 - 1
    xn_minus_1 = normalize((-1,) + (0,) * 241 + (1,))
    assert poly_mod(xn_minus_1, GEN_M5) == ZERO


def test_cyclotomic_coset_trivia():
    assert cyclotomic_coset(0, 5) == (0,)
    with pytest.raises(ValueError, match=r"j=242 outside \[0, 241\]"):
        cyclotomic_coset(242, 5)
    with pytest.raises(ValueError, match=r"j=-1 outside \[0, 241\]"):
        cyclotomic_coset(-1, 5)


def test_cyclotomic_cosets_of_u_and_v():
    cu = cyclotomic_coset(122, 5)
    cv = cyclotomic_coset(19, 5)
    assert cu == (122, 124, 130, 148, 202)
    assert cv == (19, 29, 57, 87, 171)
    assert len(cu) == len(cv) == 5
    assert not set(cu) & set(cv)


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_cosets_partition(m):
    n = 3**m - 1
    cosets = {cyclotomic_coset(j, m) for j in range(n)}
    # each is an orbit of x -> 3x, and together they hold every j once
    assert all({3 * i % n for i in c} == set(c) for c in cosets)
    assert sum(len(c) for c in cosets) == n


def test_coset_sizes_divide_m():
    for m in (3, 5, 7):
        for j in sorted({cyclotomic_coset(i, m)[0] for i in range(3**m - 1)}):
            size = len(cyclotomic_coset(j, m))
            if j == 0:
                assert size == 1
            else:
                assert m % size == 0


def test_minimal_polynomial_of_one_is_x_minus_1(ctx5):
    assert minimal_polynomial(0, ctx5.modulus) == (2, 1)  # x - 1 == x + 2


def test_minimal_polynomial_of_pi_is_modulus(ctx5):
    assert minimal_polynomial(1, ctx5.modulus) == ctx5.modulus


def test_minimal_polynomial_coset_invariance(ctx5):
    for j in (1, 19, 122):
        want = minimal_polynomial(j, ctx5.modulus)
        assert minimal_polynomial(j * 3 % 242, ctx5.modulus) == want


def test_minimal_polynomial_irreducible_and_roots(ctx5):
    for j in (1, 19, 122):
        mp = minimal_polynomial(j, ctx5.modulus)
        assert polyring.is_irreducible(mp)
        assert mp[-1] == 1
        for i in cyclotomic_coset(j, 5):
            root = exp_of(ctx5, i)
            acc = 0
            for c in reversed(mp):  # Horner over the field
                acc = add(ctx5, mul(ctx5, acc, root), c)
            assert acc == 0


def _seeded_primitive_moduli(m, count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        f = (*(rng.randrange(3) for _ in range(m)), 1)
        if f not in found and polyring.is_primitive(f):
            found.append(f)
    return found


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_minimal_polynomials_of_u_and_v_against_field_tables(m):
    """The GF(3)[x] minimal polynomials of pi^u and pi^v, under the default
    modulus and 5 seeded primitive ones for m <= 9 (all 4 at m = 3), are monic,
    irreducible, of degree |C_j|, and vanish at pi^j by the reference arithmetic."""
    moduli = [DEFAULT_MODULI[m]]
    if m <= 9:
        moduli += _seeded_primitive_moduli(m, 4 if m == 3 else 5, seed=m)
    for modulus in moduli:
        ctx = make_field(m, modulus)
        for j in exponent_pair(m):
            mp = minimal_polynomial(j, modulus)
            assert mp[-1] == 1 and polyring.is_irreducible(mp), (modulus, j)
            assert polyring.degree(mp) == len(cyclotomic_coset(j, m)), (modulus, j)
            root, acc = exp_of(ctx, j), 0
            for c in reversed(mp):  # Horner over the field
                acc = add(ctx, mul(ctx, acc, root), c)
            assert acc == 0, (modulus, j)


def test_minimal_polynomial_refuses_a_reducible_modulus():
    # x^3 + x = x (x^2 + 1): the conjugates of x are not roots of one
    # GF(3) polynomial, so the product has non-constant coefficients
    with pytest.raises(Inconsistent, match="minimal polynomial of 1 has a coefficient outside GF"):
        minimal_polynomial(1, (0, 1, 0, 1))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_product_of_all_minimal_polynomials(m):
    n = 3**m - 1
    prod = ONE
    for j in sorted({cyclotomic_coset(i, m)[0] for i in range(n)}):
        prod = poly_mul(prod, minimal_polynomial(j, DEFAULT_MODULI[m]))
    assert prod == normalize((-1,) + (0,) * (n - 1) + (1,))


def test_poly_mod_matches_sympy():
    """Seeded random pairs, with deg f < deg g and leading coefficient 2 among
    them: the remainder, product, sum and difference agree with sympy's."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        f = normalize(rng.randrange(3) for _ in range(rng.randrange(16)))
        g = normalize([*(rng.randrange(3) for _ in range(rng.randrange(8))), rng.choice((1, 2))])
        seen.add((len(f) < len(g), g[-1]))
        sf, sg = (sympy.Poly(p[::-1] or [0], x, modulus=3) for p in (f, g))
        for got, want in (
            (poly_mod(f, g), sympy.rem(sf, sg)),
            (poly_mul(f, g), sf * sg),
            (poly_add(f, g), sf + sg),
            (poly_sub(f, g), sf - sg),
        ):
            assert got == normalize(reversed(want.all_coeffs())), (f, g)
    assert seen == {(False, 1), (False, 2), (True, 1), (True, 2)}


def test_poly_pow_mod_matches_naive():
    g = (1, 2, 0, 0, 0, 1)
    e = 37
    naive = ONE
    for _ in range(e):
        naive = poly_mod(poly_mul(naive, X), g)
    assert polyring.poly_pow_mod(X, e, g) == naive
    assert poly_sub(naive, naive) == ZERO


def test_sympy_confirms_moduli_minimal_polynomials_and_generators():
    """Outside oracle at every default m: the modulus is irreducible and x is
    primitive modulo it, m_u and m_v are irreducible, and gen | x^n - 1."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def irreducible(f):
        return sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=3).is_irreducible

    for m, modulus in DEFAULT_MODULI.items():
        n = 3**m - 1
        assert irreducible(modulus), m
        for p in sympy.factorint(n):
            assert gf_pow_mod([1, 0], n // p, list(modulus[::-1]), 3, ZZ) != [1], (m, p)
        code = build_code(make_field(m))
        assert irreducible(minimal_polynomial(code.u, modulus)), m
        assert irreducible(minimal_polynomial(code.v, modulus)), m
        assert gf_pow_mod([1, 0], n, list(code.gen[::-1]), 3, ZZ) == [1], m


def test_is_primitive_matches_sympy_order_test():
    """polyring.is_primitive and is_irreducible against sympy's order and
    irreducibility tests on every default modulus, x^3 + 2x^2 + 2x + 2 (x of
    order 13), a product of three cubics, and seeded random monic moduli at
    m = 3..9: irreducible ones of both kinds, and reducible ones, which are
    never primitive."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def irreducible(f):
        return sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=3).is_irreducible

    def primitive(f):
        n = 3 ** (len(f) - 1) - 1
        return irreducible(f) and all(
            gf_pow_mod([1, 0], n // p, list(f[::-1]), 3, ZZ) != [1] for p in sympy.factorint(n)
        )

    assert not polyring.is_primitive((2, 2, 2, 1))
    rng = random.Random(10)
    # x^(3^9) = x modulo a product of distinct irreducible cubics, so only
    # the gcd step of the Rabin test refuses it
    cubics = poly_mul(poly_mul((1, 0, 2, 1), (1, 1, 2, 1)), (1, 2, 0, 1))
    moduli = [*DEFAULT_MODULI.values(), (2, 2, 2, 1), cubics]
    for m in range(3, 10):
        kinds = {}
        while len(kinds) < 3:
            f = (*(rng.randrange(3) for _ in range(m)), 1)
            kind = "primitive" if primitive(f) else "irreducible" if irreducible(f) else "reducible"
            kinds.setdefault(kind, f)
        moduli += kinds.values()
    for f in moduli:
        assert polyring.is_primitive(f) == primitive(f), f
        assert polyring.is_irreducible(f) == irreducible(f), f
