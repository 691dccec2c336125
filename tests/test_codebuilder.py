import random
from math import gcd

import pytest

from tritcodes import codebuilder as cb
from tritcodes import polyring
from tritcodes.distance import is_codeword
from tritcodes.exceptions import Inconsistent
from tritcodes.gf3m import make_field

from conftest import GEN_M5, GEN_M7, GEN_M9
from reference import add, exp_of, mul, smul


# m -> (n, k, u, v, generator); m = 5, 7, 9 are the paper's Examples 1-3
BUILDS = {
    3: (26, 20, 14, 7, (2, 0, 0, 2, 1, 1, 1)),
    5: (242, 232, 122, 19, GEN_M5),
    7: (2186, 2172, 1094, 55, GEN_M7),
    9: (19682, 19664, 9842, 163, GEN_M9),
}


@pytest.mark.parametrize("m", sorted(BUILDS))
def test_build_code(request, m):
    code = cb.build_code(request.getfixturevalue(f"ctx{m}"))
    assert (code.n, code.k, code.u, code.v, code.gen) == BUILDS[m]


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_v_is_prime_to_n(m):
    """gcd(u, 3^m - 1) = 2 and gcd(v, 3^m - 1) = 1, since 4n = -1 mod v: the
    direct dual enumerator's cyclic shift takes every b != 0 to b = 1."""
    u, v = cb.exponent_pair(m)
    assert (gcd(u, 3**m - 1), gcd(v, 3**m - 1)) == (2, 1)


def test_generator_degree_is_2m(code3, code5, code7):
    for code in (code3, code5, code7):
        assert polyring.degree(code.gen) == 2 * code.ctx.m


def test_generator_roots(code5):
    ctx = code5.ctx
    for e in (code5.u, code5.v):
        root = exp_of(ctx, e)
        acc = 0
        for c in reversed(code5.gen):
            acc = add(ctx, mul(ctx, acc, root), c)
        assert acc == 0


U5, _ = cb.exponent_pair(5)
COSET, MINPOLY = polyring.cyclotomic_coset, polyring.minimal_polynomial


@pytest.mark.parametrize(
    "attr, fake, message",
    [
        ("cyclotomic_coset", lambda j, m: COSET(j, m)[1:], r"coset sizes \|C_u\|=4, \|C_v\|=4"),
        ("cyclotomic_coset", lambda j, m: COSET(U5, m), "C_122 and C_19 intersect mod 242"),
        (
            "minimal_polynomial",
            lambda j, f: MINPOLY(j, f) if j == U5 else polyring.ONE,
            "generator degree 5 != 2m",
        ),
        (
            "minimal_polynomial",
            lambda j, f: MINPOLY(j, f) if j == U5 else (0,) * 5 + (1,),  # m_u * x^5
            r"generator polynomial does not divide x\^n - 1",
        ),
    ],
    ids=["coset-size", "cosets-intersect", "generator-degree", "generator-divides"],
)
def test_construct_guards_raise_inconsistent(ctx5, monkeypatch, attr, fake, message):
    """Each self-check of build_code fires when polyring returns a wrong part."""
    monkeypatch.setattr(polyring, attr, fake)
    with pytest.raises(Inconsistent, match=message):
        cb.build_code(ctx5)


def sparse(word):
    """(support, coefficients) of a dense word."""
    return [t for t, c in enumerate(word) if c], [c for c in word if c]


def test_is_codeword_trivia(code5):
    assert is_codeword([], [], code5)
    assert is_codeword(*sparse(code5.gen), code5)
    assert not is_codeword([0], [1], code5)
    with pytest.raises(ValueError, match=r"position 242 outside \[0, n=242\)"):
        is_codeword([0, 242], [1, 1], code5)


def test_is_codeword_against_syndrome_oracle(code3):
    """Random weight-3 words vs. brute-force power-sum syndrome membership."""
    ctx = code3.ctx
    n = code3.n
    rng = random.Random(42)
    for _ in range(50):
        support = rng.sample(range(n), 3)
        coeffs = [rng.choice((1, 2)) for _ in support]
        syn_u = 0
        syn_v = 0
        for t, c in zip(support, coeffs):
            syn_u = add(ctx, syn_u, smul(ctx, c, exp_of(ctx, code3.u * t)))
            syn_v = add(ctx, syn_v, smul(ctx, c, exp_of(ctx, code3.v * t)))
        assert is_codeword(support, coeffs, code3) == (syn_u == 0 and syn_v == 0)


@pytest.mark.parametrize("m", [3, 5])
def test_cyclic_shift_closure(m):
    ctx = make_field(m)
    code = cb.build_code(ctx)
    rng = random.Random(m)
    for _ in range(50):
        deg = rng.randrange(0, code.k)
        msg = [0] * (deg + 1)
        msg[deg] = rng.choice((1, 2))
        for i in range(deg):
            if rng.random() < 0.05:
                msg[i] = rng.choice((1, 2))
        prod = polyring.poly_mul(msg, code.gen)
        word = prod + (0,) * (code.n - len(prod))
        assert is_codeword(*sparse(word), code)
        shift = rng.randrange(1, code.n)
        assert is_codeword(*sparse(word[-shift:] + word[:-shift]), code)


def test_sphere_packing_examples():
    assert cb.sphere_packing_max_d(242, 232) == 4
    assert cb.sphere_packing_max_d(26, 20) == 4
    assert cb.sphere_packing_max_d(100, 100) == 1


def test_sphere_packing_ball_volumes():
    # radius-1 and radius-2 volumes behind the m=5 result
    assert cb.hamming_ball_volume(242, 1) == 485
    assert cb.hamming_ball_volume(242, 2) == 117129
    assert cb.hamming_ball_volume(26, 1) == 53
    assert cb.hamming_ball_volume(26, 2) == 1353


def test_sphere_packing_all_supported_m():
    for m in (3, 5, 7, 9, 11, 13):
        assert cb.sphere_packing_max_d(3**m - 1, 3**m - 1 - 2 * m) == 4
