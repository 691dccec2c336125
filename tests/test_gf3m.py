import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritcodes import gf3m, polyring
from tritcodes.exceptions import (
    EvenDegree,
    NotIrreducible,
    NotPrimitive,
    UnsupportedDegree,
    ZeroInput,
    ZeroInverse,
)


def ref_mul(ctx, a, b):
    """Schoolbook polynomial multiplication followed by reduction; oracle."""
    fa = polyring.normalize(a // 3**i % 3 for i in range(ctx.m))
    fb = polyring.normalize(b // 3**i % 3 for i in range(ctx.m))
    rem = polyring.poly_mod(polyring.poly_mul(fa, fb), ctx.modulus)
    return sum(c * 3**i for i, c in enumerate(rem))


def ref_add(ctx, a, b):
    """Digit-by-digit sum mod 3 of the coefficient sequences; oracle for Zech add."""
    out = 0
    p = 1
    for _ in range(ctx.m):
        out += ((a + b) % 3) * p
        a //= 3
        b //= 3
        p *= 3
    return out


def ref_neg(ctx, a):
    """Digit-by-digit negation mod 3; oracle for the log-domain neg."""
    out = 0
    p = 1
    for _ in range(ctx.m):
        out += ((-a) % 3) * p
        a //= 3
        p *= 3
    return out


@st.composite
def primitive_fields(draw, ms=(3, 5, 7)):
    """A field under a random primitive modulus: the minimal polynomial of
    pi^k for k prime to 3^m - 1, validated again by make_field."""
    m = draw(st.sampled_from(ms))
    base = gf3m.make_field(m)
    k = draw(st.integers(1, base.order - 1).filter(lambda k: math.gcd(k, base.order) == 1))
    return gf3m.make_field(m, polyring.minimal_polynomial(k, base))


def ref_trace(ctx, a):
    """Trace via repeated poly powmod, independent of exp/log tables."""
    fa = polyring.normalize(a // 3**i % 3 for i in range(ctx.m))
    acc = polyring.ZERO
    for i in range(ctx.m):
        acc = polyring.poly_add(
            acc, polyring.poly_pow_mod(fa, 3**i, ctx.modulus)
        )
    assert polyring.degree(acc) <= 0
    return acc[0] if acc else 0


class TestMakeField:
    def test_paper_modulus_m5(self, ctx5):
        assert ctx5.order == 242
        assert ctx5.exp_of(1) == 3  # pi = x, digits (0, 1)

    def test_reducible_modulus_rejected(self):
        # x^5 factors as x * x^4
        with pytest.raises(NotIrreducible):
            gf3m.make_field(5, (0, 0, 0, 0, 0, 1))

    def test_irreducible_but_imprimitive_rejected(self):
        # x^3 + 2x^2 + 2x + 2 is irreducible but x has order 13 < 26
        mod = (2, 2, 2, 1)
        assert polyring.is_irreducible(mod)
        with pytest.raises(NotPrimitive):
            gf3m.make_field(3, mod)

    def test_even_degree_rejected(self):
        with pytest.raises(EvenDegree):
            gf3m.make_field(4)
        with pytest.raises(EvenDegree):
            gf3m.make_field(1)

    def test_only_default_moduli_cached(self):
        custom = (1, 1, 1, 1, 2, 1)  # minimal polynomial of pi^5, primitive
        assert gf3m.make_field(5, custom) is not gf3m.make_field(5, custom)
        assert gf3m.make_field(5) is gf3m.make_field(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(UnsupportedDegree):
            gf3m.make_field(15)

    def test_m3_exp_table_distinct(self, ctx3):
        assert ctx3.order == 26
        assert len(set(ctx3.exp.tolist())) == 26
        assert ctx3.exp[0] == 1

    def test_default_moduli_all_valid(self):
        for m in gf3m.DEFAULT_MODULI:
            ctx = gf3m.make_field(m)
            assert ctx.order == 3**m - 1

    @pytest.mark.parametrize("m", sorted(gf3m.DEFAULT_MODULI))
    def test_tables_are_int32(self, m):
        ctx = gf3m.make_field(m)
        assert ctx.exp.dtype == ctx.log.dtype == ctx.zech.dtype == np.int32

    @pytest.mark.parametrize("m", sorted(gf3m.DEFAULT_MODULI))
    def test_whole_exp_and_trace_tables(self, m):
        """Every entry, from the modulus f alone: exp[j + 1] = x * exp[j] by a
        digit shift and x^m = -sum f_i x^i; the trace table satisfies the same
        recurrence, started by Tr(1) = m and Newton's identities."""
        ctx = gf3m.make_field(m)
        f, exp = ctx.modulus, ctx.exp
        assert exp[0] == 1
        top = exp // 3 ** (m - 1)
        want = np.zeros_like(exp)
        for i in range(m):  # digit i of x * exp[j]
            below = exp // 3 ** (i - 1) % 3 if i else 0
            want += (below - top * f[i]) % 3 * 3**i
        assert np.array_equal(np.roll(exp, -1), want)
        tr = ctx.trace_by_log.astype(np.int64)
        rhs = np.zeros_like(tr)
        for k in range(m):
            rhs -= f[k] * np.roll(tr, -k)
        assert np.array_equal(np.roll(tr, -m), rhs % 3)
        # the first m traces are the power sums of the roots of f
        assert tr[0] == m % 3
        for k in range(1, m):
            newton = tr[k] + sum(f[m - i] * tr[k - i] for i in range(1, k)) + k * f[m - k]
            assert newton % 3 == 0


class TestArithmetic:
    def test_mul_absorbing_and_identity(self, ctx5):
        b = ctx5.exp_of(17)
        assert ctx5.mul(0, b) == 0
        assert ctx5.mul(1, b) == b

    def test_mul_exponent_wraparound(self, ctx5):
        # pi^5 * pi^240 = pi^3 (exponents add mod 242)
        got = ctx5.mul(ctx5.exp_of(5), ctx5.exp_of(240))
        assert got == ctx5.exp_of(3)
        assert got == ref_mul(ctx5, ctx5.exp_of(5), ctx5.exp_of(240))

    def test_mul_against_schoolbook_oracle(self, ctx5):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(ctx5.size)
            b = rng.randrange(ctx5.size)
            assert ctx5.mul(a, b) == ref_mul(ctx5, a, b)

    def test_pow(self, ctx5):
        a = ctx5.exp_of(9)
        assert ctx5.pow(a, 1) == a
        assert ctx5.pow(ctx5.exp_of(1), 242) == 1
        assert ctx5.pow(0, 5) == 0
        assert ctx5.pow(0, 0) == 1
        with pytest.raises(ZeroInverse):
            ctx5.pow(0, -1)

    def test_pow_huge_exponents_m13(self):
        """pi^j to a power near n^2 against square-and-multiply on x: the
        exponent arithmetic must not happen in the int32 log table's type."""
        ctx = gf3m.make_field(13)
        n = ctx.order
        for j, e in [(n - 1, n * n - 3), (n - 2, n * n // 2 + 7), (n // 2 + 1, 3 * n + 5)]:
            want = polyring.poly_pow_mod(polyring.X, j * e, ctx.modulus)
            assert ctx.pow(ctx.exp_of(j), e) == sum(c * 3**i for i, c in enumerate(want))

    def test_u_power_dichotomy_full_scan(self, ctx5):
        u = (3**5 + 1) // 2
        for y in range(1, ctx5.size):
            expect = y if ctx5.log_of(y) % 2 == 0 else ctx5.neg(y)
            assert ctx5.pow(y, u) == expect

    def test_trace_basics(self, ctx5):
        assert ctx5.trace(0) == 0
        assert ctx5.trace(1) == 5 % 3

    def test_trace_balance(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            zeros = sum(1 for x in range(ctx.size) if ctx.trace(x) == 0)
            assert zeros == 3 ** (ctx.m - 1)

    def test_trace_against_powmod_oracle(self, ctx5):
        rng = random.Random(3)
        for _ in range(50):
            a = rng.randrange(ctx5.size)
            assert ctx5.trace(a) == ref_trace(ctx5, a)

    def test_trace_additive(self, ctx5):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.randrange(ctx5.size)
            b = rng.randrange(ctx5.size)
            assert ctx5.trace(ctx5.add(a, b)) == (ctx5.trace(a) + ctx5.trace(b)) % 3


class TestInvariants:
    def test_log_exp_round_trip(self, ctx5, ctx7):
        for ctx in (ctx5, ctx7):
            for a in range(1, ctx.size):
                assert ctx.exp[ctx.log[a]] == a
        with pytest.raises(ZeroInput):
            ctx5.log_of(0)

    def test_frobenius_orbit_closes(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            for a in range(ctx.size):
                b = a
                for _ in range(ctx.m):
                    b = ctx.pow(b, 3) if b else 0
                assert b == a

    def test_exponent_gcds(self):
        for m in (3, 5, 7, 9, 11, 13):
            n = 3**m - 1
            u = (3**m + 1) // 2
            v = 2 * 3 ** ((m - 1) // 2) + 1
            assert math.gcd(u, n) == 2
            assert math.gcd(v, n) == 1

    def test_vectorized_helpers_match_scalar(self, ctx5):
        """Array log_add agrees with the digit-loop reference on every
        ordered pair of nonzero elements, zero sums included."""
        la, lb = np.meshgrid(np.arange(ctx5.order), np.arange(ctx5.order))
        got = ctx5.log_add(la.ravel(), lb.ravel())
        for x, y, z in zip(la.ravel().tolist(), lb.ravel().tolist(), got.tolist()):
            expect = ref_add(ctx5, ctx5.exp_of(x), ctx5.exp_of(y))
            assert z == (ctx5.log_of(expect) if expect else -1)

    @settings(max_examples=300, deadline=None)
    @given(ctx=primitive_fields(), data=st.data())
    def test_zech_add_neg_sub_match_digit_reference(self, ctx, data):
        a = data.draw(st.integers(0, ctx.size - 1))
        b = data.draw(st.integers(0, ctx.size - 1))
        assert ctx.add(a, b) == ref_add(ctx, a, b)
        assert ctx.neg(a) == ref_neg(ctx, a)
        assert ctx.add(a, ctx.neg(b)) == ref_add(ctx, a, ref_neg(ctx, b))
        assert ctx.add(a, ref_neg(ctx, a)) == 0
        assert ctx.smul(2, a) == ref_neg(ctx, a)
        assert ctx.smul(1, a) == a and ctx.smul(3, a) == 0
