import hashlib
import itertools
import random

import numpy as np
import pytest

from tritcodes import gf3m, polyring
from tritcodes.exceptions import EvenDegree, NotIrreducible, NotPrimitive, UnsupportedDegree

from reference import add, exp_of, mul, neg, power, trace


def as_poly(ctx, a):
    """The residue class of the packed element a, as a GF(3)[x] tuple."""
    return polyring.normalize(a // 3**i % 3 for i in range(ctx.m))


def pack(f):
    return sum(c * 3**i for i, c in enumerate(f))


# Each default modulus, and at m = 5 and 7 the minimal polynomials of pi^k
# for k prime to 3^m - 1: primitive moduli whose tables no default shares.
MODULI = [pytest.param(m, 1, id=str(m)) for m in sorted(gf3m.DEFAULT_MODULI)] + [
    pytest.param(m, k, id=f"{m}-pi^{k}") for m, k in [(5, 5), (5, 7), (7, 5), (7, 7), (7, 11)]
]


def field(m, k):
    """GF(3^m) under the minimal polynomial of pi^k of the default field."""
    base = gf3m.make_field(m)
    return base if k == 1 else gf3m.make_field(m, polyring.minimal_polynomial(k, base.modulus))


class TestMakeField:
    def test_paper_modulus_m5(self, ctx5):
        assert ctx5.order == 242
        assert ctx5.exp[1] == 3  # pi = x, digits (0, 1)

    def test_reducible_modulus_rejected(self):
        # x^5 factors as x * x^4
        with pytest.raises(NotIrreducible):
            gf3m.make_field(5, (0, 0, 0, 0, 0, 1))

    def test_irreducible_but_imprimitive_rejected(self):
        # x^3 + 2x^2 + 2x + 2 is irreducible but x has order 13 < 26
        sympy = pytest.importorskip("sympy")
        mod = (2, 2, 2, 1)
        assert sympy.Poly(mod[::-1], sympy.Symbol("x"), modulus=3).is_irreducible
        with pytest.raises(NotPrimitive):
            gf3m.make_field(3, mod)

    def test_classification_matches_sympy(self):
        """Every monic modulus of degree 3 and 5 is accepted iff sympy finds it
        primitive, refused as NotIrreducible iff sympy finds it reducible, and
        as NotPrimitive otherwise.  At m = 9 a product of three distinct
        irreducible cubics has x^(3^9 - 1) = 1, so it is NotPrimitive."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_pow_mod

        x = sympy.Symbol("x")
        for m in (3, 5):
            n = 3**m - 1
            primes = sympy.factorint(n)
            for low in itertools.product(range(3), repeat=m):
                f = (*low, 1)
                powers = [gf_pow_mod([1, 0], n // p, list(f[::-1]), 3, ZZ) for p in primes]
                if not sympy.Poly(f[::-1], x, modulus=3).is_irreducible:
                    want = NotIrreducible
                elif [1] in powers:
                    want = NotPrimitive
                else:
                    assert gf3m.make_field(m, f).modulus == f
                    continue
                with pytest.raises(want):
                    gf3m.make_field(m, f)
        cubics = polyring.poly_mul(polyring.poly_mul((1, 0, 2, 1), (1, 1, 2, 1)), (1, 2, 0, 1))
        with pytest.raises(NotPrimitive):
            gf3m.make_field(9, cubics)

    def test_rejections_build_no_table(self, monkeypatch):
        """Every modulus make_field refuses is refused in GF(3)[x], before
        a FieldCtx (and its tables) is built."""

        def no_tables(*args):
            raise AssertionError("make_field built tables for a rejected modulus")

        monkeypatch.setattr(gf3m, "FieldCtx", no_tables)
        with pytest.raises(NotPrimitive):
            gf3m.make_field(3, (2, 2, 2, 1))
        with pytest.raises(NotPrimitive):
            gf3m.make_field(13, (2, 2, 1, 2, 1, 0, 1, 2, 2, 1, 2, 1, 2, 1))
        with pytest.raises(NotIrreducible):
            gf3m.make_field(5, (0, 0, 0, 0, 0, 1))
        with pytest.raises(NotIrreducible):
            gf3m.make_field(5, (1, 2, 0, 0, 1))

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

    @pytest.mark.parametrize("m, k", MODULI)
    def test_whole_exp_and_trace_tables(self, m, k):
        """Every entry, from the modulus f alone: exp[j + 1] = x * exp[j] by a
        digit shift and x^m = -sum f_i x^i; the trace table satisfies the same
        recurrence, started by Tr(1) = m and Newton's identities."""
        ctx = field(m, k)
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


# exp, log and Zech table digests of the six default moduli and two seeded
# primitive ones at each m = 3, 5, 7, 9 (the first two other than the default
# drawn by random.Random(100 + m)), recorded when the tables were built at
# construction: sha256 over each table's dtype string and bytes.
TABLE_DIGESTS = {
    "1,2,0,1": "6beff639c2370ef1",
    "1,2,0,0,0,1": "2d3d5cb5eefa965b",
    "1,0,2,0,0,0,0,1": "b9f53f3036563440",
    "1,1,2,2,0,0,0,0,0,1": "6b9a153cc13d29ef",
    "1,0,2,0,0,0,0,0,0,0,0,1": "05238c7b6478b574",
    "1,2,0,0,0,0,0,0,0,0,0,0,0,1": "6f92e13dbb14e5c2",
    "1,0,2,1": "3d3ccc8db78a5fa9",
    "1,1,2,1": "c0154d38362078c2",
    "1,2,2,0,2,1": "9ef8a464e33c9266",
    "1,1,2,0,0,1": "d7e154b8bfbede10",
    "1,2,2,1,2,2,2,1": "55381979b0d1b50f",
    "1,0,1,1,0,1,0,1": "56ec69b6c766d2d2",
    "1,0,1,1,2,0,0,0,2,1": "6e1ab17653720182",
    "1,2,1,1,0,0,2,1,2,1": "7000add8d132df85",
}


@pytest.mark.parametrize("text", sorted(TABLE_DIGESTS, key=len))
def test_tables_do_not_depend_on_the_order_of_first_reads(text):
    """Each table is built on first read: on fresh contexts, reading the Zech
    table first or the exp table first gives the same int32 tables, byte for
    byte, as building all three at construction did."""
    f = polyring.parse_poly(text)
    assert gf3m.check_modulus(len(f) - 1, f) == f
    for order in (("zech", "log", "exp"), ("exp", "zech", "log")):
        ctx = gf3m.FieldCtx(len(f) - 1, f)
        assert not {"exp", "log", "zech"} & set(vars(ctx))
        for table in order:
            getattr(ctx, table)
        digest = hashlib.sha256()
        for table in (ctx.exp, ctx.log, ctx.zech):
            assert table.dtype == np.int32
            digest.update(table.dtype.str.encode())
            digest.update(table.tobytes())
        assert digest.hexdigest()[:16] == TABLE_DIGESTS[text], order


class TestArithmetic:
    """The reference arithmetic against GF(3)[x]: its mul, power and trace
    read the exp, log and trace tables, so this checks the tables too."""

    def test_mul_exponent_wraparound(self, ctx5):
        # pi^5 * pi^240 = pi^3 (exponents add mod 242)
        got = mul(ctx5, exp_of(ctx5, 5), exp_of(ctx5, 240))
        assert got == exp_of(ctx5, 3)
        assert as_poly(ctx5, got) == polyring.poly_pow_mod(polyring.X, 245, ctx5.modulus)

    def test_mul_against_schoolbook_oracle(self, ctx5):
        """The product in GF(3)[x], reduced modulo f by sympy."""
        sympy = pytest.importorskip("sympy")
        poly = lambda f: sympy.Poly(f[::-1] or [0], sympy.Symbol("x"), modulus=3)
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(ctx5.size)
            b = rng.randrange(ctx5.size)
            product = polyring.poly_mul(as_poly(ctx5, a), as_poly(ctx5, b))
            want = sympy.rem(poly(product), poly(ctx5.modulus)).all_coeffs()
            assert mul(ctx5, a, b) == pack(polyring.normalize(reversed(want)))

    def test_pow_huge_exponents_m13(self):
        """pi^j to a power near n^2 against square-and-multiply on x: the
        exponent arithmetic must not happen in the int32 log table's type."""
        ctx = gf3m.make_field(13)
        n = ctx.order
        for j, e in [(n - 1, n * n - 3), (n - 2, n * n // 2 + 7), (n // 2 + 1, 3 * n + 5)]:
            want = polyring.poly_pow_mod(polyring.X, j * e, ctx.modulus)
            assert power(ctx, exp_of(ctx, j), e) == pack(want)

    def test_u_power_dichotomy_full_scan(self, ctx5):
        u = (3**5 + 1) // 2
        for y in range(1, ctx5.size):
            expect = y if ctx5.log[y] % 2 == 0 else neg(ctx5, y)
            assert power(ctx5, y, u) == expect

    def test_trace_basics(self, ctx5):
        assert trace(ctx5, 0) == 0
        assert trace(ctx5, 1) == 5 % 3

    def test_trace_balance(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            zeros = sum(1 for x in range(ctx.size) if trace(ctx, x) == 0)
            assert zeros == 3 ** (ctx.m - 1)

    def test_trace_against_powmod_oracle(self, ctx5):
        """The trace table against the sum of the conjugates a^(3^i), each by
        power-mod in GF(3)[x]."""
        rng = random.Random(3)
        for _ in range(50):
            a = rng.randrange(ctx5.size)
            acc = polyring.ZERO
            for i in range(ctx5.m):
                conjugate = polyring.poly_pow_mod(as_poly(ctx5, a), 3**i, ctx5.modulus)
                acc = polyring.poly_add(acc, conjugate)
            assert acc == polyring.normalize([trace(ctx5, a)])

    def test_trace_additive(self, ctx5):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.randrange(ctx5.size)
            b = rng.randrange(ctx5.size)
            assert trace(ctx5, add(ctx5, a, b)) == (trace(ctx5, a) + trace(ctx5, b)) % 3


class TestInvariants:
    def test_log_exp_round_trip(self, ctx5, ctx7):
        for ctx in (ctx5, ctx7):
            for a in range(1, ctx.size):
                assert ctx.exp[ctx.log[a]] == a
            assert ctx.log[0] == -1

    def test_frobenius_orbit_closes(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            for a in range(ctx.size):
                b = a
                for _ in range(ctx.m):
                    b = power(ctx, b, 3)
                assert b == a

    def test_vectorized_helpers_match_scalar(self, ctx5):
        """Array log_add agrees with the digit-loop reference on every
        ordered pair of nonzero elements, zero sums (log[0] = -1) included."""
        la, lb = np.meshgrid(np.arange(ctx5.order), np.arange(ctx5.order))
        got = ctx5.log_add(la.ravel(), lb.ravel())
        for x, y, z in zip(la.ravel().tolist(), lb.ravel().tolist(), got.tolist()):
            assert z == ctx5.log[add(ctx5, exp_of(ctx5, x), exp_of(ctx5, y))]

    @pytest.mark.parametrize("lo, hi", [(0, 26), (5, 26), (25, 26), (26, 26)])
    @pytest.mark.parametrize("source", ["range", "orbit_reps"])
    def test_scan_logs_blocks(self, ctx3, source, lo, hi, monkeypatch):
        """Blocks of at most BLOCK positions cover the positions in order, with
        the logs (e*t + c) mod n per term, for e and c past n too: the range
        [lo, hi), or the slice of orbit_reps in it, an int64 array."""
        monkeypatch.setattr(gf3m, "BLOCK", 3)
        reps = ctx3.orbit_reps
        first, last = np.searchsorted(reps, (lo, hi))
        positions = range(lo, hi) if source == "range" else reps[first:last]
        terms = [(14, 0), (1, 13), (40, 30)]
        blocks = list(ctx3.scan_logs(positions, *terms))
        assert all(0 < len(t) <= 3 and t.dtype == np.int64 for t, _ in blocks)
        t = np.concatenate([t for t, _ in blocks] or [[]])
        assert t.tolist() == list(positions)
        for i, (e, c) in enumerate(terms):
            logs = np.concatenate([logs[i] for _, logs in blocks] or [[]])
            assert logs.tolist() == [(e * j + c) % 26 for j in positions]

    def test_zech_block_size_does_not_change_the_tables(self, monkeypatch):
        """The exp, log and Zech tables and the orbit representatives are
        built in blocks of gf3m.BLOCK over [0, n): neither 7 nor 37 divides
        n = 242, so the last block is short, and 11 does (242 = 2 * 11^2)."""
        custom = (1, 1, 1, 1, 2, 1)  # not the default, so not cached
        whole = gf3m.make_field(5, custom)
        for block in (7, 11, 37):
            monkeypatch.setattr(gf3m, "BLOCK", block)
            blocked = gf3m.make_field(5, custom)
            for table in ("exp", "log", "zech", "trace_by_log", "orbit_reps"):
                assert np.array_equal(getattr(blocked, table), getattr(whole, table)), table

    @pytest.mark.parametrize("m, k", MODULI)
    def test_zech_against_direct_reference(self, m, k):
        """zech[k] = log(1 + pi^k) at every k: digit 0 of exp[k] goes to its
        successor mod 3, computed in int64 and with no table of steps."""
        ctx = field(m, k)
        elem = ctx.exp.astype(np.int64)
        digit0 = elem % 3
        one_plus = elem - digit0 + (digit0 + 1) % 3
        assert np.array_equal(ctx.zech, ctx.log[one_plus])

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_orbit_reps_are_the_least_of_each_orbit(self, m):
        """orbit_reps against the brute-force min(t*3^k mod n), and the orbits
        of the representatives cover [0, n) once each."""
        ctx = gf3m.make_field(m)
        n = ctx.order
        t = least = np.arange(n, dtype=np.int64)
        for _ in range(m):
            t = t * 3 % n
            least = np.minimum(least, t)
        assert ctx.orbit_reps.dtype == np.int64
        assert np.array_equal(ctx.orbit_reps, np.unique(least))
        orbits = [j for r in ctx.orbit_reps.tolist() for j in polyring.cyclotomic_coset(r, m)]
        assert sorted(orbits) == list(range(n))

    def test_orbit_reps_m13(self):
        """One representative per necklace of 13 trits but 22...2 (t = n), by
        Burnside: 13 is prime, so (3^13 + 12*3)/13 - 1 = 122,642."""
        reps = gf3m.make_field(13).orbit_reps
        assert len(reps) == (3**13 + 12 * 3) // 13 - 1 == 122642
        assert reps[0] == 0 and np.all(np.diff(reps) > 0)

    def test_lincomb3_exact_at_max_m(self):
        """The table builds sum up to MAX_M trit products in int8 by
        gf3m._lincomb3, whose _mod3 is exact only below 54: its worst case,
        MAX_M rows of 2 times 2, sums to 4*MAX_M (1 mod 3 at 13; at 14 and
        15 it gives 5 and 9).  A larger MAX_M needs another reduction first."""
        rows = [np.full(3, 2, dtype=np.int8)] * gf3m.MAX_M
        got = gf3m._lincomb3([2] * gf3m.MAX_M, rows)
        assert got.tolist() == [4 * gf3m.MAX_M % 3] * 3
