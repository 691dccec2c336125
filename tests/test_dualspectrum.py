import random
from collections import Counter
from math import comb

import numpy as np
import pytest

from tritcodes import dualspectrum
from tritcodes.cli import DEFAULT_BUDGET, main
from tritcodes.codebuilder import exponent_pair
from tritcodes.distance import macwilliams
from tritcodes.dualspectrum import (
    direct_enumerator,
    enumerators,
    spectral_enumerator,
    weight_value_set,
)
from tritcodes.gf3m import DEFAULT_MODULI, FieldCtx, make_field

from conftest import ENUM_M5, ENUM_M7, ENUM_M9, seeded_primitive_moduli, spectral_enum, transform
from reference import dual_codeword_weight, exp_of, fhat, log, neg, window_enumerator

# Windows the direct path reads: half the Frobenius orbit representatives
WINDOWS = {3: 5, 5: 25, 7: 157, 9: 1097, 11: 8053, 13: 61321}


class TestCodewordWeight:
    def test_zero_pair(self, ctx3):
        assert dual_codeword_weight(0, 0, ctx3) == 0

    def test_boundary_pairs(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            mid = 2 * 3 ** (ctx.m - 1)
            assert dual_codeword_weight(0, exp_of(ctx, 5), ctx) == mid
            assert dual_codeword_weight(exp_of(ctx, 9), 0, ctx) == mid


class TestFhat:
    def test_at_zero(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            assert fhat(0, ctx) == (0, 0)

    @pytest.mark.parametrize("m", [3, 5])
    def test_value_set_and_parseval(self, m):
        ctx = make_field(m)
        allowed = {0, 3 ** (ctx.ell + 1), -(3 ** (ctx.ell + 1))}
        total_norm = 0
        for lam in range(ctx.size):
            p, q = fhat(lam, ctx)
            assert q == 0
            assert p in allowed
            total_norm += p * p - p * q + q * q
        assert total_norm == 3 ** (2 * m)

    def test_value_set_m7(self, ctx7):
        allowed = {0, 81, -81}
        for j in range(ctx7.order):
            p, q = fhat(exp_of(ctx7, j), ctx7)
            assert q == 0 and p in allowed

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_transform_matches_single_point_everywhere(self, m):
        ctx = make_field(m)
        assert [(int(p), 0) for p in transform(m)] == [
            fhat(exp_of(ctx, s), ctx) for s in range(ctx.order)
        ]

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
    def test_transform_value_distribution(self, m):
        """fhat takes 0, +3^(ell+1) and -3^(ell+1), with the frequencies of
        the three-valued ternary Welch-type cross-correlation."""
        ctx = make_field(m)
        values, counts = np.unique(transform(m), return_counts=True)
        top, third, low = 3 ** (ctx.ell + 1), 3 ** (m - 1), 3**ctx.ell
        assert dict(zip(values.tolist(), counts.tolist())) == {
            0: 2 * third - 1,
            top: (third + low) // 2,
            -top: (third - low) // 2,
        }

    @pytest.mark.parametrize("m", [11, 13])
    def test_transform_matches_single_point_sampled(self, m):
        ctx = make_field(m)
        values = transform(m)
        rng = random.Random(m)
        for s in [0, ctx.half] + [rng.randrange(ctx.order) for _ in range(16)]:
            assert fhat(exp_of(ctx, s), ctx) == (int(values[s]), 0), s


class TestEnumerators:
    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_path_equivalence(self, m):
        """The window count and the Walsh transform agree under the default
        modulus and two seeded primitive ones, whose trace sequences differ."""
        moduli = seeded_primitive_moduli(m, 2, seed=m)
        assert DEFAULT_MODULI[m] not in moduli
        for modulus in (DEFAULT_MODULI[m], *moduli):
            ctx = make_field(m, modulus)
            assert direct_enumerator(ctx) == spectral_enumerator(ctx), modulus

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_orbit_windows_count_as_every_window(self, m):
        """The direct path reads one window per Frobenius x h-shift orbit; the
        reference reads all n, under the moduli of test_path_equivalence."""
        for modulus in (DEFAULT_MODULI[m], *seeded_primitive_moduli(m, 2, seed=m)):
            ctx = make_field(m, modulus)
            assert direct_enumerator(ctx) == window_enumerator(ctx), modulus

    @pytest.mark.parametrize("m", range(3, 15, 2))
    def test_kept_windows(self, m):
        """The direct path reads the window of each even orbit representative
        r: half of them, as the least rotation of r + h is a representative of
        the other parity, and r -> that rotation permutes the representatives."""
        ctx = make_field(m)
        reps, n = ctx.orbit_reps, ctx.order
        partner = ((reps + ctx.half) % n * 3 ** np.arange(m)[:, None] % n).min(axis=0)
        assert np.count_nonzero(reps % 2 == 0) == len(reps) // 2 == WINDOWS[m]
        assert np.all((reps - partner) % 2 == 1)
        assert np.array_equal(np.sort(partner), reps)

    @pytest.mark.parametrize("m", range(3, 15, 2))
    def test_direct_estimate_never_below_spectral(self, m):
        """The direct path's estimate, windows * n trace comparisons, comes
        from the necklace count alone, with no context built, and is never
        below the spectral path's m*3^m operations."""
        n = 3**m - 1
        assert dualspectrum._direct_work(m) == WINDOWS[m] * n >= m * 3**m

    def test_enumerators_run_the_paths_asked_for(self, ctx3, capsys):
        """The budget alone asks: both paths run when the direct estimate fits
        it; else the direct one is None, a note says why, and agree is None."""
        enums, agree = enumerators(ctx3, DEFAULT_BUDGET)
        assert ([*enums], agree) == (["spectral", "direct"], True)
        assert enums["direct"] == enums["spectral"]
        assert capsys.readouterr().err == ""
        enums, agree = enumerators(ctx3, budget=1)
        assert (enums["direct"], agree) == (None, None)
        assert enums["spectral"] == spectral_enumerator(ctx3)
        assert capsys.readouterr().err == (
            "note: skipped: direct enumeration needs ~1.30e+02 trace comparisons (budget 1)\n"
        )

    def test_example1(self, enum5):
        assert enum5.counts == ENUM_M5

    def test_example2(self, enum7):
        assert enum7.counts == ENUM_M7

    def test_example3(self, enum9):
        assert enum9.counts == ENUM_M9

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_producers_leave_out_zero_counts(self, m):
        """WeightEnumerator holds no zero count: the direct histogram has n + 1
        bins and MacWilliams gives A'_1 = A'_2 = A'_3 = 0, and both drop them."""
        ctx = make_field(m)
        spectral = spectral_enumerator(ctx)
        low = macwilliams(spectral, max_weight=4)
        for enum in (direct_enumerator(ctx), spectral, low):
            assert 0 not in enum.counts.values()
        assert set(low.counts) == {0, 4}

    def test_m3_direct_support(self, ctx3):
        enum = direct_enumerator(ctx3)
        assert enum.counts.keys() <= weight_value_set(3)
        assert enum.total == 3**6
        assert enum.counts[0] == 1


class TestStructuralProperties:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
    def test_totals_and_moments(self, m):
        """Pless power moments j = 0..3, which hold because C has no codeword
        of weight 1, 2 or 3; j = 0 is the total, j = 1 the first moment."""
        enum = spectral_enum(m)
        n = 3**m - 1
        assert enum.counts.keys() <= weight_value_set(m)
        for j in range(4):
            moment = sum(c * comb(n - w, j) for w, c in enum.counts.items())
            assert moment == 3 ** (2 * m - j) * comb(n, j), j

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
    def test_class_counts_divisible(self, m):
        n = 3**m - 1
        mid = 2 * 3 ** (m - 1)
        for w, c in spectral_enum(m).counts.items():
            if w == 0:
                continue
            boundary = 2 * n if w == mid else 0
            assert (c - boundary) % n == 0

    def test_spectral_class_counts_m5(self, enum5):
        n = 242
        mid = 162
        classes = {
            w: (c - (2 * n if w == mid else 0)) // n
            for w, c in enum5.counts.items()
            if w
        }
        assert classes == {144: 10, 153: 50, 162: 140, 171: 32, 180: 10}
        assert sum(classes.values()) == n

    def test_fhat_pair_sums_divisible_by_three(self, ctx3, ctx5):
        for ctx in (ctx3, ctx5):
            for j in range(ctx.order):
                lam = exp_of(ctx, j)
                (p1, q1), (p2, q2) = fhat(lam, ctx), fhat(neg(ctx, lam), ctx)
                assert q1 + q2 == 0 and (p1 + p2) % 3 == 0

    def test_spectral_matches_per_pair_weights(self, ctx3):
        """Spot-check: class weight formula equals the definition-level weight."""
        _, v = exponent_pair(ctx3.m)
        n = ctx3.order
        vinv = pow(v, -1, n)
        rng = random.Random(1)
        mid = 2 * 3 ** (ctx3.m - 1)
        for _ in range(20):
            a = rng.randrange(1, ctx3.size)
            b = rng.randrange(1, ctx3.size)
            lam = exp_of(ctx3, int(log(ctx3)[a]) - vinv * int(log(ctx3)[b]))
            pair_sum = fhat(lam, ctx3)[0] + fhat(neg(ctx3, lam), ctx3)[0]
            assert dual_codeword_weight(a, b, ctx3) == mid - pair_sum // 3


def test_weight_value_set_examples():
    assert weight_value_set(5) == {0, 144, 153, 162, 171, 180}
    assert weight_value_set(7) == {0, 1404, 1431, 1458, 1485, 1512}
    assert weight_value_set(3) == {0, 12, 15, 18, 21, 24}
    with pytest.raises(ValueError):
        weight_value_set(4)


def test_spectral_enumerator_builds_only_the_exp_and_trace_tables():
    """On a fresh context the spectral path reads the exp and trace tables
    only: the Zech table and the orbit representatives stay unbuilt."""
    ctx = FieldCtx(5, DEFAULT_MODULI[5])
    assert spectral_enumerator(ctx).counts == ENUM_M5
    tables = {"exp", "zech", "trace_by_log", "orbit_reps"}
    assert tables & set(vars(ctx)) == {"exp", "trace_by_log"}


def test_direct_enumerator_builds_only_the_trace_table():
    """On a fresh context (a primitive modulus other than the default, so
    not cached) the direct path reads the trace table and, for its windows,
    the orbit representatives: the exp and Zech tables stay unbuilt."""
    ctx = make_field(5, (1, 1, 1, 1, 2, 1))
    assert direct_enumerator(ctx).counts == ENUM_M5
    tables = {"exp", "zech", "trace_by_log", "orbit_reps"}
    assert tables & set(vars(ctx)) == {"trace_by_log", "orbit_reps"}


def test_frobenius_check_refuses_a_foreign_trace_table(capsys, monkeypatch):
    """The default m = 5 context with the trace table of x^5 + x^4 + x^2 + 1:
    its pair sums fhat(lam) + fhat(-lam) take each value as often as the
    right ones, so they give ENUM_M5 and the fixture's bytes, but
    fhat(pi^(3s)) = fhat(pi^s) fails at s = 5, and report --m 5 exits 1 with
    nothing on stdout."""
    ctx = make_field(5)
    monkeypatch.setattr(ctx, "trace_by_log", make_field(5, (1, 0, 1, 0, 1, 1)).trace_by_log)
    fr = dualspectrum._fhat_all(ctx)
    pair_sums = Counter((fr + np.roll(fr, -ctx.half)).tolist())
    assert pair_sums == Counter((transform(5) + np.roll(transform(5), -ctx.half)).tolist())
    assert fr[15] != fr[5]
    assert main(["report", "--m", "5"]) == 1
    assert capsys.readouterr() == ("", "error: Inconsistent: fhat(pi^15) != fhat(pi^5)\n")
