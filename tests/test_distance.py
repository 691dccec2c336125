import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from tritcodes import (
    WeightEnumerator,
    brute_force_min_weight,
    build_code,
    conclude_distance,
    macwilliams,
    make_field,
    spectral_enumerator,
    weight2_search,
    weight3_search,
)
from tritcodes import distance, polyring
from tritcodes.distance import weight4_witness
from tritcodes.exceptions import BudgetExceeded, Inconsistent, NonIntegerOutput
from tritcodes.codebuilder import exponent_pair, is_codeword

from conftest import ENUM_M5


def relaxed(code):
    """C_(u,u): the v equations repeat the u ones (positive control)."""
    return replace(code, v=code.u)


def u_power_solutions(s, ctx):
    """All y with y^u = s, by brute-force scan (oracle for the candidate logic)."""
    u, _ = exponent_pair(ctx.m)
    return [y for y in range(1, ctx.size) if ctx.pow(y, u) == s]


def naive_min_weight(code, wmax):
    """Lexicographically first codeword of weight <= wmax, one word at a time.

    Supports in itertools order, leading coefficient 1, syndromes
    sum(c_i * pi^(e t_i)) for e in {u, v} from scalar ctx.add / ctx.smul.
    """
    ctx = code.ctx
    for w in range(1, wmax + 1):
        for support in itertools.combinations(range(code.n), w):
            for tail in itertools.product((1, 2), repeat=w - 1):
                coeffs = (1, *tail)
                if all(
                    _syndrome(ctx, e, support, coeffs) == 0 for e in (code.u, code.v)
                ):
                    return (w, list(support), list(coeffs))
    return None


def _syndrome(ctx, e, support, coeffs):
    acc = 0
    for t, c in zip(support, coeffs):
        acc = ctx.add(acc, ctx.smul(c, ctx.exp_of(e * t)))
    return acc


class TestWeight2:
    def test_no_witness(self, code3, code5, code7):
        for code in (code3, code5, code7):
            assert weight2_search(code) is None

    def test_relaxed_system_has_witnesses(self, code3):
        wit = weight2_search(relaxed(code3))
        assert wit is not None
        # delta is a nonsquare with c = 1: delta^u = -delta = -1 means delta = 1,
        # so the c=1 witnesses are exactly delta with delta^u = -1
        ctx = code3.ctx
        t2 = wit["support"][1]
        c2 = wit["coefficients"][1]
        delta_u = ctx.pow(ctx.exp_of(t2), code3.u)
        assert ctx.smul(c2, delta_u) == ctx.neg(1)


class TestWeight3:
    def test_no_witness(self, code3, code5, code7):
        for code in (code3, code5, code7):
            assert weight3_search(code) is None

    def test_relaxed_system_has_witnesses(self, code3, code5, code7):
        """Reported weight-2/3 words have zero u- and v-syndromes (C_(u,u), C_(u,1))."""
        for code in (code3, code5, code7):
            for variant in (relaxed(code), replace(code, v=1)):
                wits = [weight2_search(variant), weight3_search(variant)]
                assert wits[1] is not None
                for wit in filter(None, wits):
                    support, coeffs = wit["support"], wit["coefficients"]
                    assert support[0] == 0 and coeffs[0] == 1
                    assert support == sorted(set(support))
                    for e in (variant.u, variant.v):
                        assert _syndrome(variant.ctx, e, support, coeffs) == 0

    def test_candidate_logic_exhaustive(self, ctx3):
        """Solutions of y^u = s are exactly {s, -s} for squares, else empty."""
        for s in range(1, ctx3.size):
            brute = set(u_power_solutions(s, ctx3))
            if ctx3.log_of(s) % 2 == 0:
                assert brute == {s, ctx3.neg(s)}
            else:
                assert brute == set()


class TestOracle:
    def test_m3_wmax3_empty(self, code3):
        assert brute_force_min_weight(code3, 3) is None

    def test_m5_wmax3_empty(self, code5):
        assert brute_force_min_weight(code5, 3) is None

    def test_m3_wmax4_finds_witness(self, code3):
        hit = brute_force_min_weight(code3, 4)
        assert hit is not None
        w, support, coeffs = hit
        assert w == 4
        word = [0] * code3.n
        for t, c in zip(support, coeffs):
            word[t] = c
        assert is_codeword(word, code3)

    @pytest.mark.parametrize("wmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", ["code", "u", 1, 5])
    def test_matches_naive_search_m3(self, code3, v, wmax):
        """Same word as a naive lexicographic search, ties included (v = 5, wmax = 4)."""
        code = replace(code3, v={"code": code3.v, "u": code3.u}.get(v, v))
        assert brute_force_min_weight(code, wmax) == naive_min_weight(code, wmax)

    def test_wmax_out_of_range(self, code3):
        for wmax in (0, 5):
            with pytest.raises(ValueError):
                brute_force_min_weight(code3, wmax)

    def test_budget_rejected(self, code7):
        with pytest.raises(BudgetExceeded):
            brute_force_min_weight(code7, 3, budget=10**6)

    def test_relaxed_agreement(self, code3):
        """Relaxed C_(u,u): structured and direct scans agree on existence."""
        ctx = code3.ctx
        wit = weight2_search(relaxed(code3))
        assert wit is not None
        # direct scan of the u-syndrome over weight-2 patterns
        found = False
        for t2 in range(1, code3.n):
            for c2 in (1, 2):
                s = ctx.add(ctx.exp_of(0), ctx.smul(c2, ctx.exp_of(code3.u * t2)))
                if s == 0:
                    found = True
        assert found


class TestWeight4Witness:
    def test_found_and_verified(self, code3, code5, code7):
        for code in (code3, code5, code7):
            wit = weight4_witness(code)
            assert wit is not None
            word = [0] * code.n
            for t, c in zip(wit["support"], wit["coefficients"]):
                word[t] = c
            assert is_codeword(word, code)

    # Witnesses found by earlier implementations of the search (digit
    # arithmetic for m = 11, 13); every rewrite must reproduce them exactly.
    PINNED = {
        9: {"support": [0, 1, 482, 9610], "coefficients": [1, 1, 1, 2]},
        11: {"support": [0, 1, 57062, 155742], "coefficients": [1, 2, 1, 2]},
        13: {"support": [0, 1, 649602, 1204120], "coefficients": [1, 1, 1, 2]},
    }

    @pytest.mark.parametrize("m", [9, 11, 13])
    def test_pinned_witness(self, m):
        code = build_code(make_field(m))
        assert weight4_witness(code) == self.PINNED[m]

    def test_flipped_coefficient_rejected_m13(self):
        code = build_code(make_field(13))
        wit = self.PINNED[13]
        word = np.zeros(code.n, dtype=np.int8)
        word[wit["support"]] = wit["coefficients"]
        assert is_codeword(word, code)
        word[wit["support"][-1]] = 3 - wit["coefficients"][-1]
        assert not is_codeword(word, code)

    def test_matches_oracle_weight_m3(self, code3):
        wit = weight4_witness(code3)
        oracle = brute_force_min_weight(code3, 4)
        assert oracle[0] == len(wit["support"]) == 4


class TestMacWilliams:
    def test_zero_code_gives_full_space(self):
        from math import comb

        n = 8
        enum = WeightEnumerator(n=n, counts={0: 1})
        dual = macwilliams(enum)
        assert dual.counts == {w: comb(n, w) * 2**w for w in range(n + 1)}

    def test_involution(self, ctx3):
        from tritcodes import direct_enumerator

        enum = direct_enumerator(ctx3)
        dual = macwilliams(enum)
        back = macwilliams(dual)
        assert back == enum

    def test_example1_dual_transform(self):
        enum = WeightEnumerator(n=242, counts=dict(ENUM_M5))
        code_side = macwilliams(enum, max_weight=4)
        assert code_side.counts.get(0) == 1
        for j in (1, 2, 3):
            assert code_side.counts.get(j, 0) == 0
        assert code_side.counts[4] > 0

    def test_invalid_enumerator_rejected(self):
        bad = WeightEnumerator(n=8, counts={0: 1, 3: 5})
        with pytest.raises(NonIntegerOutput):
            macwilliams(bad)

    def test_low_weight_transform_of_computed_enums(self, enum5, enum7, enum9):
        for enum in (enum5, enum7, enum9):
            mw = macwilliams(enum, max_weight=4)
            assert all(mw.counts.get(j, 0) == 0 for j in (1, 2, 3))
            assert mw.counts[4] > 0


class TestConcludeDistance:
    def test_m3(self, code3):
        report = conclude_distance(code3)
        assert report.concluded_d == 4
        assert report.oracle_checked

    def test_m5(self, code5, enum5):
        report = conclude_distance(code5, dual_enum=enum5)
        assert report.concluded_d == 4
        assert (code5.n, code5.k) == (242, 232)
        assert macwilliams(enum5, max_weight=4).counts[4] > 0

    def test_m7(self, code7, enum7):
        report = conclude_distance(code7, dual_enum=enum7)
        assert report.concluded_d == 4
        assert (code7.n, code7.k) == (2186, 2172)
        assert not report.oracle_checked  # weight-3 enumeration over budget

    @pytest.mark.parametrize("m", [3, 5])
    def test_weight3_found_both_ways_on_u1_code(self, m):
        """On C_(u,1) the oracle and the structured search must both find weight 3."""
        code = replace(build_code(make_field(m)), v=1)
        report = conclude_distance(code)
        assert report.oracle_checked
        assert brute_force_min_weight(code, 3)[0] == 3
        assert len(report.witness["support"]) == 3  # so weight2_search found none
        assert report.concluded_d is None

    @pytest.mark.parametrize("v", [1, 2, 4, 5, 7, 13, "u"])
    @pytest.mark.parametrize("m", [3, 5])
    def test_structured_weight_matches_oracle(self, m, v):
        """Any v, including gcd(v, n) > 1: the searches find the oracle's weight."""
        code = build_code(make_field(m))
        code = replace(code, v=code.u if v == "u" else v)
        report = conclude_distance(code)  # raises Inconsistent on disagreement
        assert report.oracle_checked
        structured = 2 if weight2_search(code) else 3 if weight3_search(code) else None
        oracle = brute_force_min_weight(code, 3)
        assert structured == (oracle[0] if oracle else None)

    def test_disagreement_raises_inconsistent(self, code3, monkeypatch):
        monkeypatch.setattr(distance, "weight3_search", lambda code: None)
        with pytest.raises(Inconsistent):
            conclude_distance(replace(code3, v=1))

    def test_macwilliams_disagreement_raises_both_ways(self, ctx3, code3, monkeypatch):
        """MacWilliams must find the searches' lightest weight <= 3, or none."""
        code = replace(code3, v=1)
        # dual of C_(u,1) by Delsarte: the words (Tr(a*pi^(u t) + b*pi^t))_t
        t = np.arange(code.n)
        rows = {
            e: [np.zeros(code.n, dtype=np.int8)]
            + [ctx3.trace_by_log[(s + e * t) % code.n] for s in range(code.n)]
            for e in (code.u, 1)
        }
        weights = Counter(
            int(np.count_nonzero((a + b) % 3)) for a in rows[code.u] for b in rows[1]
        )
        dual = WeightEnumerator(n=code.n, counts=dict(weights))
        # budget=1 skips the oracle, so only MacWilliams can disagree
        assert conclude_distance(code, dual_enum=dual, budget=1).concluded_d is None
        with pytest.raises(Inconsistent):  # searches find weight 3, MacWilliams none
            conclude_distance(code, dual_enum=spectral_enumerator(ctx3), budget=1)
        monkeypatch.setattr(distance, "weight3_search", lambda code: None)
        with pytest.raises(Inconsistent):  # MacWilliams finds weight 3, searches none
            conclude_distance(code, dual_enum=dual, budget=1)

    def test_dual_enumerator_of_another_length_rejected(self, code3, enum5):
        with pytest.raises(ValueError):
            conclude_distance(code3, dual_enum=enum5)

    def test_json_shape(self, code3):
        doc = conclude_distance(code3).to_json_dict()
        assert set(doc) == {
            "d",
            "sphere_packing_ceiling",
            "weight_le3_witness",
            "weight4_support",
        }
        assert doc["d"] == 4
        assert doc["weight_le3_witness"] is None
        assert len(doc["weight4_support"]) == 4


class TestBlockedCompletions:
    @pytest.mark.parametrize("m, block", [(3, 7), (5, 37)])
    @pytest.mark.parametrize("variant", ["v=u", "v=1"])
    def test_block_size_does_not_change_hits(self, m, block, variant, monkeypatch):
        """Blocks of a few positions give the default (single-block) hit lists,
        in the same order, for weights 2, 3 and 4."""
        code = build_code(make_field(m))
        code = relaxed(code) if variant == "v=u" else replace(code, v=1)
        want = {w: list(distance._completions(code, w)) for w in (2, 3, 4)}
        assert want[3] and want[4]
        monkeypatch.setattr(distance, "BLOCK", block)
        assert {w: list(distance._completions(code, w)) for w in (2, 3, 4)} == want

    @pytest.mark.parametrize("variant", ["v=u", "v=1"])
    def test_hits_near_the_end_m13(self, variant):
        """Weight-3 hits of the relaxed m = 13 codes, those with t_3 nearest
        n - 1 among the first 300, have zero syndromes by GF(3)[x] arithmetic
        on Python ints: a log product computed in int32 would wrap silently."""
        code = build_code(make_field(13))
        code = relaxed(code) if variant == "v=u" else replace(code, v=1)
        hits = list(itertools.islice(distance._completions(code, 3), 300))
        hits.sort(key=lambda hit: -hit["support"][2])
        assert hits[0]["support"][2] > code.n - 2**16
        for hit in hits[:12]:
            for e in (code.u, code.v):
                acc = polyring.ZERO
                for t, c in zip(hit["support"], hit["coefficients"]):
                    term = polyring.poly_pow_mod(polyring.X, e * t, code.ctx.modulus)
                    acc = polyring.poly_add(acc, polyring.poly_mul((c,), term))
                assert acc == polyring.ZERO
