import itertools
import tracemalloc
from collections import Counter
from math import gcd

import numpy as np
import pytest

from tritcodes import distance, gf3m, polyring
from tritcodes.cli import main
from tritcodes.distance import (
    brute_force_min_weight,
    conclude_distance,
    is_codeword,
    macwilliams,
    weight2_search,
    weight3_search,
    weight4_witness,
)
from tritcodes.dualspectrum import WeightEnumerator, spectral_enumerator
from tritcodes.exceptions import Inconsistent
from tritcodes.codebuilder import build_code, exponent_pair
from tritcodes.gf3m import make_field

from conftest import ENUM_M5, spectral_enum
from reference import add, exp_of, log, neg, power, smul


def with_v(code, v):
    """C_(u,v) for another v, with the generator lcm(m_u, m_v) that
    is_codeword, and so weight4_witness, divides by."""
    m_u, m_v = (polyring.minimal_polynomial(e, code.ctx.modulus) for e in (code.u, v))
    gen = m_u if m_u == m_v else polyring.poly_mul(m_u, m_v)
    return code._replace(v=v, gen=gen, k=code.n - polyring.degree(gen))


def relaxed(code):
    """C_(1,1): the v equations repeat the u ones (positive control).  It holds
    1 + x^(n/2) and words of weight 3 and 4; C_(u,u) has gcd(u, n) = 2, which
    the searches refuse."""
    return with_v(code._replace(u=1), 1)


def coprime_vs(code):
    """Every v in [1, n) with gcd(v, n) = 1, the codes the searches accept."""
    return [v for v in range(1, code.n) if gcd(v, code.n) == 1]


def flipped(hit):
    """The hit with its last coefficient c replaced by 3 - c."""
    *coeffs, last = hit["coefficients"]
    return {"support": hit["support"], "coefficients": [*coeffs, 3 - last]}


def u_power_solutions(s, ctx):
    """All y with y^u = s, by brute-force scan (oracle for the candidate logic)."""
    u, _ = exponent_pair(ctx.m)
    return [y for y in range(1, ctx.size) if power(ctx, y, u) == s]


def naive_min_weight(code, wmax):
    """Lexicographically first codeword of weight <= wmax, one word at a time.

    Supports in itertools order, leading coefficient 1, syndromes
    sum(c_i * pi^(e t_i)) for e in {u, v} by the digit-wise reference add
    and smul, which read no Zech table.
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


def scalar_weight3_words(code):
    """Every (a, c_a, b, c_b) such that 1 at position 0, c_a at a and c_b at b
    form a codeword, by the digit-wise reference add and smul: each word once
    per order of a and b.  Every weight-3 word is a cyclic shift of a scalar
    multiple of one of these.  For each (a, c_a) the last term c_b*pi^(e b)
    must be -(1 + c_a*pi^(e a)) for e = u and v; it is looked up among all
    (b, c_b) with b != 0."""
    ctx = code.ctx
    last = {}
    for b in range(1, code.n):
        for cb in (1, 2):
            key = tuple(smul(ctx, cb, exp_of(ctx, e * b)) for e in (code.u, code.v))
            last.setdefault(key, []).append((b, cb))
    words = []
    for a in range(1, code.n):
        for ca in (1, 2):
            need = tuple(
                neg(ctx, add(ctx, 1, smul(ctx, ca, exp_of(ctx, e * a)))) for e in (code.u, code.v)
            )
            words += [(a, ca, b, cb) for b, cb in last.get(need, ()) if b != a]
    return words


def scalar_lightest(code):
    """The lightest weight <= 3 of a nonzero codeword, or None, by the
    digit-wise reference arithmetic: weight 1 is impossible, a weight-2 word
    scales and shifts to 1 at position 0, and scalar_weight3_words lists
    the weight-3 ones."""
    if any(
        all(_syndrome(code.ctx, e, [0, t], [1, c]) == 0 for e in (code.u, code.v))
        for t in range(1, code.n)
        for c in (1, 2)
    ):
        return 2
    return 3 if scalar_weight3_words(code) else None


def _syndrome(ctx, e, support, coeffs):
    acc = 0
    for t, c in zip(support, coeffs):
        acc = add(ctx, acc, smul(ctx, c, exp_of(ctx, e * t)))
    return acc


class TestWeight2:
    def test_no_witness(self, code3, code5, code7):
        for code in (code3, code5, code7):
            assert weight2_search(code) is None

    def test_relaxed_system_has_witnesses(self, code3):
        """On C_(1,1) a weight-2 word 1 + c_2*x^t_2 needs c_2*pi^t_2 = -1: the
        first is 1 + x^(n/2)."""
        variant = relaxed(code3)
        wit = weight2_search(variant)
        assert wit == {"support": [0, code3.n // 2], "coefficients": [1, 1]}
        ctx = code3.ctx
        t2, c2 = wit["support"][1], wit["coefficients"][1]
        assert smul(ctx, c2, power(ctx, exp_of(ctx, t2), variant.u)) == neg(ctx, 1)

    @pytest.mark.parametrize("search", [weight2_search, weight3_search, weight4_witness])
    def test_refuses_v_not_prime_to_n(self, code3, search):
        """The kernel solves v*t_w = L (mod n) by the inverse of v: C_(u,u),
        with gcd(u, n) = 2, is library misuse, a ValueError."""
        with pytest.raises(ValueError, match="not invertible"):
            search(with_v(code3, code3.u))


class TestWeight3:
    def test_no_witness(self, code3, code5, code7):
        for code in (code3, code5, code7):
            assert weight3_search(code) is None

    def test_relaxed_system_has_witnesses(self, code3, code5, code7):
        """Reported weight-2/3 words have zero u- and v-syndromes (C_(1,1), C_(u,1))."""
        for code in (code3, code5, code7):
            for variant in (relaxed(code), code._replace(v=1)):
                wits = [weight2_search(variant), weight3_search(variant)]
                assert wits[1] is not None
                for wit in filter(None, wits):
                    support, coeffs = wit["support"], wit["coefficients"]
                    assert support[0] == 0 and coeffs[0] == 1
                    assert support == sorted(set(support))
                    for e in (variant.u, variant.v):
                        assert _syndrome(variant.ctx, e, support, coeffs) == 0

    @staticmethod
    def check_orbit_scan(code):
        """weight3_search finds a word exactly when a scalar scan of all
        weight-3 words does.  The orbit scan lists each scalar word whose
        smaller position is an orbit representative once, with that position
        in the middle."""
        reps = set(code.ctx.orbit_reps.tolist())
        words = scalar_weight3_words(code)
        assert (weight3_search(code) is not None) == bool(words)
        want = Counter()
        for a, ca, b, cb in words:
            if a in reps and b > a:
                want[(0, a, b), (1, ca, cb)] += 1
        got = Counter(
            (tuple(hit["support"]), tuple(hit["coefficients"]))
            for hit in distance._weight3_words(code)
        )
        assert got == want

    def test_orbit_scan_every_v_m3(self, code3):
        for v in coprime_vs(code3):
            self.check_orbit_scan(code3._replace(v=v))

    @pytest.mark.parametrize("v", ["code", "u", 1])
    def test_orbit_scan_m5(self, code5, v):
        """v = u is C_(1,1)."""
        code = {"code": code5, "u": relaxed(code5)}.get(v) or code5._replace(v=v)
        self.check_orbit_scan(code)

    @pytest.mark.parametrize("search", [weight3_search, weight4_witness])
    def test_memory_m13(self, search):
        """The orbit representatives and the scans are built in blocks: on a
        context without cached representatives, the tracemalloc peak of the
        m = 13 weight-3 search and weight-4 witness stays a few MiB (an
        unblocked build holds several arrays of n int64 entries, 12 MiB
        each; a kernel that kept its last block across a yield, over 8 MiB).
        The fresh context's exp and Zech tables, built on first read, are
        read before the window opens."""
        code = build_code(make_field(13))
        code = code._replace(ctx=gf3m.FieldCtx(13, code.ctx.modulus))
        code.ctx.exp, code.ctx.zech
        tracemalloc.start()
        try:
            found = search(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == (None if search is weight3_search else TestWeight4Witness.PINNED[13])
        assert peak < 8 * 2**20

    def test_candidate_logic_exhaustive(self, ctx3):
        """Solutions of y^u = s are exactly {s, -s} for squares, else empty."""
        for s in range(1, ctx3.size):
            brute = set(u_power_solutions(s, ctx3))
            if log(ctx3)[s] % 2 == 0:
                assert brute == {s, neg(ctx3, s)}
            else:
                assert brute == set()


class TestOracle:
    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_wmax3_empty(self, m):
        """d >= 4 by the oracle at every m up to 11."""
        assert brute_force_min_weight(build_code(make_field(m)), 3) is None

    @pytest.mark.parametrize("wmax", [1, 2, 3])
    @pytest.mark.parametrize("v", ["code", "u", 1, 5])
    def test_matches_naive_search_m3(self, code3, v, wmax):
        """The naive search's weight, or None, for u the paper's (n/2 + 1,
        gcd(u, n) = 2), 1 and 5 (both prime to n): the shift by n/2 of a
        scaled key and the digit-0 step of H[0] + H[t] meet either gcd."""
        for u in (code3.u, 1, 5):
            code = code3._replace(u=u, v={"code": code3.v, "u": code3.u}.get(v, v))
            naive = naive_min_weight(code, wmax)
            assert brute_force_min_weight(code, wmax) == (naive and naive[0]), u

    def test_wmax_out_of_range(self, code3):
        for wmax in (0, 4):
            with pytest.raises(ValueError):
                brute_force_min_weight(code3, wmax)

    def test_oracle_keys_fit_int64(self):
        """The oracle's int64 keys, exp[u t + s] + 3^m * exp[v t + s], are
        below 3^(2m): exact to m = 19, so a MAX_M above 19 needs another key
        first."""
        assert 3 ** (2 * gf3m.MAX_M) <= np.iinfo(np.int64).max

    def test_memory_m11(self):
        """The oracle holds a few int64 arrays of about 3n keys, 1.4 MB each
        at m = 11: its tracemalloc peak there stays under 32 MiB.  The exp
        table is read before the window opens."""
        code = build_code(make_field(11))
        code.ctx.exp
        tracemalloc.start()
        try:
            found = brute_force_min_weight(code, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is None
        assert peak < 32 * 2**20

    def test_reads_the_exp_table_alone(self):
        """On a fresh context (a primitive modulus other than the default, so
        not cached) the oracle builds the exp table and no other: it stays
        independent of the Zech and orbit tables the searches read."""
        ctx = make_field(5, (1, 1, 1, 1, 2, 1))
        assert brute_force_min_weight(build_code(ctx), 3) is None
        assert "exp" in vars(ctx)
        assert not {"zech", "orbit_reps", "trace_by_log"} & set(vars(ctx))

    def test_relaxed_agreement(self, code3):
        """Relaxed C_(1,1): structured and direct scans agree on existence."""
        ctx, variant = code3.ctx, relaxed(code3)
        wit = weight2_search(variant)
        assert wit is not None
        # direct scan of the u-syndrome over weight-2 patterns
        found = False
        for t2 in range(1, code3.n):
            for c2 in (1, 2):
                s = add(ctx, 1, smul(ctx, c2, exp_of(ctx, variant.u * t2)))
                if s == 0:
                    found = True
        assert found
        assert brute_force_min_weight(variant, 3) == 2


class TestWeight4Witness:
    def test_found_and_verified(self, code3, code5, code7):
        for code in (code3, code5, code7):
            wit = weight4_witness(code)
            assert wit is not None
            assert is_codeword(wit["support"], wit["coefficients"], code)

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
        assert is_codeword(wit["support"], wit["coefficients"], code)
        assert not is_codeword(wit["support"], flipped(wit)["coefficients"], code)

    def test_rejected_hit_raises_inconsistent_m13(self, capsys, monkeypatch):
        """A kernel hit that GF(3)[x] division rejects is a fault, not a miss:
        weight4_witness raises Inconsistent, and verify-distance exits 1 with
        nothing on stdout."""
        bad = flipped(self.PINNED[13])
        monkeypatch.setattr(distance, "_completions", lambda code: iter([bad]))
        with pytest.raises(Inconsistent, match="is not divisible by the generator"):
            weight4_witness(build_code(make_field(13)))
        assert main(["verify-distance", "--m", "13"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "",
            "error: Inconsistent: weight-4 hit {'support': [0, 1, 649602, 1204120],"
            " 'coefficients': [1, 1, 1, 1]} is not divisible by the generator\n",
        )

    def test_matches_oracle_weight_m3(self, code3):
        wit = weight4_witness(code3)
        assert naive_min_weight(code3, 4)[0] == len(wit["support"]) == 4


class TestMacWilliams:
    def test_zero_code_gives_full_space(self):
        from math import comb

        n = 8
        enum = WeightEnumerator(n=n, counts={0: 1})
        dual = macwilliams(enum)
        assert dual.counts == {w: comb(n, w) * 2**w for w in range(n + 1)}

    def test_involution(self, ctx3):
        from tritcodes.dualspectrum import direct_enumerator

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
        with pytest.raises(Inconsistent, match=r"total count 6 does not divide 3\^8"):
            macwilliams(bad)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
    def test_low_weight_transform_of_computed_enums(self, m):
        """C has no codeword of weight 1..3 and some of weight 4 (d = 4): at
        m = 13, where no oracle runs, a check of the spectrum alone."""
        mw = macwilliams(spectral_enum(m), max_weight=4)
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
        assert report.oracle_checked

    @pytest.mark.parametrize("m", [7, 9, 11, 13])
    def test_oracle_runs_by_default_to_m11(self, m):
        """The oracle runs at m <= 11 and not at m = 13, where ORACLE_MAX_M,
        its only gate, stops it."""
        assert conclude_distance(build_code(make_field(m))).oracle_checked is (m <= 11)

    @pytest.mark.parametrize("m", [3, 5])
    def test_weight3_found_both_ways_on_u1_code(self, m):
        """On C_(u,1) the oracle and the structured search must both find weight 3."""
        code = with_v(build_code(make_field(m)), 1)
        report = conclude_distance(code)
        assert report.oracle_checked
        assert brute_force_min_weight(code, 3) == 3
        assert len(report.witness["support"]) == 3  # so weight2_search found none
        assert report.concluded_d is None

    @pytest.mark.parametrize(
        "m, v", [(3, v) for v in [*range(1, 26), "u"]] + [(5, v) for v in [1, 2, 4, 5, 7, 13, "u"]]
    )
    def test_structured_weight_matches_oracle(self, m, v):
        """Any v, and at m = 3 every v in [1, n): the oracle finds the scalar
        reference's lightest weight <= wmax for each wmax, and so do the
        searches where gcd(v, n) = 1.  Where gcd(v, n) > 1 (v = u among them)
        the searches refuse the code, ValueError, and the oracle alone runs."""
        code = build_code(make_field(m))
        code = with_v(code, code.u if v == "u" else v)
        want = scalar_lightest(code)
        if gcd(code.v, code.n) == 1:
            report = conclude_distance(code)  # raises Inconsistent on disagreement
            assert report.oracle_checked
            assert (2 if weight2_search(code) else 3 if weight3_search(code) else None) == want
        else:
            with pytest.raises(ValueError):
                conclude_distance(code)
        for wmax in (1, 2, 3):
            lightest = want if want and want <= wmax else None
            assert brute_force_min_weight(code, wmax) == lightest

    def test_disagreement_raises_inconsistent(self, code3, monkeypatch):
        monkeypatch.setattr(distance, "weight3_search", lambda code: None)
        msg = "oracle found weight 3, structured searches found None"
        with pytest.raises(Inconsistent, match=msg):
            conclude_distance(with_v(code3, 1))

    def test_macwilliams_disagreement_raises_both_ways(self, ctx3, code3, monkeypatch):
        """MacWilliams must find the searches' lightest weight <= 3, or none."""
        code = with_v(code3, 1)
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
        # ORACLE_MAX_M = 1 skips the oracle, so only MacWilliams can disagree
        monkeypatch.setattr(distance, "ORACLE_MAX_M", 1)
        assert conclude_distance(code, dual_enum=dual).concluded_d is None
        # the searches find weight 3, MacWilliams none
        with pytest.raises(Inconsistent, match="weight None, structured searches found 3"):
            conclude_distance(code, dual_enum=spectral_enumerator(ctx3))
        monkeypatch.setattr(distance, "weight3_search", lambda code: None)
        # MacWilliams finds weight 3, the searches none
        with pytest.raises(Inconsistent, match="weight 3, structured searches found None"):
            conclude_distance(code, dual_enum=dual)

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
        in the same order, for weights 2 and 4 and for the weight-3 orbit scan."""
        code = build_code(make_field(m))
        code = relaxed(code) if variant == "v=u" else code._replace(v=1)

        def hits():
            return {
                2: list(distance._words(code, [], range(1))),
                3: list(distance._weight3_words(code)),
                4: list(distance._completions(code)),
            }

        want = hits()
        assert want[3] and want[4]
        monkeypatch.setattr(gf3m, "BLOCK", block)
        assert hits() == want

    def test_every_hit_has_zero_syndromes_m3(self, code3):
        """For u the paper's and 1 and every v' in [1, n) prime to n,
        weight2_search on C_(u,v') finds a word exactly when the naive search
        finds one of weight 2, and that word and each weight-4 hit have zero
        u- and v-syndromes by scalar field arithmetic.  Where a partial
        syndrome S_u or S_v vanishes no last position fits; without the
        zero-syndrome mask some such prefixes pass the t_w-free test (v' = 1
        gives the spurious weight-4 support [0, 2, 8, 12])."""
        for u, v in itertools.product((code3.u, 1), coprime_vs(code3)):
            code = code3._replace(u=u, v=v)
            wit2 = weight2_search(code)
            assert (wit2 is not None) == (naive_min_weight(code, 2) is not None), (u, v)
            for hit in [*filter(None, [wit2]), *distance._completions(code)]:
                support, coeffs = hit["support"], hit["coefficients"]
                for e in (u, v):
                    assert _syndrome(code.ctx, e, support, coeffs) == 0, (u, v, hit)

    def test_weight2_is_the_least_word_m3(self, code3):
        """For u the paper's and 1 and every v' in [1, n) prime to n,
        weight2_search on C_(u,v') returns the least (c_2, t_2) weight-2 word
        with 1 at position 0, by scalar field arithmetic: the kernel's c_1 = 2
        pass, the negatives of the c_1 = 1 hits, never comes first.  With the
        paper's u no such v' gives a weight-2 word; with u = 1 each does, as
        every such v' is odd and 1 + x^(n/2) has pi^(e n/2) = -1 for odd e."""
        found = Counter()
        for u, v in itertools.product((code3.u, 1), coprime_vs(code3)):
            code = code3._replace(u=u, v=v)
            words = (
                {"support": [0, t], "coefficients": [1, c]}
                for c in (1, 2)
                for t in range(1, code.n)
                if all(_syndrome(code.ctx, e, [0, t], [1, c]) == 0 for e in (u, v))
            )
            want = next(words, None)
            assert weight2_search(code) == want, (u, v)
            found[u] += want is not None
        assert found == {code3.u: 0, 1: len(coprime_vs(code3))}

    def test_witness_stops_at_its_first_hit(self, monkeypatch):
        """With blocks of 37 positions at m = 7 the witness [0, 1, 211, 443]
        lies in the sixth block of its t_3 line: the scan pulls no block after
        it, where draining the line takes 60."""
        pulled = []
        scan_logs = gf3m.FieldCtx.scan_logs

        def counted(ctx, *args):
            for block in scan_logs(ctx, *args):
                pulled.append(len(block[0]))
                yield block

        code = build_code(make_field(7))
        monkeypatch.setattr(gf3m.FieldCtx, "scan_logs", counted)
        monkeypatch.setattr(gf3m, "BLOCK", 37)
        assert weight4_witness(code)["support"] == [0, 1, 211, 443]
        assert len(pulled) < 10

    @pytest.mark.parametrize("variant", ["v=u", "v=1"])
    def test_hits_near_the_end_m13(self, variant):
        """Weight-3 hits of the orbit scan of the m = 13 codes C_(1,1) and
        C_(u,1), those with t_3 nearest n - 1 among the first 300, have zero
        syndromes by GF(3)[x] arithmetic on Python ints: a log product
        computed in int32 would wrap silently."""
        code = build_code(make_field(13))
        code = relaxed(code) if variant == "v=u" else code._replace(v=1)
        hits = list(itertools.islice(distance._weight3_words(code), 300))
        hits.sort(key=lambda hit: -hit["support"][2])
        assert hits[0]["support"][2] > code.n - 2**16
        for hit in hits[:12]:
            for e in (code.u, code.v):
                acc = polyring.ZERO
                for t, c in zip(hit["support"], hit["coefficients"]):
                    term = polyring.poly_pow_mod(polyring.X, e * t, code.ctx.modulus)
                    acc = polyring.poly_add(acc, polyring.poly_mul((c,), term))
                assert acc == polyring.ZERO
