"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the stated runtime ceilings are
asserted where the criterion sets one.
"""

import subprocess
import sys
import time
from math import comb

import pytest

from tritcodes.codebuilder import build_code, sphere_packing_max_d
from tritcodes.distance import (
    brute_force_min_weight,
    macwilliams,
    weight2_search,
    weight3_search,
)
from tritcodes.dualspectrum import direct_enumerator, spectral_enumerator, weight_value_set
from tritcodes.gf3m import make_field
from tritcodes.lemma import lemma_check

from conftest import ENUM_M5, ENUM_M7, ENUM_M9, GEN_M5, GEN_M7, GEN_M9
from reference import fhat, lemma_preimage_counts


def _report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {criterion} {detail}".rstrip()
    print(line)
    assert ok, line


def test_criterion_1_example1_construction(code5):
    start = time.monotonic()
    ok = (
        code5.gen == GEN_M5
        and (code5.n, code5.k) == (242, 232)
        and sphere_packing_max_d(242, 232) == 4
    )
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 10, f"(Example 1 [242,232,4], {elapsed:.2f}s)")


def test_criterion_2_example1_dual_enumerator(ctx5, enum5):
    start = time.monotonic()
    direct = direct_enumerator(ctx5)
    elapsed = time.monotonic() - start
    ok = direct.counts == ENUM_M5 and enum5.counts == ENUM_M5
    _report(2, ok and elapsed < 60, f"(both paths, direct in {elapsed:.2f}s)")


def test_criterion_3_example2(code7, enum7):
    start = time.monotonic()
    ok = code7.gen == GEN_M7 and enum7.counts == ENUM_M7
    elapsed = time.monotonic() - start
    _report(3, ok and elapsed < 300, f"(Example 2 [2186,2172], {elapsed:.2f}s)")


def test_criterion_4_example3(ctx9, enum9):
    start = time.monotonic()
    code9 = build_code(ctx9)
    ok = (
        (code9.n, code9.k) == (19682, 19664)
        and code9.gen == GEN_M9
        and enum9.counts == ENUM_M9
    )
    elapsed = time.monotonic() - start
    _report(4, ok and elapsed < 1800, f"(Example 3 [19682,19664], {elapsed:.2f}s)")


def test_criterion_5_distance_suite(code3, code5, code7, enum5, enum7, enum9):
    ok = True
    for code in (code3, code5, code7):
        ok = ok and weight2_search(code) is None and weight3_search(code) is None
    for code in (code3, code5):
        ok = ok and brute_force_min_weight(code, 3) is None
    for m in (3, 5, 7, 9, 11, 13):
        ok = ok and sphere_packing_max_d(3**m - 1, 3**m - 1 - 2 * m) == 4
    for enum in (enum5, enum7, enum9):
        mw = macwilliams(enum, max_weight=4)
        ok = ok and all(mw.counts.get(j, 0) == 0 for j in (1, 2, 3))
        ok = ok and mw.counts.get(4, 0) > 0
    _report(5, ok, "(weight searches, oracle, sphere packing, MacWilliams)")


def test_criterion_6_lemma_suite():
    ok = True
    for m in (3, 5, 7, 9, 11, 13):
        ctx = make_field(m)
        for eps in (1, 2):
            ok = ok and lemma_check(ctx, eps).solution_count == 0
            counts = lemma_preimage_counts(ctx, eps)
            ok = ok and int(counts.sum()) == 3**m - 1
    _report(6, ok, "(lemma empty for all m in 3..13, preimage sweep)")


def test_criterion_7_spectrum_value_set():
    ok = True
    parseval = {}
    for m in (3, 5, 7):
        ctx = make_field(m)
        allowed = {0, 3 ** (ctx.ell + 1), -(3 ** (ctx.ell + 1))}
        total_norm = 0
        for lam in range(ctx.size):
            p, q = fhat(lam, ctx)
            ok = ok and q == 0 and p in allowed
            total_norm += p * p - p * q + q * q
        parseval[m] = total_norm
    ok = ok and parseval[3] == 3**6 and parseval[5] == 3**10
    _report(7, ok, "(fhat in {0, +-3^(ell+1)}, Parseval at m=3,5)")


def test_criterion_8_enumerator_structure(ctx3, enum5, enum7, enum9):
    ok = True
    computed = {3: direct_enumerator(ctx3), 5: enum5, 7: enum7, 9: enum9}
    for m in (11, 13):
        enum = computed[m] = spectral_enumerator(make_field(m))
        # C has no codeword of weight 1..3 and some of weight 4 (d = 4), a
        # check of the spectrum where the brute-force oracle cannot run
        mw = macwilliams(enum, max_weight=4)
        ok = ok and all(mw.counts.get(j, 0) == 0 for j in (1, 2, 3))
        ok = ok and mw.counts.get(4, 0) > 0
    for m, enum in computed.items():
        n = 3**m - 1
        mid = 2 * 3 ** (m - 1)
        ok = ok and enum.support() <= weight_value_set(m)
        # Pless power moments j = 0..3 (A_1 = A_2 = A_3 = 0 for C): j = 0 is
        # the total, j = 1 the first moment
        for j in range(4):
            moment = sum(c * comb(n - w, j) for w, c in enum.counts.items())
            ok = ok and moment == 3 ** (2 * m - j) * comb(n, j)
        for w, c in enum.counts.items():
            if w == 0:
                continue
            boundary = 2 * n if w == mid else 0
            ok = ok and (c - boundary) % n == 0
    _report(8, ok, "(Pless moments 0-3, support, class divisibility, m=3..13)")


def test_criterion_9_report_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tritcodes.cli",
                "report",
                "--m",
                "5",
                "--method",
                "both",
                "--out",
                str(path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(path.read_bytes())
    _report(9, outs[0] == outs[1], "(report --m 5 byte-identical across processes)")
