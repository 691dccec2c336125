import tracemalloc

import numpy as np
import pytest

from tritcodes import gf3m, lemma, polyring
from tritcodes.exceptions import Inconsistent
from tritcodes.gf3m import make_field
from tritcodes.lemma import lemma_check

from reference import add, exp_of, lemma_preimage_counts, mul, neg, power


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("epsilon", [1, 2])
def test_no_solutions(m, epsilon):
    ctx = make_field(m)
    report = lemma_check(ctx, epsilon)
    assert report.solution_count == 0
    assert report.scanned == 3**m - 1


def test_bad_epsilon_rejected(ctx3):
    with pytest.raises(ValueError):
        lemma_check(ctx3, 0)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_positive_control(m):
    """Preimage counts over all right-hand sides sum to the domain size,
    and some c != 1 has solutions, so the scanner is not vacuously empty."""
    ctx = make_field(m)
    for eps in (1, 2):
        counts = lemma_preimage_counts(ctx, eps)
        assert int(counts.sum()) == ctx.order
        assert counts[1] == 0
        assert np.delete(counts, 1).any()


def test_scalar_cross_check(ctx3):
    """Vectorized scan agrees with direct scalar evaluation."""
    ctx = ctx3
    eps = 1
    counts = lemma_preimage_counts(ctx, eps)
    scalar = [0] * ctx.size
    e3l = 3**ctx.ell
    for j in range(ctx.order):
        x = exp_of(ctx, j)
        x3l = power(ctx, x, e3l)
        val = mul(ctx, add(ctx, x3l, eps), add(ctx, x3l, neg(ctx, x)))
        scalar[val] += 1
    assert scalar == counts.tolist()


def test_reports_by_either_path(ctx5, monkeypatch):
    """reports gives lemma_check's reports from the root count, with or without
    the orbit scan, and raises Inconsistent when the scan counts otherwise."""
    want = [lemma_check(ctx5, eps) for eps in (1, 2)]
    assert lemma.reports(ctx5, orbit_scan=False) == lemma.reports(ctx5, orbit_scan=True) == want
    monkeypatch.setattr(lemma, "lemma_check", lambda ctx, eps: want[0]._replace(solution_count=2))
    with pytest.raises(Inconsistent, match="epsilon=1: the root count finds 0 solutions, the orbit"):
        lemma.reports(ctx5, orbit_scan=True)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_frobenius_power_representations_agree(m):
    """x^(3^ell) by repeated cubing equals log-domain multiplication by 3^ell."""
    ctx = make_field(m)
    for j in range(ctx.order):
        x = exp_of(ctx, j)
        cubed = x
        for _ in range(ctx.ell):
            cubed = mul(ctx, mul(ctx, cubed, cubed), cubed)
        assert cubed == exp_of(ctx, j * 3**ctx.ell)


@pytest.mark.parametrize("m", [5, 7])
def test_orbit_hits_expand_to_whole_orbits(m, monkeypatch):
    """The lemma's solutions of lhs = c in GF(3) are x = 1 and x = -1 only,
    whose orbits are single points.  A stand-in kernel that is 0 exactly
    where the base-3 digit sum of t is m (a rotation invariant) hits orbits
    of every size: the orbit scan must return every such t, ascending."""
    ctx = make_field(m)

    def digit_sum(t):
        return sum(t // 3**i % 3 for i in range(m))

    def stand_in(ctx, epsilon, positions):
        for t, _ in ctx.scan_logs(positions):
            yield t, np.where(digit_sum(t) == m, 0, -1)

    monkeypatch.setattr(lemma, "_lhs_logs", stand_in)
    t = np.arange(ctx.order)
    want = t[digit_sum(t) == m].tolist()
    assert len(want) > len(set(want) & set(ctx.orbit_reps.tolist())) > 1
    assert lemma._solution_logs(ctx, 1, 1) == want


def test_json_shape(ctx3):
    doc = lemma_check(ctx3, 2).to_json_dict()
    assert doc == {"m": 3, "epsilon": 2, "solution_count": 0, "scanned": 26}


@pytest.mark.parametrize("m", [3, 5])
def test_block_size_does_not_change_the_scan(m, monkeypatch):
    """Blocks of 7 positions give the default (single-block) logs, orbit-scan
    solutions and preimage counts."""
    ctx = make_field(m)

    def scan():
        out = []
        for eps in (1, 2):
            logs = np.full(ctx.order, -2)
            for t, block in lemma._lhs_logs(ctx, eps, range(ctx.order)):
                logs[t] = block
            counts = lemma_preimage_counts(ctx, eps)
            sols = [lemma._solution_logs(ctx, eps, c) for c in (0, 1, 2)]
            out.append((logs.tolist(), sols, counts.tolist()))
        return out

    want = scan()
    monkeypatch.setattr(gf3m, "BLOCK", 7)
    assert scan() == want


@pytest.mark.parametrize("epsilon", [1, 2])
def test_kernel_logs_near_the_end_m13(epsilon):
    """The last 48 positions of the m = 13 full and orbit scans against
    GF(3)[x] arithmetic on Python ints: an index or log product computed in
    int32 would wrap silently."""
    sympy = pytest.importorskip("sympy")
    poly = lambda g: sympy.Poly(g[::-1] or [0], sympy.Symbol("x"), modulus=3)
    ctx = make_field(13)
    f = ctx.modulus
    for positions in (range(ctx.order), ctx.orbit_reps):
        for t, logs in lemma._lhs_logs(ctx, epsilon, positions):
            pass  # keep the last block
        for j, log in zip(t[-48:].tolist(), logs[-48:].tolist()):
            x = poly(polyring.poly_pow_mod(polyring.X, j, f))
            x3l = poly(polyring.poly_pow_mod(polyring.X, j * 3**ctx.ell, f))
            lhs = sympy.rem((x3l + epsilon) * (x3l - x), poly(f)).all_coeffs()
            want = sum(c * 3**i for i, c in enumerate(polyring.normalize(reversed(lhs))))
            assert (int(ctx.exp[log]) if log >= 0 else 0) == want, j


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_orbit_scan_matches_the_full_scan(m):
    """Positive control of the orbit expansion: for both epsilon and every c
    in GF(3), the orbit scan's solutions of lhs = c are the full scan's.
    lhs = 0 has the two roots x = 1 and x = -1 (x^(3^ell) = x or -eps)."""
    ctx = make_field(m)
    for eps in (1, 2):
        for c in (0, 1, 2):
            target = ctx.log_of_scalar(c) if c else -1
            blocks = lemma._lhs_logs(ctx, eps, range(ctx.order))
            want = [j for t, logs in blocks for j in t[logs == target].tolist()]
            assert lemma._solution_logs(ctx, eps, c) == want, (eps, c)
        assert lemma._solution_logs(ctx, eps, 0) == [0, ctx.half]


def test_scan_memory_m13():
    """The blocked scan holds a few block arrays: its tracemalloc peak at
    m = 13 measured 4.8 MiB (the full-length scan it replaced, ~87 MiB).
    The tables it reads, built on first read, are read before the window."""
    ctx = make_field(13)
    ctx.exp, ctx.zech
    tracemalloc.start()
    try:
        assert lemma_check(ctx, 1).solution_count == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
