import tracemalloc

import numpy as np
import pytest

from tritcodes import lemma, lemma_check, lemma_preimage_counts, make_field, polyring


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("epsilon", [1, 2])
def test_no_solutions(m, epsilon):
    ctx = make_field(m)
    report = lemma_check(ctx, epsilon)
    assert report.solutions == []
    assert report.scanned == 3**m - 1


def test_bad_epsilon_rejected(ctx3):
    with pytest.raises(ValueError):
        lemma_check(ctx3, 0)


def test_positive_control(ctx3, ctx5):
    """Preimage counts over all right-hand sides sum to the domain size,
    and some c != 1 has solutions, so the scanner is not vacuously empty."""
    for ctx in (ctx3, ctx5):
        for eps in (1, 2):
            counts = lemma_preimage_counts(ctx, eps)
            assert int(counts.sum()) == ctx.order
            assert counts[1] == 0
            others = [c for c in range(ctx.size) if c != 1 and counts[c] > 0]
            assert others


def test_scalar_cross_check(ctx3):
    """Vectorized scan agrees with direct scalar evaluation."""
    ctx = ctx3
    eps = 1
    counts = lemma_preimage_counts(ctx, eps)
    scalar = [0] * ctx.size
    e3l = 3**ctx.ell
    for j in range(ctx.order):
        x = ctx.exp_of(j)
        x3l = ctx.pow(x, e3l)
        val = ctx.mul(ctx.add(x3l, eps), ctx.add(x3l, ctx.neg(x)))
        scalar[val] += 1
    assert scalar == counts.tolist()


@pytest.mark.parametrize("m", [3, 5, 7])
def test_frobenius_power_representations_agree(m):
    """x^(3^ell) by repeated cubing equals log-domain multiplication by 3^ell."""
    ctx = make_field(m)
    for j in range(ctx.order):
        x = ctx.exp_of(j)
        cubed = x
        for _ in range(ctx.ell):
            cubed = ctx.mul(ctx.mul(cubed, cubed), cubed)
        assert cubed == ctx.exp_of(j * 3**ctx.ell)


def test_json_shape(ctx3):
    doc = lemma_check(ctx3, 2).to_json_dict()
    assert doc == {"m": 3, "epsilon": 2, "solution_count": 0, "scanned": 26}


@pytest.mark.parametrize("m", [3, 5])
def test_block_size_does_not_change_the_scan(m, monkeypatch):
    """Blocks of 7 positions give the default (single-block) logs, solutions
    and preimage counts."""
    ctx = make_field(m)

    def scan():
        out = []
        for eps in (1, 2):
            logs = np.full(ctx.order, -2)
            for start, block in lemma._lhs_logs(ctx, eps):
                logs[start : start + len(block)] = block
            counts = lemma_preimage_counts(ctx, eps)
            out.append((logs.tolist(), lemma_check(ctx, eps).solutions, counts.tolist()))
        return out

    want = scan()
    monkeypatch.setattr(lemma, "BLOCK", 7)
    assert scan() == want


@pytest.mark.parametrize("epsilon", [1, 2])
def test_kernel_logs_near_the_end_m13(epsilon):
    """The last positions of the m = 13 scan against GF(3)[x] arithmetic on
    Python ints: an index or log product computed in int32 would wrap silently."""
    ctx = make_field(13)
    n, f = ctx.order, ctx.modulus
    for start, logs in lemma._lhs_logs(ctx, epsilon):
        pass  # keep the last block
    for j in range(n - 48, n):
        x = polyring.poly_pow_mod(polyring.X, j, f)
        x3l = polyring.poly_pow_mod(polyring.X, j * 3**ctx.ell, f)
        lhs = polyring.poly_mul(polyring.poly_add(x3l, (epsilon,)), polyring.poly_sub(x3l, x))
        want = sum(c * 3**i for i, c in enumerate(polyring.poly_mod(lhs, f)))
        log = int(logs[j - start])
        assert (int(ctx.exp[log]) if log >= 0 else 0) == want


def test_scan_memory_m13():
    """The blocked scan holds a few block arrays: its tracemalloc peak at
    m = 13 measured 4.8 MiB (the full-length scan it replaced, ~87 MiB)."""
    ctx = make_field(13)
    tracemalloc.start()
    try:
        assert lemma_check(ctx, 1).solutions == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
