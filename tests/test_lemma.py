import pytest

from tritcodes import lemma_check, lemma_preimage_counts, make_field


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
