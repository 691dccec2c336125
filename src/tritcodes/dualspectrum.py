"""Exact weight enumerator of the dual code by two independent paths.

Delsarte's theorem presents the dual as trace codewords c(a,b) indexed by
field pairs.  The direct path loops every (a,b) and counts nonzero trace
coordinates (small m only).  The spectral path gets the Fourier transform
of the power function x^v at every point from one exact ternary Walsh
transform (m*3^m operations, every supported m; the single-point fhat is
its test reference) and turns two spectrum values into a codeword weight.
All sums are Eisenstein integers p + q*w, kept as int pairs (p, q); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebuilder import exponent_pair
from .exceptions import BudgetExceeded, NonIntegralWeight
from .gf3m import FieldCtx

# Operation-count ceiling for the budget-gated paths (oracles, spectrum).
DEFAULT_BUDGET = 10**9


@dataclass
class WeightEnumerator:
    """Exact map weight -> codeword count for a length-n code, zero counts dropped."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.counts = {w: c for w, c in self.counts.items() if c}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> set[int]:
        return set(self.counts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "counts": {str(w): self.counts[w] for w in sorted(self.counts)},
        }


def weight_value_set(m: int) -> set[int]:
    """Predicted dual weights {0, 2*3^(m-1), 2*3^(m-1) +- 2*3^ell, +- 3^ell}."""
    if m % 2 == 0 or m < 3:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    ell = (m - 1) // 2
    mid = 2 * 3 ** (m - 1)
    step = 3**ell
    return {0, mid, mid - 2 * step, mid + 2 * step, mid - step, mid + step}


def dual_codeword_weight(a: int, b: int, ctx: FieldCtx) -> int:
    """Hamming weight of the trace codeword (tr(a*pi^(-ui) + b*pi^(-vi)))_i."""
    u, v = exponent_pair(ctx.m)
    n = ctx.order
    zeros = 0
    for i in range(n):
        x = ctx.add(
            ctx.mul(a, ctx.exp_of(-u * i)),
            ctx.mul(b, ctx.exp_of(-v * i)),
        )
        if ctx.trace(x) == 0:
            zeros += 1
    return n - zeros


def fhat(lam: int, ctx: FieldCtx) -> tuple[int, int]:
    """Fourier transform of x^v at lam, sum over x of chi(x^v - lam*x), as the
    Eisenstein pair (N0 - N2, N1 - N2), Nk counting the x of trace value k."""
    _, v = exponent_pair(ctx.m)
    n = ctx.order
    j = np.arange(n, dtype=np.int64)
    trv = ctx.trace_by_log[(v * j) % n]
    if lam == 0:
        d = trv
    else:
        s = ctx.log_of(lam)
        d = (trv.astype(np.int16) - ctx.trace_by_log[(s + j) % n]) % 3
    counts = np.bincount(np.asarray(d, dtype=np.int64), minlength=3)
    n0 = int(counts[0]) + 1  # x = 0 contributes chi(0)
    return n0 - int(counts[2]), int(counts[1]) - int(counts[2])


def _fhat_all(ctx: FieldCtx, v: int) -> np.ndarray:
    """Real value of fhat(pi^s) for every s in [0, n); raises if any is complex.

    With x = sum_i x_i pi^i, Tr(lam*x) = sum_i x_i Tr(lam*pi^i), so fhat is
    the ternary Walsh (Vilenkin-Chrestenson) transform over GF(3)^m of
    omega^Tr(x^v), taken at the trace vector (Tr(lam*pi^i))_i.  Values are
    Eisenstein pairs p + q*w; one exact length-3 DFT per digit axis gives
    all 3^m values in m passes.
    """
    m, n = ctx.m, ctx.order
    g = np.zeros(ctx.size, dtype=np.int8)
    g[ctx.exp] = ctx.trace_by_log[(v * np.arange(n, dtype=np.int64)) % n]
    # omega^g as (p, q): 1 = (1, 0), w = (0, 1), w^2 = (-1, -1); |fhat| <= 3^m fits int32
    p = np.array([1, 0, -1], dtype=np.int32)[g].reshape((3,) * m)
    q = np.array([0, 1, -1], dtype=np.int32)[g].reshape((3,) * m)
    for axis in range(m):
        # y_k = a_0 + w^(-k)*a_1 + w^(-2k)*a_2, where w*(p, q) = (-q, p - q)
        # and w^2*(p, q) = (q - p, -p)
        p0, p1, p2 = np.moveaxis(p, axis, 0)
        q0, q1, q2 = np.moveaxis(q, axis, 0)
        p = np.stack([p0 + p1 + p2, p0 - p1 + q1 - q2, p0 - p2 - q1 + q2], axis)
        q = np.stack([q0 + q1 + q2, q0 - p1 + p2 - q2, q0 + p1 - q1 - p2], axis)
    # lam = pi^s sits at the packed index sum_i Tr(pi^(s+i)) * 3^i
    tr = np.concatenate([ctx.trace_by_log, ctx.trace_by_log[:m]]).astype(np.int32)
    index = sum(tr[i : i + n] * 3**i for i in range(m))
    bad = np.flatnonzero(q.reshape(-1)[index])
    if bad.size:
        raise NonIntegralWeight(f"fhat(pi^{bad[0]}) is not real")
    return p.reshape(-1)[index]


def direct_enumerator(ctx: FieldCtx, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Definition-level enumeration over all (a,b) pairs; oracle for small m."""
    n = ctx.order
    work = (n + 1) ** 2 * n
    if work > budget:
        raise BudgetExceeded(
            f"direct enumeration needs ~{work:.2e} trace lookups (budget {budget:.0e})"
        )
    u, v = exponent_pair(ctx.m)
    i = np.arange(n, dtype=np.int64)
    t = np.arange(n, dtype=np.int64)
    # row t: traces of pi^t * pi^(-u i); leading zero row is a = 0
    tau = np.zeros((n + 1, n), dtype=np.int16)
    tau[1:] = ctx.trace_by_log[(t[:, None] - (u * i) % n) % n]
    tav = np.zeros((n + 1, n), dtype=np.int16)
    tav[1:] = ctx.trace_by_log[(t[:, None] - (v * i) % n) % n]
    hist = np.zeros(n + 1, dtype=np.int64)
    for row in tau:
        weights = n - np.count_nonzero((row[None, :] + tav) % 3 == 0, axis=1)
        hist += np.bincount(weights, minlength=n + 1)
    return WeightEnumerator(n=n, counts=dict(enumerate(hist.tolist())))


def spectral_enumerator(ctx: FieldCtx, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Dual weight enumerator through the Fourier transform of x^v.

    Nonzero pairs (a,b) fall into classes by lam(a,b) = a*c with
    c^v = b^(-1); each nonzero lam collects exactly 3^m - 1 pairs of
    weight 2*3^(m-1) - (fhat(lam) + fhat(-lam))/3.  The a=0 xor b=0
    boundary contributes 2*(3^m - 1) codewords of weight 2*3^(m-1).
    All fhat values come from one ternary Walsh transform, m*3^m
    operations, which the budget gates.
    """
    n = ctx.order
    work = ctx.m * ctx.size
    if work > budget:
        raise BudgetExceeded(
            f"spectral transform needs ~{work:.2e} operations (budget {budget:.0e})"
        )
    _, v = exponent_pair(ctx.m)
    fr = _fhat_all(ctx, v)
    pair_sum = fr + np.roll(fr, -ctx.half)  # fhat(lam) + fhat(-lam), lam = pi^s
    if np.any(pair_sum % 3):
        raise NonIntegralWeight("fhat(lam) + fhat(-lam) not divisible by 3")
    mid = 2 * 3 ** (ctx.m - 1)
    weights = mid - pair_sum // 3
    hist = np.bincount(weights)  # at most six weights occur
    counts = {int(w): int(hist[w]) * n for w in np.flatnonzero(hist)}
    counts[mid] = counts.get(mid, 0) + 2 * n
    counts[0] = counts.get(0, 0) + 1
    return WeightEnumerator(n=n, counts=counts)
