"""Exact weight enumerator of the dual code by two independent paths.

Delsarte's theorem presents the dual as the trace codewords
c(a,b)_t = Tr(a*pi^(ut) + b*pi^(vt)).  As 4n = 3(2*3^ell + 1)(2*3^ell - 1) - 1
= -1 mod v, gcd(v, n) = 1, so each c(a, b != 0) is a cyclic shift of some
c(a', 1).  The spectral path gets fhat(lam) = sum over x of chi(x^v - lam*x),
the Fourier transform of x^v, at every point from one exact ternary Walsh
transform (m*3^m operations), checks fhat(lam^3) = fhat(lam) and turns two
spectrum values into a weight.  The direct path weighs c(pi^s, 1) as window s
of the trace m-sequence T against its v-decimation: the m-sequence
cross-correlation (T. Helleseth, Discrete Math. 16 (1976) 209-232), counted
one window per orbit of s -> 3s and s -> s + h, about n^2/(2m) trace
comparisons.  enumerators() runs the spectral path, and the direct one at
m <= DIRECT_MAX_M, and compares the two.
All sums are Eisenstein integers p + q*w, kept as int pairs (p, q); no floats.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .codebuilder import exponent_pair
from .exceptions import Inconsistent
from .gf3m import FieldCtx


class WeightEnumerator(NamedTuple):
    """Exact map weight -> codeword count for a length-n code, no count zero:
    direct_enumerator's histogram and distance.macwilliams leave zeros out."""

    n: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

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


def _fhat_all(ctx: FieldCtx) -> np.ndarray:
    """Real value of fhat(pi^s) for every s in [0, n); raises if any is complex.

    With x = sum_i x_i pi^i, Tr(lam*x) = sum_i x_i Tr(lam*pi^i), so fhat is
    the ternary Walsh (Vilenkin-Chrestenson) transform over GF(3)^m of
    omega^Tr(x^v), taken at the trace vector (Tr(lam*pi^i))_i.  Values are
    Eisenstein pairs p + q*w; one exact length-3 DFT per digit axis gives
    all 3^m values in m passes.
    """
    m, n = ctx.m, ctx.order
    v = exponent_pair(m)[1]  # the paper's v, gcd(v, n) = 1
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
        raise Inconsistent(f"fhat(pi^{bad[0]}) is not real")
    return p.reshape(-1)[index]


def direct_enumerator(ctx: FieldCtx) -> WeightEnumerator:
    """Definition-level, from trace_by_log T alone.  As u = h + 1, pi^(ut) =
    (-1)^t*pi^t: c(pi^s, 1)_t = (-1)^t*T_(s+t) + T_(vt) is zero iff T_(s+t) = y_t,
    so row a = pi^s is window s of T against y (int8 like T, lest != upcast).
    c(a, pi^(vs)) is c(a*pi^(-us), 1) shifted by s: each window weighs n codewords.
    Windows s, 3s and s + h count alike, as Tr(w^3) = Tr(w) and c(pi^(s+h), 1) is
    -c(pi^s, 1) shifted by h.  Parity is kept by s -> 3s and flipped by s -> s + h
    (n even, h odd), so the window of an even r of ctx.orbit_reps weighs 2*n*|orbit(r)|."""
    m, n = ctx.m, ctx.order
    trace = ctx.trace_by_log
    y = trace[exponent_pair(m)[1] * np.arange(n, dtype=np.int64) % n]
    y[::2] = -y[::2] % 3  # y_t = -(-1)^t * T_(vt) mod 3
    doubled = np.concatenate([trace, trace])
    reps = ctx.orbit_reps[ctx.orbit_reps % 2 == 0]
    fixed = (reps * 3 ** np.arange(m)[:, None] % n == reps).sum(axis=0)  # m / |orbit(r)|
    hist = np.zeros(n + 1, dtype=np.int64)
    for r, f in zip(reps.tolist(), fixed.tolist()):
        hist[np.count_nonzero(doubled[r : r + n] != y)] += 2 * n * m // f
    hist[0] += 1  # c(0, 0)
    hist[np.count_nonzero(trace)] += 2 * n  # c(a, 0) and c(0, b)
    return WeightEnumerator(n=n, counts={w: c for w, c in enumerate(hist.tolist()) if c})


def spectral_enumerator(ctx: FieldCtx) -> WeightEnumerator:
    """Dual weight enumerator through the Fourier transform of x^v.

    Nonzero pairs (a,b) fall into classes by lam(a,b) = a*c with
    c^v = b^(-1); each nonzero lam collects exactly 3^m - 1 pairs of
    weight 2*3^(m-1) - (fhat(lam) + fhat(-lam))/3.  The a=0 xor b=0
    boundary contributes 2*(3^m - 1) codewords of weight 2*3^(m-1).
    All fhat values come from one ternary Walsh transform, m*3^m
    operations.
    """
    return _from_transform(ctx, _fhat_all(ctx))


def _from_transform(ctx: FieldCtx, fr: np.ndarray) -> WeightEnumerator:
    """The enumerator of spectral_enumerator from _fhat_all's values fr, once
    they pass the Frobenius check fr[3s mod n] = fr[s]: Tr(y^3) = Tr(y), so
    fhat(lam^3) = fhat(lam).  It runs last, in memory the earlier steps freed."""
    n = ctx.order
    pair_sum = fr + np.roll(fr, -ctx.half)  # fhat(lam) + fhat(-lam), lam = pi^s
    if np.any(pair_sum % 3):
        raise Inconsistent("fhat(lam) + fhat(-lam) not divisible by 3")
    mid = 2 * 3 ** (ctx.m - 1)
    weights = mid - pair_sum // 3
    hist = np.bincount(weights)  # at most six weights occur
    counts = {int(w): int(hist[w]) * n for w in np.flatnonzero(hist)}
    counts[mid] = counts.get(mid, 0) + 2 * n
    counts[0] = counts.get(0, 0) + 1
    s3 = ctx.wrap(ctx.wrap(np.arange(0, 3 * n, 3, dtype=np.int32)))  # 3s < 3n
    bad = np.flatnonzero(fr[s3] != fr)
    if bad.size:
        raise Inconsistent(f"fhat(pi^{s3[bad[0]]}) != fhat(pi^{bad[0]})")
    return WeightEnumerator(n=n, counts=counts)


# The largest m at which enumerators runs the direct path, its only gate: at m = 13 its
# 61,321 windows take about 17 s and 88 MiB peak RSS, against 0.45 s for report --m 13.
DIRECT_MAX_M = 11


def enumerators(ctx: FieldCtx) -> tuple[dict, bool | None]:
    """The spectral and the direct enumerator, and whether they agree: the
    direct one and agree are None, with a note on stderr, above DIRECT_MAX_M."""
    enums = {"spectral": spectral_enumerator(ctx), "direct": None}
    if ctx.m > DIRECT_MAX_M:
        print(f"note: skipped: direct enumeration runs at m <= {DIRECT_MAX_M}", file=sys.stderr)
        return enums, None
    enums["direct"] = direct_enumerator(ctx)
    return enums, enums["direct"] == enums["spectral"]
