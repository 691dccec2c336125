"""Test references: one scalar GF(3^m) arithmetic on packed elements, and the
definition-level forms of the dual spectrum and of the lemma's kernel.

An element is an int in [0, 3^m) whose base-3 digit i is the coefficient of
x^i, as in ctx.exp.  add, neg and smul work digit by digit and never read
ctx.zech, so they check the log-domain kernels independently; exp_of, mul,
power and trace read only ctx.exp, its scatter log and ctx.trace_by_log,
which test_gf3m checks entry by entry against the modulus.  Tests import this
module as they import conftest.
"""

import functools
import weakref

import numpy as np

from tritcodes import lemma
from tritcodes.codebuilder import exponent_pair


def add(ctx, a, b):
    out, p = 0, 1
    for _ in range(ctx.m):
        a, da = divmod(a, 3)
        b, db = divmod(b, 3)
        out += (da + db) % 3 * p
        p *= 3
    return out


def smul(ctx, c, a):
    """c*a for c in GF(3), given as any int."""
    out, p = 0, 1
    for _ in range(ctx.m):
        a, d = divmod(a, 3)
        out += c * d % 3 * p
        p *= 3
    return out


def neg(ctx, a):
    return smul(ctx, 2, a)


def exp_of(ctx, j):
    """pi^j for any integer j."""
    return int(ctx.exp[j % ctx.order])


_logs = weakref.WeakKeyDictionary()


def log(ctx):
    """The log of each packed element (int32), -1 at 0: ctx.exp scattered,
    cached per context for as long as the context lives."""
    if ctx not in _logs:
        table = np.full(ctx.size, -1, dtype=np.int32)
        table[ctx.exp] = np.arange(ctx.order, dtype=np.int32)
        _logs[ctx] = table
    return _logs[ctx]


def mul(ctx, a, b):
    return exp_of(ctx, int(log(ctx)[a]) + int(log(ctx)[b])) if a and b else 0


def power(ctx, a, e):
    """a^e for e >= 0, 0^0 = 1; the exponent product is a Python int."""
    return exp_of(ctx, int(log(ctx)[a]) * e) if a else int(e == 0)


def trace(ctx, a):
    return int(ctx.trace_by_log[log(ctx)[a]]) if a else 0


def dual_codeword_weight(a, b, ctx):
    """Hamming weight of the trace codeword (tr(a*pi^(-ui) + b*pi^(-vi)))_i."""
    u, v = exponent_pair(ctx.m)
    weight = 0
    for i in range(ctx.order):
        x = add(ctx, mul(ctx, a, exp_of(ctx, -u * i)), mul(ctx, b, exp_of(ctx, -v * i)))
        weight += trace(ctx, x) != 0
    return weight


@functools.cache
def _trace_of_v_power(ctx):
    """Tr(x^v) at x = pi^j, indexed by j (int16): the same at every lam of fhat."""
    _, v = exponent_pair(ctx.m)
    j = np.arange(ctx.order, dtype=np.int64)
    return ctx.trace_by_log[(v * j) % ctx.order].astype(np.int16)


def fhat(lam, ctx):
    """Fourier transform of x^v at lam, sum over x of chi(x^v - lam*x), as the
    Eisenstein pair (N0 - N2, N1 - N2), Nk counting the x of trace value k."""
    trv = _trace_of_v_power(ctx)
    if lam == 0:
        d = trv
    else:  # Tr(lam*x) at x = pi^j is trace_by_log[(log(lam) + j) mod n]
        d = (trv - np.roll(ctx.trace_by_log, -int(log(ctx)[lam]))) % 3
    counts = np.bincount(np.asarray(d, dtype=np.int64), minlength=3)
    n0 = int(counts[0]) + 1  # x = 0 contributes chi(0)
    return n0 - int(counts[2]), int(counts[1]) - int(counts[2])


def lemma_preimage_counts(ctx, epsilon):
    """Solution count of lhs(x) = c for every c in GF(3^m), indexed by element,
    by the lemma's kernel at every x = pi^t, t in range(n): the map is
    total on GF(3^m)*, so the counts sum to 3^m - 1, and some c != 1 must
    have a nonempty preimage."""
    blocks = lemma._lhs_logs(ctx, epsilon, range(ctx.order))
    values = [np.where(logs < 0, 0, ctx.exp[logs]) for _, logs in blocks]
    return np.bincount(np.concatenate(values), minlength=ctx.size)


def nonzero_root_logs(ctx, terms):
    """Ascending logs j of the x = pi^j in GF(3^m)* with sum c*x^e = 0 over the
    (e, c) of terms: each x^e read off the exp table and the sum taken digit
    by digit, as add does, so no Zech table is read."""
    j = np.arange(ctx.order, dtype=np.int64)
    digits = np.zeros((ctx.m, ctx.order), dtype=np.int64)
    for e, c in terms.items():
        elem = ctx.exp[e * j % ctx.order].astype(np.int64)
        for i in range(ctx.m):
            digits[i] += c * (elem // 3**i % 3)
    return j[(digits % 3 == 0).all(axis=0)].tolist()
