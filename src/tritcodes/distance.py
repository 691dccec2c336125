"""Minimum-distance verification for C_(u,v): one structured completion
search, an independent brute-force oracle, and a MacWilliams transform as a
third path.

Each of the weight-2 and weight-3 searches and the weight-4 witness is
one call of _words: a prefix of (position, coefficient) terms and the
positions it scans.  _words solves the last position of a word, past the
scanned one, by the one inverse of v mod n, after a test on both syndromes
that needs no root, in the log domain of the field tables, block by block,
so a search stops at the block of its first hit.  The weight-2 search
scans position 0 alone; the weight-3 search scans its middle position over
the Frobenius orbit representatives only, about n/m positions; the
weight-4 witness scans t_3 > t_2 for each t_2 in order.  The oracle is
kept independent of them: it gives only the lightest weight <= 3, from
collisions among keys packed from ctx.exp, one per scaled row of the
parity-check matrix, at m <= ORACLE_MAX_M only; no logs, no Zech table, no
orbits, and weight-3 words only through position 0, which rotation and a
pigeonhole on the coefficients allow.  The oracle and MacWilliams must
agree with the searches both ways on the lightest weight <= 3.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import polyring
from .codebuilder import CyclicCode, sphere_packing_max_d
from .exceptions import Inconsistent

if TYPE_CHECKING:
    from .dualspectrum import WeightEnumerator

# The largest m whose distance report runs the oracle, its only gate: its sorts fit the
# default --budget at every m (1.1e8 comparisons at 13), but at m = 13 it would take a
# verify-distance from 0.26 to 0.50 s and 49.6 to 194.8 MiB peak RSS (2 vCPUs, median of 7).
ORACLE_MAX_M = 11


class DistanceReport(NamedTuple):
    witness: dict | None
    sphere_packing_ceiling: int
    weight4_witness: dict | None
    oracle_checked: bool
    concluded_d: int | None

    def to_json_dict(self) -> dict:
        return {
            "d": self.concluded_d,
            "sphere_packing_ceiling": self.sphere_packing_ceiling,
            "weight_le3_witness": self.witness,
            "weight4_support": self.weight4_witness and self.weight4_witness["support"],
        }


def _words(code: CyclicCode, prefix, positions):
    """Codewords with the (t, c) terms of prefix, below positions, c_p at a
    position t_p of positions and c_w at t_w > t_p, as dicts of support,
    ascending, and coefficients.  Hits come by c_p = 1, then 2, then block by
    block of ctx.scan_logs, by (t_p, c_w, t_w) within a block, so a caller
    that stops at a hit scans no block after it, whatever the block size.

    The logs su, sv of the prefix's u- and v-syndromes (-1 while they
    vanish) plus c_p*pi^(e t_p) give the partial syndromes S_u, S_v, both
    nonzero for a hit.  The last term c_w*pi^(e t_w) must cancel both, so
    v*t_w = log(-S_v / c_w) and u*t_w = log(-S_u / c_w) (mod n).  The
    paper's v has gcd(v, n) = 1, as 4n = -1 (mod v), so the first has the
    one root t_w = (log S_v + log(-c_w)) * v^-1, and v times the second
    holds at it iff v*log S_u - u*log S_v = (u - v)*log(-c_w): a test free
    of t_w that decides the word, all in the log domain; only t_w > t_p is
    kept.  A code with gcd(v, n) > 1 raises ValueError.
    block_hits returns plain ints and starmap keeps no block, so the kernel
    holds no block array while suspended at a hit.
    """
    ctx = code.ctx
    n, u, v = code.n, code.u, code.v
    vinv = pow(v, -1, n)
    lnegs = [ctx.log_of_scalar(3 - cw) for cw in (1, 2)]  # log(-1/c_w) = log(-c_w)

    def plus(s, lg):  # log(pi^s + pi^lg), s = -1 standing for 0
        return lg if s < 0 else ctx.log_add(lg, s)

    su = sv = -1
    for t, c in prefix:
        su, sv = (plus(s, (e * t + ctx.log_of_scalar(c)) % n) for s, e in ((su, u), (sv, v)))

    def block_hits(tp, logs):
        lu, lv = map(plus, (su, sv), logs)
        d = ctx.mod(v * lu - u * lv)
        d[(lu < 0) | (lv < 0)] = -1  # no c_w*pi^(e t_w) cancels a zero S_u or S_v
        found = []
        for cw, lneg in zip((1, 2), lnegs):
            keep = np.flatnonzero(d == (u - v) * lneg % n)
            tp_k, tw = tp[keep], ctx.mod((lv[keep] + lneg) * vinv)  # v*t_w = log(-S_v / c_w)
            later = tp_k < tw
            found += zip(tp_k[later].tolist(), itertools.repeat(cw), tw[later].tolist())
        return sorted(found)

    for cp in (1, 2):
        lcp = ctx.log_of_scalar(cp)
        for hits in itertools.starmap(block_hits, ctx.scan_logs(positions, (u, lcp), (v, lcp))):
            for tp, cw, tw in hits:
                terms = [*prefix, (tp, cp), (tw, cw)]
                yield {"support": [t for t, _ in terms], "coefficients": [c for _, c in terms]}


def _completions(code: CyclicCode):
    """Weight-4 codewords with 1 at position 0 and c_2 at t_2 > 0, the prefix
    of _words, which scans t_3 > t_2 and solves t_4 > t_3: every weight-4
    codeword is a cyclic shift of a scalar multiple of one.  Hits come by
    t_2, c_2, then in the order of _words."""
    for t2 in range(1, code.n):
        for c2 in (1, 2):
            yield from _words(code, [(0, 1), (t2, c2)], range(t2 + 1, code.n))


def _weight3_words(code: CyclicCode):
    """Weight-3 codewords of _words with 1 at position 0, t_p a Frobenius
    orbit representative (ctx.orbit_reps) and t_w > t_p.  Every cyclic code
    over GF(3) is fixed by the multiplier t -> 3t mod n, as c(pi^e)^3 =
    c(pi^(3e)), which keeps 0 and the coefficients.  Shift and scale a word
    to 1 at 0, with a, b its other positions and r_a <= r_b their orbits'
    representatives: a power of the multiplier sends a to r_a and b into its
    orbit, to at least r_b, and not to r_a, as a != b.  So some word of this
    form exists iff any weight-3 codeword does."""
    return _words(code, [(0, 1)], code.ctx.orbit_reps[1:])


def weight2_search(code: CyclicCode) -> dict | None:
    """First weight-2 codeword with 1 at position 0, by c_2 and then t_2, or
    None: _words on the one position t_1 = 0.  Its c_1 = 2 hits are the
    negatives of its c_1 = 1 hits, which come first, so the first hit has
    c_1 = 1."""
    return next(_words(code, [], range(1)), None)


def weight3_search(code: CyclicCode) -> dict | None:
    """First weight-3 codeword of _weight3_words, or None."""
    return next(_weight3_words(code), None)


def brute_force_min_weight(code: CyclicCode, wmax: int) -> int | None:
    """Lightest weight w <= wmax <= 3 of a nonzero codeword, or None, by
    collisions among keys of the parity checks, read from ctx.exp alone.

    Row t of H is (pi^(u t), pi^(v t)).  The key of c*H[t] is exp[u t + s]
    + 3^m * exp[v t + s], indices mod n, s = (c - 1)*n/2 as -1 = pi^(n/2):
    an exact int64 to m = 19.  Weight 1 is a zero key, weight 2 a repeat
    among the 2n keys, and weight 3, with no lighter word, a repeat once the
    keys of H[0] + H[t], t > 0, join them (the 2n are closed under negation;
    any other repeat is a lighter word).  Row t is row 0 times (pi^u, pi^v)^t,
    and two of a weight-3 word's three coefficients are equal, so a rotation
    and a scaling put 1 at 0 and at some t.
    """
    ctx, n = code.ctx, code.n
    if not 1 <= wmax <= 3:
        raise ValueError("wmax must be in {1,2,3}")

    def keys(s, step=lambda x: x):  # step(exp[e t + s]) for e = u, v and t in [0, n), packed
        lo, hi = (step(ctx.exp[np.arange(s, s + e * n, e) % n]) for e in (code.u, code.v))
        return lo + 3**ctx.m * hi.astype(np.int64)

    # c*H[t] for c = 1, 2, then H[0] + H[t]: H[0] = (1, 1) adds 1 to digit 0 of each half
    parts = [keys(0), keys(n // 2), keys(0, lambda x: x - x % 3 + (x % 3 + 1) % 3)[1:]]
    if not parts[0].all():
        return 1
    for w in range(2, wmax + 1):
        k = np.sort(np.concatenate(parts[:w]))
        if (k[1:] == k[:-1]).any():  # np.unique would import numpy.ma
            return w
    return None


def is_codeword(support, coefficients, code: CyclicCode) -> bool:
    """True iff the word with coefficient c at each position t of support, 0
    elsewhere, is divisible by gen: sum(c * (x^t mod gen)) must vanish, so a
    weight-4 word at n = 3^13 - 1 costs four square-and-multiply powers."""
    rem = polyring.ZERO
    for t, c in zip(support, coefficients):
        if not 0 <= t < code.n:
            raise ValueError(f"position {t} outside [0, n={code.n})")
        term = polyring.poly_pow_mod(polyring.X, t, code.gen)
        rem = polyring.poly_add(rem, polyring.poly_mul((c % 3,), term))
    return rem == polyring.ZERO


def weight4_witness(code: CyclicCode) -> dict | None:
    """The first weight-4 codeword of _completions, or None; the scan stops at
    the block that holds it.  GF(3)[x] division confirms the hit: one that
    is_codeword rejects is a fault of the log-domain kernel, Inconsistent."""
    hit = next(_completions(code), None)
    if hit is not None and not is_codeword(hit["support"], hit["coefficients"], code):
        raise Inconsistent(f"weight-4 hit {hit} is not divisible by the generator")
    return hit


def macwilliams(enum: WeightEnumerator, max_weight: int | None = None) -> WeightEnumerator:
    """Dual weight enumerator via the Krawtchouk/MacWilliams transform over GF(3).

    Exact integer arithmetic; raises Inconsistent when the input is
    not the enumerator of a linear code.  max_weight truncates the output
    to low weights, which keeps the A_1..A_4 checks cheap at every length,
    n = 26 to 1,594,322 (m = 3..13): about 0.2 ms at the top.
    """
    n, total = enum.n, enum.total
    if total <= 0 or pow(3, n, total):
        raise Inconsistent(f"total count {total} does not divide 3^{n}")
    jmax = n if max_weight is None else min(max_weight, n)
    items = sorted(enum.counts.items())
    counts: dict[int, int] = {}
    for j in range(jmax + 1):
        acc = 0
        for i, a_i in items:
            k_ji = sum(
                (-1) ** s * comb(i, s) * comb(n - i, j - s) * 2 ** (j - s)
                for s in range(max(0, j - (n - i)), min(i, j) + 1)
            )
            acc += a_i * k_ji
        if acc % total:
            raise Inconsistent(f"A'_{j} = {acc}/{total} is not an integer")
        val = acc // total
        if val < 0:
            raise Inconsistent(f"A'_{j} = {val} is negative")
        if val:
            counts[j] = val
    return enum._replace(counts=counts)


def conclude_distance(
    code: CyclicCode, dual_enum: WeightEnumerator | None = None
) -> DistanceReport:
    """Combine every verification path into a single distance report.

    Weight 1 is structurally impossible (c*pi^(u*t) never vanishes); the
    oracle, run at m <= ORACLE_MAX_M, checks it.  Weights 2 and 3 use the
    structured searches, a weight-4 codeword is produced constructively, and
    MacWilliams transforms a supplied dual enumerator of length code.n.  The
    oracle's and MacWilliams' lightest weights <= 3, or None, must each equal
    the searches', or Inconsistent is raised.
    """
    n = code.n
    if dual_enum is not None and dual_enum.n != n:
        raise ValueError(f"dual enumerator has length {dual_enum.n}, the code {n}")
    wit2 = weight2_search(code)
    wit3 = weight3_search(code)
    structured = 2 if wit2 is not None else 3 if wit3 is not None else None
    ceiling = sphere_packing_max_d(n, code.k)
    wit4 = weight4_witness(code)

    lightest = {}  # each other path's lightest weight <= 3
    if code.ctx.m <= ORACLE_MAX_M:
        lightest["oracle"] = brute_force_min_weight(code, 3)
    mw = {} if dual_enum is None else macwilliams(dual_enum, max_weight=4).counts
    if dual_enum is not None:
        lightest["MacWilliams"] = next((j for j in (1, 2, 3) if j in mw), None)
    for path, w in lightest.items():
        if w != structured:
            raise Inconsistent(f"{path} found weight {w}, structured searches found {structured}")

    have_w4 = wit4 is not None or 4 in mw
    concluded = 4 if (structured is None and have_w4 and ceiling == 4) else None
    return DistanceReport(
        witness=wit2 or wit3,
        sphere_packing_ceiling=ceiling,
        weight4_witness=wit4,
        oracle_checked="oracle" in lightest,
        concluded_d=concluded,
    )
