"""Minimum-distance verification for C_(u,v): one structured completion
search, an independent brute-force oracle, and a MacWilliams transform as a
third path.

The weight-2 and weight-3 searches and the weight-4 witness all read from
_completions, which solves the last position of a word from the v-syndrome
and checks the u-syndrome in the log domain of the field tables.  The
oracle is kept independent of it: it completes words over the parity-check
matrix H, whose row t holds the base-3 digits of pi^(u t) and pi^(v t),
using only digit sums mod 3, in O(n*m) memory and under the same budget
gate.  It uses no logs and no cyclic normalisation.  The oracle and
MacWilliams must agree with the searches both ways on the lightest weight <= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .codebuilder import CyclicCode, is_codeword, sphere_packing_max_d
from .dualspectrum import DEFAULT_BUDGET, WeightEnumerator
from .exceptions import BudgetExceeded, Inconsistent, NonIntegerOutput


@dataclass
class DistanceReport:
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
            "weight4_support": (
                self.weight4_witness["support"] if self.weight4_witness else None
            ),
        }


# Positions t_(w-1) per vectorised step of _completions; bounds its peak
# memory at m = 13 to a few MiB of block arrays.
BLOCK = 1 << 16


def _log_syndrome(ctx, e: int, support, coeffs) -> int:
    """log of sum(c * pi^(e t)) over the (t, c) pairs; -1 when it is 0."""
    acc = -1
    for t, c in zip(support, coeffs):
        term = (e * t + ctx.log_of_scalar(c)) % ctx.order
        acc = term if acc < 0 else int(ctx.log_add(acc, term))
    return acc


def _prefixes(n: int, w: int):
    """(positions, coefficients) before t_(w-1), for w in {2, 3, 4}.

    Position 0 with coefficient 1 (for w = 2 it is t_(w-1) itself), then t_2
    and c_2 for w = 4, from a plain range: itertools.combinations would copy
    range(1, n) into a tuple of about 60 MiB at m = 13.
    """
    if w < 4:
        yield ((0,), (1,)) if w == 3 else ((), ())
    else:
        for t2 in range(1, n):
            for c2 in (1, 2):
                yield (0, t2), (1, c2)


def _completions(code: CyclicCode, w: int):
    """Weight-w codewords with position 0 first and coefficient 1 there.

    Every codeword is a cyclic shift of a scalar multiple of one of these.
    The positions t_2 < ... < t_(w-2) and their coefficients are scanned
    (none for w <= 3); t_(w-1) is vectorised in blocks of BLOCK positions
    (for w = 2 it is position 0 itself).  The last term c_w*pi^(v t_w)
    must cancel the partial v-syndrome S_v, so v*t_w = L (mod n) with
    L = log(-S_v / c_w): that has g = gcd(v, n) roots t0 + k*n/g when g
    divides L and none otherwise.  Only those roots are tested against the
    u-syndrome, all in the log domain.  Logs in [0, 2n) are reduced by
    ctx.wrap, and e*t_(w-1) mod n by a table of e*i mod n for i < BLOCK.
    Hits come in the order prefix, c_(w-1), c_w, then positions ascending,
    as dicts of support and coefficients.
    """
    ctx = code.ctx
    n, u, v = code.n, code.u, code.v
    g = gcd(v, n)
    vinv = pow(v // g, -1, n // g)
    roots = np.arange(g, dtype=np.int64) * (n // g)
    offsets = np.arange(min(BLOCK, n), dtype=np.int64)
    steps = {e: (e * offsets) % n for e in (u, v)}
    for support, coeffs in _prefixes(n, w):
        su, sv = (_log_syndrome(ctx, e, support, coeffs) for e in (u, v))
        # for w = 2, t_(w-1) is position 0 itself, with coefficient 1
        lo, hi, cps = (support[-1] + 1, n, (1, 2)) if support else (0, 1, (1,))
        for cp in cps:
            lcp = ctx.log_of_scalar(cp)
            hits = {1: [], 2: []}  # per c_w over all blocks, to keep the hit order
            for start in range(lo, hi, BLOCK):
                size = min(BLOCK, hi - start)
                tp = offsets[:size] + start
                # logs of the partial syndromes with c_(w-1)*pi^(e t_(w-1)) added
                lu, lv = (ctx.wrap(steps[e][:size] + (e * start + lcp) % n) for e in (u, v))
                lu = lu if su < 0 else ctx.log_add(lu, su)
                lv = lv if sv < 0 else ctx.log_add(lv, sv)
                for cw in (1, 2):
                    lneg = ctx.log_of_scalar(3 - cw)  # log(-1/c_w) = log(-c_w)
                    # v-syndrome: v*t_w = L (mod n), lt = L = log(-S_v / c_w)
                    lt = ctx.wrap(lv + lneg)
                    q = lt // g
                    tw = ((q * vinv) % (n // g))[:, None] + roots
                    # u-syndrome: c_w*pi^(u t_w) = -S_u, u*t_w + log(-c_w) = log S_u
                    # (never for S_u = 0, log -1); a root needs S_v != 0 and g | L
                    good = ctx.wrap((u * tw) % n + lneg) == lu[:, None]
                    good &= (tw > tp[:, None]) & ((lv >= 0) & (q * g == lt))[:, None]
                    r, k = np.divmod(np.flatnonzero(good), g)
                    hits[cw].append((tp[r], tw[r, k]))
            for cw in (1, 2):
                for tps, tws in hits[cw]:
                    for a, b in zip(tps.tolist(), tws.tolist()):
                        yield {
                            "support": [*support, a, b],
                            "coefficients": [*coeffs, cp, cw],
                        }


def weight2_search(code: CyclicCode) -> dict | None:
    """First weight-2 codeword of _completions, or None."""
    return next(_completions(code, 2), None)


def weight3_search(code: CyclicCode) -> dict | None:
    """First weight-3 codeword of _completions, or None."""
    return next(_completions(code, 3), None)


def _oracle_work(n: int, wmax: int) -> int:
    return sum(comb(n, w) * 2 ** (w - 1) for w in range(1, wmax + 1))


def _key(rows: np.ndarray) -> np.ndarray:
    """Base-3 integer whose digit i is rows[:, i] mod 3."""
    key = np.zeros(len(rows), dtype=np.int64)
    for col in (rows % 3).T[::-1]:
        key = 3 * key + col
    return key


def _leads(n: int, k: int):
    """Ascending k-subsets of range(n), k <= 2, in lexicographic order, from plain
    ranges: itertools.combinations copies range(n) (~60 MiB at m = 13) first."""
    if k <= 0:
        yield ()
    elif k == 1:
        yield from ((a,) for a in range(n))
    else:
        for a in range(n):
            yield from ((a, b) for b in range(a + 1, n))


def brute_force_min_weight(
    code: CyclicCode, wmax: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, list[int], list[int]] | None:
    """Lightest codeword of weight <= wmax, by completion over the parity checks.

    Row t of H holds the base-3 digits of pi^(u t) and pi^(v t); a word is a
    codeword iff its scaled rows sum to 0 mod 3.  For each weight, all
    positions but the last two are enumerated with leading coefficient 1,
    the one before the last is vectorised, and the last (position,
    coefficient) is looked up in one sorted table of (key(c*H[t]), t, c).
    Only ctx.exp digits and mod-3 sums are used, in O(n*m) memory.  Ties
    break lexicographically on (weight, support, coefficients).  Raises
    BudgetExceeded when the _oracle_work estimate exceeds the budget.
    """
    ctx, n = code.ctx, code.n
    if not 1 <= wmax <= 4:
        raise ValueError("wmax must be in {1,2,3,4}")
    work = _oracle_work(n, wmax)
    if work > budget:
        raise BudgetExceeded(
            f"oracle needs ~{work:.2e} syndrome checks (budget {budget:.0e})"
        )
    t = np.arange(n, dtype=np.int64)
    elems = (ctx.exp[(e * t) % n] for e in (code.u, code.v))
    H = np.stack([(a // 3**i % 3).astype(np.int8) for a in elems for i in range(ctx.m)], 1)
    # (key*n + t)*2 + c - 1 < 2*3^(3m) fits int64 for m <= 13; the int64-max
    # sentinel keeps every searchsorted index inside the table
    packed = [(_key(c * H) * n + t) * 2 + c - 1 for c in (1, 2)]
    table = np.sort(np.concatenate([*packed, [np.iinfo(np.int64).max]]))
    for w in range(1, wmax + 1):
        lead_coeffs = (
            [(1, *p) for p in itertools.product((1, 2), repeat=w - 3)] if w > 2 else [()]
        )
        for lead in _leads(n, w - 2):
            # candidates (tp, cp) for the position before the last; weight 1
            # has none, so it gets one zero row (coefficient 0) at position -1
            tp = np.arange(lead[-1] + 1 if lead else 0, n - 1) if w > 1 else np.array([-1])
            cs = np.array({1: (0,), 2: (1,)}.get(w, (1, 2)), dtype=np.int8)
            tp, cp = np.tile(tp, len(cs)), np.repeat(cs, len(tp))
            hits = []
            for lc in lead_coeffs:
                s = np.array(lc, dtype=np.int8) @ H[list(lead)] + cp[:, None] * H[tp]
                need = _key(-s)
                found = table[np.searchsorted(table, (need * n + tp + 1) * 2)]
                for i in np.flatnonzero(found // (2 * n) == need):
                    tw, cw = divmod(int(found[i]), 2)
                    support = (*lead, int(tp[i]), tw % n)[-w:]
                    hits.append((list(support), [*lc, int(cp[i]), cw + 1][-w:]))
            if hits:
                support, coeffs = min(hits)
                return (w, support, coeffs)
    return None


def weight4_witness(code: CyclicCode) -> dict | None:
    """First weight-4 codeword of _completions that is_codeword confirms, or None."""
    for hit in _completions(code, 4):
        word = np.zeros(code.n, dtype=np.int8)
        word[hit["support"]] = hit["coefficients"]
        if is_codeword(word, code):
            return hit
    return None


def macwilliams(enum: WeightEnumerator, max_weight: int | None = None) -> WeightEnumerator:
    """Dual weight enumerator via the Krawtchouk/MacWilliams transform over GF(3).

    Exact integer arithmetic; raises NonIntegerOutput when the input is
    not the enumerator of a linear code.  max_weight truncates the output
    to low weights, which keeps the A_1..A_4 checks cheap at n ~ 2*10^4.
    """
    n, total = enum.n, enum.total
    if total <= 0 or 3**n % total:
        raise NonIntegerOutput(f"total count {total} does not divide 3^{n}")
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
            raise NonIntegerOutput(f"A'_{j} = {acc}/{total} is not an integer")
        val = acc // total
        if val < 0:
            raise NonIntegerOutput(f"A'_{j} = {val} is negative")
        counts[j] = val
    return WeightEnumerator(n=n, counts=counts)


def conclude_distance(
    code: CyclicCode,
    dual_enum: WeightEnumerator | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DistanceReport:
    """Combine every verification path into a single distance report.

    Weight 1 is structurally impossible (c*pi^(u*t) never vanishes); the
    oracle, attached when its work estimate fits the budget (m <= 5 by
    default), checks it.  Weights 2 and 3 use the structured searches, a
    weight-4 codeword is produced constructively, and MacWilliams gives the
    low-order coefficients when a dual enumerator of length code.n is
    supplied.  Any disagreement with the searches on the lightest weight
    <= 3, either way, raises Inconsistent.
    """
    n = code.n
    if dual_enum is not None and dual_enum.n != n:
        raise ValueError(f"dual enumerator has length {dual_enum.n}, the code {n}")
    wit2 = weight2_search(code)
    wit3 = weight3_search(code)
    structured = 2 if wit2 is not None else 3 if wit3 is not None else None
    ceiling = sphere_packing_max_d(n, code.k)
    wit4 = weight4_witness(code)

    oracle_checked = False
    if _oracle_work(n, 3) <= budget:
        oracle = brute_force_min_weight(code, 3, budget=budget)
        oracle_checked = True
        found = oracle[0] if oracle else None
        if found != structured:
            raise Inconsistent(
                f"oracle found weight {found}, structured searches found {structured}"
            )

    mw = {} if dual_enum is None else macwilliams(dual_enum, max_weight=4).counts
    lightest = next((j for j in (1, 2, 3) if j in mw), None)
    if dual_enum is not None and lightest != structured:
        raise Inconsistent(
            f"MacWilliams gives lightest weight {lightest}, "
            f"structured searches found {structured}"
        )

    have_w4 = wit4 is not None or 4 in mw
    concluded = 4 if (structured is None and have_w4 and ceiling == 4) else None
    return DistanceReport(
        witness=wit2 or wit3,
        sphere_packing_ceiling=ceiling,
        weight4_witness=wit4,
        oracle_checked=oracle_checked,
        concluded_d=concluded,
    )
