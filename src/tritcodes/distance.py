"""Minimum-distance verification for C_(u,v): structured searches,
brute-force oracle, and a MacWilliams transform as a third path.

The structured weight-2/3 searches mirror the power-sum syndrome systems
in u and v and run in the log domain of the field tables.  The oracle is
kept independent of them: it completes words over the parity-check matrix
H, whose row t holds the base-3 digits of pi^(u t) and pi^(v t), using
only digit sums mod 3, in O(n*m) memory and under the same budget gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .codebuilder import CyclicCode, is_codeword, sphere_packing_max_d
from .dualspectrum import DEFAULT_BUDGET, WeightEnumerator
from .exceptions import BudgetExceeded, Inconsistent, NonIntegerOutput


@dataclass
class DistanceReport:
    n: int
    k: int
    weight1_found: bool
    weight2_found: bool
    weight3_found: bool
    witness: dict | None
    sphere_packing_ceiling: int
    weight4_witness: dict | None
    macwilliams_low_weights: dict[int, int] | None
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


def weight2_search(code: CyclicCode) -> dict | None:
    """Scan delta = pi^t2 over GF(3^m)* \\ {1} for a weight-2 codeword.

    With t1 = 0 and c1 = 1, a weight-2 codeword needs c2*delta^u = -1 and
    c2*delta^v = -1 simultaneously.
    """
    ctx = code.ctx
    n = ctx.order
    t = np.arange(1, n, dtype=np.int64)
    pu = ctx.exp[(code.u * t) % n]
    pv = ctx.exp[(code.v * t) % n]
    hits = []
    for c2 in (1, 2):
        target = ctx.neg(c2)  # delta^e == -(1/c2) == -c2 in GF(3)
        for t2 in np.flatnonzero((pu == target) & (pv == target)):
            hits.append((int(t[t2]), c2))
    if not hits:
        return None
    t2, c2 = min(hits)
    return {"support": [0, t2], "coefficients": [1, c2]}


def weight3_search(code: CyclicCode) -> dict | None:
    """Structured weight-3 search over the normalized (y1, y2) system.

    Positions are divided by the third and c3 is normalized to 1, leaving
    c1*y1^u + c2*y2^u + 1 = 0 and c1*y1^v + c2*y2^v + 1 = 0 with
    y1, y2 in GF(3^m)* \\ {1}, y1 != y2.  For each y1 the u-equation fixes
    the target s = y2^u; the solutions of y^u = s are exactly {s, -s}
    when s is a square (image of the u-power map) and empty otherwise.
    All four (c1, c2) patterns are covered.
    """
    ctx = code.ctx
    n, h = ctx.order, ctx.half
    u, v = code.u, code.v
    t = np.arange(1, n, dtype=np.int64)  # y1 = pi^t, skipping y1 = 1
    y1u = (u * t) % n
    y1v = (v * t) % n
    best = None
    for c1 in (1, 2):
        lc1 = ctx.log_of_scalar(c1)
        # log(1 + c1*y1^u); -1 where it vanishes
        one_plus = ctx.zech[(y1u + lc1) % n]
        nz = one_plus >= 0
        for c2 in (1, 2):
            # s = -(1 + c1*y1^u) * c2^(-1), with c2^(-1) = c2 in GF(3)
            ls = (one_plus + h + ctx.log_of_scalar(c2)) % n
            sq = ls % 2 == 0  # squares only have u-th roots
            for cand_neg in (False, True):
                ly2 = (ls + h) % n if cand_neg else ls
                ok = nz & sq & (ly2 != 0) & (ly2 != t)
                if not ok.any():
                    continue
                oki = np.flatnonzero(ok)
                # c1*y1^v + c2*y2^v + 1 = 0  <=>  c1*y1^v + c2*y2^v = pi^h
                lsum = ctx.log_add(
                    (y1v[oki] + lc1) % n,
                    (v * ly2[oki] + ctx.log_of_scalar(c2)) % n,
                )
                oki = oki[lsum == h]
                for i in oki:
                    t1 = int(t[i])
                    t2 = int(ly2[i])
                    cand = {
                        "support": sorted([0, t1, t2]),
                        "y1": ctx.exp_of(t1),
                        "y2": ctx.exp_of(t2),
                        "coefficients": [c1, c2, 1],
                    }
                    key = (tuple(cand["support"]), c1, c2)
                    if best is None or key < best[0]:
                        best = (key, cand)
    return best[1] if best else None


def _oracle_work(n: int, wmax: int) -> int:
    return sum(comb(n, w) * 2 ** (w - 1) for w in range(1, wmax + 1))


def _key(rows: np.ndarray) -> np.ndarray:
    """Base-3 integer whose digit i is rows[:, i] mod 3."""
    key = np.zeros(len(rows), dtype=np.int64)
    for col in (rows % 3).T[::-1]:
        key = 3 * key + col
    return key


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
        for lead in itertools.combinations(range(n), max(w - 2, 0)):
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
    """Constructive weight-4 codeword via targeted completion.

    For t1 = 0 and scanned (t2, t3), the v-syndrome determines the unique
    candidate t4 for each trailing coefficient (v is invertible mod n);
    only the u-syndrome remains to check.  The found word is verified by
    is_codeword before being reported.
    """
    ctx = code.ctx
    n, u, v, h = code.n, code.u, code.v, ctx.half
    vinv = pow(v, -1, n)
    for t2 in range(1, n):
        t3 = np.arange(t2 + 1, n, dtype=np.int64)
        for c2 in (1, 2):
            # logs of 1 + c2*pi^(u t2) and 1 + c2*pi^(v t2); -1 when zero
            lc2 = ctx.log_of_scalar(c2)
            su12 = int(ctx.zech[(u * t2 + lc2) % n])
            sv12 = int(ctx.zech[(v * t2 + lc2) % n])
            for c3 in (1, 2):
                lc3 = ctx.log_of_scalar(c3)
                lu, lv = (u * t3 + lc3) % n, (v * t3 + lc3) % n
                su = lu if su12 < 0 else ctx.log_add(lu, su12)
                sv = lv if sv12 < 0 else ctx.log_add(lv, sv12)
                oki = np.flatnonzero(sv >= 0)
                if not oki.size:
                    continue
                for c4 in (1, 2):
                    # c4 * pi^(v t4) = -sv  =>  t4 = vinv * log(-sv/c4)
                    lc4 = ctx.log_of_scalar(c4)
                    t4 = (vinv * ((sv[oki] + h + lc4) % n)) % n
                    # u-syndrome: c4 * pi^(u t4) = -su, never true for su = 0
                    got_u = (u * t4 + lc4) % n
                    need_u = np.where(su[oki] < 0, -1, (su[oki] + h) % n)
                    good = np.flatnonzero((got_u == need_u) & (t4 > t3[oki]))
                    for g in good:
                        support = [0, t2, int(t3[oki[g]]), int(t4[g])]
                        coeffs = [1, c2, c3, c4]
                        word = np.zeros(n, dtype=np.int8)
                        word[support] = coeffs
                        if is_codeword(word, code):
                            return {"support": support, "coefficients": coeffs}
    return None


def macwilliams(
    enum: WeightEnumerator, n: int, q: int, max_weight: int | None = None
) -> WeightEnumerator:
    """Dual weight enumerator via the Krawtchouk/MacWilliams transform.

    Exact integer arithmetic; raises NonIntegerOutput when the input is
    not the enumerator of a linear code.  max_weight truncates the output
    to low weights, which keeps the A_1..A_4 checks cheap at n ~ 2*10^4.
    """
    total = enum.total
    if total <= 0 or q**n % total:
        raise NonIntegerOutput(f"total count {total} does not divide {q}^{n}")
    jmax = n if max_weight is None else min(max_weight, n)
    items = sorted((w, c) for w, c in enum.counts.items() if c)
    counts: dict[int, int] = {}
    for j in range(jmax + 1):
        acc = 0
        for i, a_i in items:
            k_ji = sum(
                (-1) ** s * comb(i, s) * comb(n - i, j - s) * (q - 1) ** (j - s)
                for s in range(max(0, j - (n - i)), min(i, j) + 1)
            )
            acc += a_i * k_ji
        if acc % total:
            raise NonIntegerOutput(f"A'_{j} = {acc}/{total} is not an integer")
        val = acc // total
        if val < 0:
            raise NonIntegerOutput(f"A'_{j} = {val} is negative")
        if val:
            counts[j] = val
    return WeightEnumerator(n=n, counts=counts)


def conclude_distance(
    code: CyclicCode,
    dual_enum: WeightEnumerator | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DistanceReport:
    """Combine every verification path into a single distance report.

    Weight 1 is impossible structurally (c*pi^(u*t) never vanishes) but is
    scanned anyway; weights 2 and 3 use the structured searches; a
    weight-4 codeword is produced constructively; the brute-force oracle
    is attached when the work estimate fits the budget, and MacWilliams
    low-order coefficients when a dual enumerator is supplied.
    """
    ctx = code.ctx
    n, k = code.n, code.k
    t = np.arange(n, dtype=np.int64)
    w1 = bool(np.any(ctx.exp[(code.u * t) % n] == 0))
    wit2 = weight2_search(code)
    wit3 = weight3_search(code)
    ceiling = sphere_packing_max_d(n, k, 3)
    wit4 = weight4_witness(code)

    oracle_checked = False
    if _oracle_work(n, 3) <= budget:
        oracle = brute_force_min_weight(code, 3, budget=budget)
        oracle_checked = True
        structured = 2 if wit2 is not None else 3 if wit3 is not None else None
        found = oracle[0] if oracle else None
        if found != structured:
            raise Inconsistent(
                f"oracle found weight {found}, structured searches found {structured}"
            )

    mw_low = None
    if dual_enum is not None:
        mw = macwilliams(dual_enum, n, 3, max_weight=4)
        mw_low = {j: mw.counts.get(j, 0) for j in range(5)}
        if any(mw_low[j] for j in (1, 2, 3)) and wit2 is None and wit3 is None:
            raise Inconsistent(
                "MacWilliams reports low-weight codewords the searches missed"
            )

    no_le3 = not (w1 or wit2 or wit3)
    have_w4 = wit4 is not None or (mw_low is not None and mw_low[4] > 0)
    concluded = 4 if (no_le3 and have_w4 and ceiling == 4) else None
    return DistanceReport(
        n=n,
        k=k,
        weight1_found=w1,
        weight2_found=wit2 is not None,
        weight3_found=wit3 is not None,
        witness=wit2 or wit3,
        sphere_packing_ceiling=ceiling,
        weight4_witness=wit4,
        macwilliams_low_weights=mw_low,
        oracle_checked=oracle_checked,
        concluded_d=concluded,
    )
