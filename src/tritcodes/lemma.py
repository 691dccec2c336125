"""Exhaustive confirmation that (x^(3^ell) + eps)(x^(3^ell) - x) = 1 has
no solution in GF(3^m)* for eps in GF(3)*.

Brute force is the point: an O(3^m) scan is exact, fast even at m = 13,
and independent of any square/nonsquare argument.  The preimage-count
sweep over every right-hand side guards against an evaluator bug that
reports "no solutions" for everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fieldctx import FieldCtx


@dataclass
class LemmaReport:
    m: int
    epsilon: int
    solutions: list[int]
    scanned: int

    @property
    def solution_count(self) -> int:
        return len(self.solutions)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "epsilon": self.epsilon,
            "solution_count": self.solution_count,
            "scanned": self.scanned,
        }


def _lhs_logs(ctx: FieldCtx, epsilon: int):
    """(start, logs) per block of ctx.line_logs, logs[i] the log of the
    left-hand side at x = pi^(start + i), -1 where it is 0: x^(3^ell) has the
    log j*3^ell mod n, -x the log j + h, the sums go through the Zech table,
    and the product adds logs."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    for j, (x3l, minus_x) in ctx.line_logs(0, ctx.order, (3**ctx.ell, 0), (1, ctx.half)):
        la = ctx.log_add(x3l, ctx.log_of_scalar(epsilon))
        lb = ctx.log_add(x3l, minus_x)
        logs = ctx.wrap(la + lb)
        np.copyto(logs, -1, where=(la < 0) | (lb < 0))
        yield int(j[0]), logs


def lemma_check(ctx: FieldCtx, epsilon: int) -> LemmaReport:
    """Collect every x in GF(3^m)* where the left-hand side equals 1 (log 0)."""
    blocks = _lhs_logs(ctx, epsilon)
    sols = [int(ctx.exp[s + j]) for s, logs in blocks for j in np.flatnonzero(logs == 0)]
    return LemmaReport(m=ctx.m, epsilon=epsilon, solutions=sols, scanned=ctx.order)


def lemma_preimage_counts(ctx: FieldCtx, epsilon: int) -> np.ndarray:
    """Solution count of lhs(x) = c for every c in GF(3^m), indexed by element,
    from the logs lemma_check reads: the map is total on GF(3^m)*, so the
    counts sum to 3^m - 1, and some c != 1 must have a nonempty preimage."""
    values = [np.where(logs < 0, 0, ctx.exp[logs]) for _, logs in _lhs_logs(ctx, epsilon)]
    return np.bincount(np.concatenate(values), minlength=ctx.size)
