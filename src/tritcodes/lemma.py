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

from .gf3m import FieldCtx


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


def _lhs_values(ctx: FieldCtx, epsilon: int) -> np.ndarray:
    """(x^(3^ell) + eps)(x^(3^ell) - x) for every x = pi^j, j in [0, n)."""
    n = ctx.order
    j = np.arange(n, dtype=np.int64)
    x3l = (j * 3**ctx.ell) % n  # log of the Frobenius power x^(3^ell)
    la = ctx.log_add(x3l, ctx.log_of_scalar(epsilon))
    lb = ctx.log_add(x3l, (j + ctx.half) % n)  # x^(3^ell) + (-x)
    out = np.zeros(n, dtype=np.int64)
    nz = (la >= 0) & (lb >= 0)
    out[nz] = ctx.exp[(la[nz] + lb[nz]) % n]
    return out


def lemma_check(ctx: FieldCtx, epsilon: int) -> LemmaReport:
    """Collect every x in GF(3^m)* where the left-hand side equals 1."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    values = _lhs_values(ctx, epsilon)
    sols = [int(ctx.exp[j]) for j in np.flatnonzero(values == 1)]
    return LemmaReport(m=ctx.m, epsilon=epsilon, solutions=sols, scanned=ctx.order)


def lemma_preimage_counts(ctx: FieldCtx, epsilon: int) -> np.ndarray:
    """Solution count of lhs(x) = c for every c in GF(3^m), indexed by element.

    The map is total on GF(3^m)*, so the counts sum to 3^m - 1; at least
    one c != 1 must have a nonempty preimage.
    """
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    values = _lhs_values(ctx, epsilon)
    return np.bincount(values, minlength=ctx.size)
