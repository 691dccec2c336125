"""Exhaustive confirmation that (x^(3^ell) + eps)(x^(3^ell) - x) = 1 has
no solution in GF(3^m)* for eps in GF(3)*: the orbit scan, one of the
lemma's two independent paths.  The other, polyring.nonzero_root_count, reads
no field table; lemma-check reports its count, and report runs both and
raises Inconsistent when they differ.

Brute force is the point, one Frobenius orbit at a time: the left-hand
side has GF(3) coefficients, so lhs(x^3) = lhs(x)^3, and a c in GF(3) has
c^3 = c.  Each solution set of lhs = c is therefore a union of orbits of
x -> x^3, and evaluating at x = pi^t for the least t of each orbit
(ctx.orbit_reps, about 3^m/m of them) decides it exactly, independent of
any square/nonsquare argument.  The scan reads the Zech table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import polyring
from .fieldctx import FieldCtx


@dataclass
class LemmaReport:
    """How many x in GF(3^m)* solve lhs(x) = 1 for one epsilon, by either
    path; scanned is 3^m - 1, the nonzero elements the verdict covers."""

    m: int
    epsilon: int
    solution_count: int
    scanned: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _lhs_logs(ctx: FieldCtx, epsilon: int, scan):
    """(t, logs) per block of scan, ctx.line_logs (every x) or ctx.orbit_logs
    (one x per orbit) over [0, n): logs[i] is the log of the left-hand side
    at x = pi^t[i], -1 where it is 0.  x^(3^ell) has the log t*3^ell mod n,
    -x the log t + h, the sums go through the Zech table, and the product
    adds logs."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    for t, (x3l, minus_x) in scan(0, ctx.order, (3**ctx.ell, 0), (1, ctx.half)):
        la = ctx.log_add(x3l, ctx.log_of_scalar(epsilon))
        lb = ctx.log_add(x3l, minus_x)
        logs = ctx.wrap(la + lb)
        np.copyto(logs, -1, where=(la < 0) | (lb < 0))
        yield t, logs


def _solution_logs(ctx: FieldCtx, epsilon: int, c: int) -> list[int]:
    """Ascending logs t of every x = pi^t with lhs(x) = c, for c in GF(3):
    the hits among the orbit representatives, each expanded to its orbit."""
    target = ctx.log_of_scalar(c) if c else -1
    blocks = _lhs_logs(ctx, epsilon, ctx.orbit_logs)
    reps = [int(r) for t, logs in blocks for r in t[logs == target]]
    return sorted(j for r in reps for j in polyring.cyclotomic_coset(r, ctx.m))


def lemma_check(ctx: FieldCtx, epsilon: int) -> LemmaReport:
    """Count the x in GF(3^m)* where the left-hand side equals 1, by the orbit
    scan: every x lies in the orbit of one representative."""
    count = len(_solution_logs(ctx, epsilon, 1))
    return LemmaReport(m=ctx.m, epsilon=epsilon, solution_count=count, scanned=ctx.order)

