"""Exhaustive confirmation that (x^(3^ell) + eps)(x^(3^ell) - x) = 1 has
no solution in GF(3^m)* for eps in GF(3)*: the orbit scan, one of the
lemma's two independent paths.  The other, polyring.nonzero_root_count, reads
no field table.  reports() counts by it and, with orbit_scan, by both, and
raises Inconsistent when they differ; lemma-check runs one path, report both.

Brute force is the point, one Frobenius orbit at a time: the left-hand
side has GF(3) coefficients, so lhs(x^3) = lhs(x)^3, and a c in GF(3) has
c^3 = c.  Each solution set of lhs = c is therefore a union of orbits of
x -> x^3, and evaluating at x = pi^t for the least t of each orbit
(ctx.orbit_reps, about 3^m/m of them) decides it exactly, independent of
any square/nonsquare argument.  The scan reads the Zech table.
"""

from __future__ import annotations

from typing import NamedTuple

from . import polyring
from .exceptions import Inconsistent
from .gf3m import FieldCtx


class LemmaReport(NamedTuple):
    """How many x in GF(3^m)* solve lhs(x) = 1 for one epsilon, by either
    path; scanned is 3^m - 1, the nonzero elements the verdict covers."""

    m: int
    epsilon: int
    solution_count: int
    scanned: int

    def to_json_dict(self) -> dict:
        return self._asdict()


def _lhs_logs(ctx: FieldCtx, epsilon: int, positions):
    """(t, logs) per block of ctx.scan_logs over positions, range(n) (every
    x) or ctx.orbit_reps (one x per orbit): logs[i] is the log of the
    left-hand side at x = pi^t[i], -1 where it is 0.  x^(3^ell) has the log
    t*3^ell mod n, -x the log t + h, the sums go through the Zech table, and
    the product adds logs."""
    if epsilon not in (1, 2):
        raise ValueError(f"epsilon must be 1 or 2, got {epsilon}")
    for t, (x3l, minus_x) in ctx.scan_logs(positions, (3**ctx.ell, 0), (1, ctx.half)):
        la = ctx.log_add(x3l, ctx.log_of_scalar(epsilon))
        lb = ctx.log_add(x3l, minus_x)
        logs = ctx.wrap(la + lb)
        logs[(la < 0) | (lb < 0)] = -1
        yield t, logs


def _solution_logs(ctx: FieldCtx, epsilon: int, c: int) -> list[int]:
    """Ascending logs t of every x = pi^t with lhs(x) = c, for c in GF(3):
    the hits among the orbit representatives, each expanded to its orbit."""
    target = ctx.log_of_scalar(c) if c else -1
    blocks = _lhs_logs(ctx, epsilon, ctx.orbit_reps)
    reps = [int(r) for t, logs in blocks for r in t[logs == target]]
    return sorted(j for r in reps for j in polyring.cyclotomic_coset(r, ctx.m))


def lemma_check(ctx: FieldCtx, epsilon: int) -> LemmaReport:
    """Count the x in GF(3^m)* where the left-hand side equals 1, by the orbit
    scan: every x lies in the orbit of one representative."""
    count = len(_solution_logs(ctx, epsilon, 1))
    return LemmaReport(m=ctx.m, epsilon=epsilon, solution_count=count, scanned=ctx.order)


def reports(ctx: FieldCtx, orbit_scan: bool) -> list[LemmaReport]:
    """The epsilon = 1, 2 reports from polyring's root count, which reads no
    field table.  With orbit_scan, lemma_check counts again, and a count that
    differs raises Inconsistent."""
    out = []
    for eps in (1, 2):
        count = polyring.nonzero_root_count(polyring.lemma_polynomial(ctx.m, eps, 1), ctx.m)
        scan = lemma_check(ctx, eps).solution_count if orbit_scan else count
        if scan != count:
            raise Inconsistent(
                f"lemma, epsilon={eps}: the root count finds {count} solutions,"
                f" the orbit scan {scan}"
            )
        out.append(LemmaReport(ctx.m, eps, count, ctx.order))
    return out
