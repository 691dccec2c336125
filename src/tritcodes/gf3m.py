"""Exact GF(3^m) for odd m: modulus validation, contexts and their tables.

check_modulus validates a modulus in GF(3)[x], without numpy; make_field
wraps a valid one in a FieldCtx, one shared context per default modulus.
The exp table maps a log j to the packed element pi^j, an int in [0, 3^m)
whose base-3 digit i is the coefficient of x^i.  The primitive element pi
is always the residue class of x.  Each table is built on first read, in
its own cached property of FieldCtx: the exp table, the Zech table from it
(m <= 13, about 1.6M entries each at the top) through a log table that is
freed once the Zech table is built, the trace table, which only the
dual-spectrum paths read, and the Frobenius orbit representatives.  So a
new context holds no table, and each command builds only the tables it
reads.  The context is immutable and safe to share.  The exp and Zech
tables are int32; arithmetic on their entries runs in int64 or ints.  numpy
is imported on the first table read, not before: a command that reads no
table, or whose modulus is refused, never loads it.

Addition runs in the log domain through the Zech table
zech[k] = log(1 + pi^k):  pi^a + pi^b = pi^(a + zech[b - a]).  With
h = (3^m - 1)/2, -1 = pi^h, so negation adds h to a log and the scalar
c in {1, 2} adds (c - 1)*h.  The log of zero is -1: zech[h] = -1.
"""

from __future__ import annotations

from functools import cache, cached_property

from . import polyring
from .exceptions import EvenDegree, NotPrimitive, UnsupportedDegree


class _Numpy:  # numpy, imported on the first attribute read, which rebinds np
    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()

MAX_M = 13

# Positions per block of FieldCtx.scan_logs and orbit_reps and of the table
# builds, read at each call: int64 block arrays of 256 KiB, L2-sized.
BLOCK = 1 << 15

# Monic primitive polynomials used when no modulus is supplied, ascending
# trit lists.  Every entry is pinned: its generator polynomial and dual
# enumerator match the shipped fixtures/m{m}.json bit-exactly.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    3: (1, 2, 0, 1),  # x^3 + 2x + 1
    5: (1, 2, 0, 0, 0, 1),  # x^5 + 2x + 1
    7: (1, 0, 2, 0, 0, 0, 0, 1),  # x^7 + 2x^2 + 1
    9: (1, 1, 2, 2, 0, 0, 0, 0, 0, 1),  # x^9 + 2x^3 + 2x^2 + x + 1
    11: (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^11 + 2x^2 + 1
    13: (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^13 + 2x + 1
}


def check_modulus(m: int, modulus=None) -> polyring.Poly:
    """The modulus of GF(3^m), the default for m when None, checked in GF(3)[x]
    without numpy, one rule per argument: m odd (else EvenDegree) and in
    3..MAX_M (else UnsupportedDegree); the modulus a primitive polynomial of
    degree m, monic with x of order 3^m - 1 modulo it, which makes it
    irreducible (else NotPrimitive)."""
    if m % 2 == 0:
        raise EvenDegree(f"m must be odd, got {m}")
    if not 3 <= m <= MAX_M:
        raise UnsupportedDegree(f"m must be in 3..{MAX_M}, got {m}")
    mod = DEFAULT_MODULI[m] if modulus is None else polyring.normalize(modulus)
    if polyring.degree(mod) != m or mod[-1] != 1 or not polyring.is_primitive(mod):
        text = polyring.format_poly(mod)
        raise NotPrimitive(f"modulus is not a primitive polynomial of degree {m}: {text}")
    return mod


def make_field(m: int, modulus=None) -> FieldCtx:
    """A GF(3^m) context over a modulus that passes check_modulus (None: the
    default for m), with no table built yet.  The default modulus of each m
    has one shared context; any other modulus gets a fresh one on each call."""
    mod = check_modulus(m, modulus)
    return _default_field(m) if mod == DEFAULT_MODULI[m] else FieldCtx(m, mod)


@cache
def _default_field(m: int) -> FieldCtx:
    """The context of DEFAULT_MODULI[m], built once, so its tables are too."""
    return FieldCtx(m, DEFAULT_MODULI[m])


class FieldCtx:
    """Immutable GF(3^m) context: modulus, primitive element pi = x, tables
    (exp, zech, trace_by_log, orbit_reps), each built in its own property.

    Do not instantiate directly; use make_field(), which validates the
    modulus (x must be primitive modulo it, or exp repeats an element) and
    shares one context per default modulus.
    """

    def __init__(self, m: int, modulus: tuple[int, ...]):
        self.m = m
        self.ell = (m - 1) // 2
        self.modulus = modulus
        self.size = 3**m
        self.order = self.size - 1
        self.half = self.order // 2  # log of -1

    @cached_property
    def exp(self) -> np.ndarray:
        """The packed element pi^j = x^j, indexed by j (int32).  Its top digit
        s_j is a _recurring sequence; row r - 1 is row r shifted plus f_r*s,
        since x^(j+1) = x * x^j, so row r reads s up to entry n - 1 + r.  The
        rows are summed one block of BLOCK entries at a time."""
        m, f, n = self.m, self.modulus, self.order
        s = _recurring([0] * (m - 1) + [1], f, n + m - 1)
        exp = np.zeros(n, dtype=np.int32)
        for lo in range(0, n, BLOCK):
            acc, row = exp[lo : lo + BLOCK], s[lo : lo + BLOCK + m - 1]
            for r in range(m - 1, -1, -1):
                acc *= 3
                acc += row[: len(acc)]
                if r:  # a shift alone where f_r = 0
                    row = row[1:]
                    row = _mod3(row + f[r] * s[lo : lo + len(row)]) if f[r] else row
        return exp

    @cached_property
    def zech(self) -> np.ndarray:
        """zech[k] = log(1 + pi^k) (int32), -1 at k = h.  The log of each packed
        element, a local, is exp scattered by blocks, -1 at 0.  The elements 3b,
        3b + 1, 3b + 2 differ in digit 0 alone, which adding 1 cycles, so in
        rows = log.reshape(-1, 3) each row's logs map to the next one's.  Row 0
        holds 0, 1 and 2: 0 has no log, and 1 + 2 = 0 gives zech[h] = -1."""
        log = np.empty(self.size, dtype=np.int32)
        log[0] = -1  # exp writes every other entry exactly once, as x is primitive
        for lo in range(0, self.order, BLOCK):
            part = self.exp[lo : lo + BLOCK]
            np.put(log, part, np.arange(lo, lo + len(part), dtype=np.int32), mode="clip")
        rows = log.reshape(-1, 3)
        zech = np.empty(self.order, dtype=np.int32)
        zech[0], zech[self.half] = rows[0, 2], -1  # 1 + 1 = 2 and 1 + 2 = 0
        for lo in range(1, len(rows), BLOCK):  # blocks keep np.put's index copies small
            part = rows[lo : lo + BLOCK]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                np.put(zech, part[:, a], part[:, b])
        return zech

    @cached_property
    def trace_by_log(self) -> np.ndarray:
        """Absolute trace GF(3^m) -> GF(3) of pi^j, indexed by j (int8): a
        _recurring sequence (Tr is linear) started by Tr(x^k) for k < m, the
        power sums of the roots of the modulus f, by Newton's identities:
        Tr(1) = m and Tr(x^k) = -(k*f_(m-k) + sum_(0<i<k) f_(m-i)*Tr(x^(k-i))),
        all mod 3."""
        m, f = self.m, self.modulus
        p = [m % 3]
        for k in range(1, m):
            p.append(-(k * f[m - k] + sum(f[m - i] * p[k - i] for i in range(1, k))) % 3)
        return _recurring(p, f, self.order)

    @cached_property
    def orbit_reps(self) -> np.ndarray:
        """The least t of each orbit {t*3^k mod n} of the Frobenius multiplier
        on [0, n), ascending (int64): 0 first, 122,642 of them at m = 13.

        Multiplying t by 3 mod n rotates its m base-3 digits, so t is the
        least of its orbit iff no rotation is smaller.  The least rotation
        starts with the smallest digit, 0 or 1 (all 2s is t = n), so only
        t < 2*3^(m-1) are tried: BLOCK uint32 candidates at a time, each
        rotated m - 1 times by 3t and two wraps (3t < 3n) and dropped as
        soon as a rotation undercuts it."""
        top, block = 2 * 3 ** (self.m - 1), BLOCK
        reps = []
        for lo in range(0, top, block):
            cand = np.arange(lo, min(lo + block, top), dtype=np.uint32)
            rot = cand.copy()
            for _ in range(self.m - 1):
                rot *= 3
                self.wrap(self.wrap(rot))
                keep = cand <= rot
                cand, rot = cand[keep], rot[keep]
            reps.append(cand)
        return np.concatenate(reps).astype(np.int64)

    # -- log-domain helpers (ints or numpy arrays of logs) ---------------

    def log_of_scalar(self, c: int) -> int:
        """log of c in GF(3)*: 0 for 1, h for 2 = -1."""
        return (c - 1) * self.half

    def log_add(self, la, lb):
        """log(pi^la + pi^lb) for logs in [0, n) (ints or int64 arrays) of
        nonzero elements; -1 where the sum is 0."""
        z = self.zech.take(lb - la, mode="wrap")  # a negative index wraps mod n
        out = self.wrap(np.asarray(la + z, dtype=np.int64))
        out[z < 0] = -1
        return out

    def mod(self, x: np.ndarray) -> np.ndarray:
        """x mod n in place for an int64 array x: numpy's // is ~5x faster than %."""
        x -= x // self.order * self.order
        return x

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """x mod n in place for an integer array x in [0, 2n): as unsigned,
        x - n is huge exactly where x < n, so the minimum is the residue."""
        u = x.view(f"u{x.itemsize}")
        np.minimum(u, u - self.order, out=u)
        return x

    def scan_logs(self, positions, *terms):
        """(t, logs) per block of at most BLOCK positions t of positions, an
        ascending range or int64 array: t an int64 array, logs one int64
        array (e*t + c) mod n, the log of pi^(e t + c), per (e, c) in terms.
        A range block becomes its own np.arange, so no array of every
        position is built."""
        n, block = self.order, BLOCK
        for lo in range(0, len(positions), block):
            t = positions[lo : lo + block]
            if isinstance(t, range):
                t = np.arange(t.start, t.stop, t.step, dtype=np.int64)
            yield t, [self.mod(e % n * t + c) for e, c in terms]

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={polyring.format_poly(self.modulus)})"


def _recurring(first, modulus: tuple[int, ...], length: int) -> np.ndarray:
    """`length` int8 terms of the linear recurring sequence of the modulus f
    that starts with the m trits `first`: s_j = lam(x^j mod f) for a linear
    lam, so x^(j+L) = x^j * (x^L mod f) gives s_(j+L) = sum_k a_k s_(j+k).
    The prefix doubles from m slices: O(m * length) int8 operations."""
    m = len(modulus) - 1
    s = np.zeros(length, dtype=np.int8)
    s[:m] = first
    known = m
    while known < length:
        # s_(known+j) for j < known - m + 1 reads only s[:known]
        hi = min(2 * known - m + 1, length)
        a = polyring.poly_pow_mod(polyring.X, known, modulus)
        s[known:hi] = _lincomb3(a, [s[k : k + hi - known] for k in range(m)])
        known = hi
    return s


def _mod3(x: np.ndarray) -> np.ndarray:
    """x mod 3 in place for an int8 array x in [0, 54), FieldCtx.wrap's trick: as
    uint8, x - k is huge exactly where x < k.  Several times faster than int8 % 3."""
    u = x.view(np.uint8)
    for k in (27, 9, 9, 3, 3):
        np.minimum(u, u - k, out=u)
    return x


def _lincomb3(coeffs, rows) -> np.ndarray:
    """sum(c * row) mod 3 over up to 13 int8 rows of trits, for trit coefficients c."""
    acc = np.zeros(len(rows[0]), dtype=np.int8)  # in [0, 52]
    for c, row in zip(coeffs, rows):
        if c:
            acc += c * row
    return _mod3(acc)
