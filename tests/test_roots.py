import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tritcodes import lemma, polyring
from tritcodes.gf3m import make_field
from tritcodes.polyring import lemma_polynomial, nonzero_root_count

from reference import nonzero_root_logs


def _sparse(rng, terms, below):
    """terms random exponents in [1, below) with random coefficients in GF(3)*,
    and a random constant term, 0 included."""
    p = {e: rng.choice((1, 2)) for e in rng.sample(range(1, below), terms)}
    return {**p, 0: rng.randrange(3)}


def _cube_minus(r):
    """R^3 - R: its roots are those of R, R - 1 and R + 1."""
    p = {3 * e: c for e, c in r.items()}
    for e, c in r.items():
        p[e] = (p.get(e, 0) - c) % 3
    return p


def _seeded_polynomials(m, count):
    """Sparse P over GF(3) of degree below 2*3^m: a random P, and R^3 - R for a
    random R, which vanishes at 0 and most often elsewhere too."""
    rng = random.Random(m)
    out = []
    for i in range(count):
        if i % 2:
            out.append(_cube_minus(_sparse(rng, rng.randint(2, 3), 2 * 3 ** (m - 1))))
        else:
            out.append(_sparse(rng, rng.randint(2, 5), 2 * 3**m))
    return out


@pytest.mark.parametrize("m", [3, 5, 7])
def test_root_count_against_brute_force(m):
    """The root count equals a table evaluation at every x in GF(3^m)*, for
    seeded sparse polynomials, most of which have roots; some vanish at 0."""
    ctx = make_field(m)
    polys = _seeded_polynomials(m, 30)
    counts = []
    for p in polys:
        want = len(nonzero_root_logs(ctx, p))
        assert nonzero_root_count(p, m) == want, p
        counts.append(want)
    assert sum(c > 0 for c in counts) > 20 and max(counts) > 2
    assert 0 < sum(p[0] == 0 for p in polys) < 30


def test_root_count_of_special_polynomials():
    """x^(3^m) - x vanishes on the whole field; a nonzero constant and x^k
    nowhere in GF(3^m)*; x^2 - 1 at x = 1 and -1.  Coefficients count mod 3."""
    for m in (3, 5):
        assert nonzero_root_count({3**m: 1, 1: 2}, m) == 3**m - 1
        assert nonzero_root_count({3**m + 1: 4, 2: -1}, m) == 3**m - 1
        assert nonzero_root_count({0: 2}, m) == 0
        assert nonzero_root_count({7: 1}, m) == 0
        assert nonzero_root_count({2: 1, 0: 2}, m) == 2
    with pytest.raises(ValueError):
        nonzero_root_count({4: 3}, 3)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_lemma_counts_match_the_orbit_scan(m):
    """For both epsilon and every c in GF(3), the root count of lhs - c is the
    number of solutions the orbit scan finds: 0 for c = 1 (the lemma) and
    c = 2, and 2 for c = 0, the roots x = 1 and x = -1."""
    ctx = make_field(m)
    for eps in (1, 2):
        got = [nonzero_root_count(lemma_polynomial(m, eps, c), m) for c in (0, 1, 2)]
        assert got == [len(lemma._solution_logs(ctx, eps, c)) for c in (0, 1, 2)]
        assert got == [2, 0, 0]


def test_lemma_polynomial():
    # (x^3 + 1)(x^3 - x) - 2 = x^6 - x^4 + x^3 - x - 2 at m = 3
    assert lemma_polynomial(3, 1, 2) == {6: 1, 4: 2, 3: 1, 1: 2, 0: 1}
    with pytest.raises(ValueError):
        lemma_polynomial(3, 0, 1)


def test_imports_no_numpy():
    """A fresh interpreter that imports tritcodes.polyring and counts the m = 13
    lemma's solutions loads no numpy."""
    src = str(Path(polyring.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from tritcodes.polyring import lemma_polynomial, nonzero_root_count\n"
        "print(nonzero_root_count(lemma_polynomial(13, 1, 1), 13), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr
