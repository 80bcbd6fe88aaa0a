"""End-to-end acceptance gate.

Eight criteria covering the full surface: the Singmaster family search,
the golden-ratio bracket, oracle equivalence of the two search routes,
the census, curve certification, the quadratic-factor sweep, curve
intersection, and the identity suites. Each criterion emits exactly one
PASS or FAIL line on stdout (run pytest with -s to watch them); stated
runtime ceilings are asserted, not aspirational.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pascalrepeats.census import intersect_curves, multiplicity, scan_high_multiplicity
from pascalrepeats.curves import Finiteness, Verdict, certify, quad_factor_test
from pascalrepeats.polynomials import UniPoly
from pascalrepeats.ratios import ShiftPair, bracket, isolate_zeta, ratio_identity_check, row_expansion_check
from pascalrepeats.search import brute_search, equality_check, family_member, search

GOLDEN_QUAD = UniPoly([-1, -1, 1])


@contextmanager
def criterion(n: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {summary}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {n}: {summary} ({elapsed:.2f}s)", flush=True)


def test_criterion_1_singmaster_family_search():
    with criterion(1, "search (1,1) to y=2000 finds exactly the four family members"):
        start = time.perf_counter()
        solutions = search(ShiftPair(1, 1), 2000)
        elapsed = time.perf_counter() - start
        nontrivial = [s for s in solutions if not s.trivial]
        assert [(s.x, s.y) for s in nontrivial] == [
            (15, 5),
            (104, 39),
            (714, 272),
            (4895, 1869),
        ]
        for s, i in zip(nontrivial, (1, 2, 3, 4)):
            m = family_member(i)
            assert (s.x, s.y) == (m.n + 1, m.k + 1)
            assert s.value == m.value
        assert nontrivial[0].value == 3003
        assert elapsed < 1.0, f"search took {elapsed:.3f}s, limit is 1s"


def test_criterion_2_bracket_pins_the_golden_ratio():
    with criterion(2, "solution brackets trap phi; first two are exact Fibonacci quotients"):
        shift = ShiftPair(1, 1)
        phi = isolate_zeta(shift, Fraction(1, 10**12))
        assert phi.width <= Fraction(1, 10**12)
        for x, y in [(15, 5), (104, 39), (714, 272), (4895, 1869)]:
            lo, hi = bracket(x, y, shift)
            # phi lies strictly inside its enclosure, so these are strict
            assert lo <= phi.lo and phi.hi <= hi
        assert bracket(15, 5, shift) == (Fraction(3, 2), Fraction(2))
        assert bracket(104, 39, shift) == (Fraction(8, 5), Fraction(5, 3))


def test_criterion_3_search_equals_brute_force():
    with criterion(3, "bisection row solver and brute force agree on all shifts in {1,2,3}^2, x <= 600"):
        start = time.perf_counter()
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                shift = ShiftPair(a, b)
                brute = brute_search(shift, 600)
                fast = [s for s in search(shift, 600) if s.x <= 600]
                assert fast == brute, f"disagreement at shift ({a},{b})"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, limit is 60s"


def test_criterion_4_census():
    with criterion(4, "N(3003)=8, N(120)=6 with the named rows, scan(10^4, 8)={3003}"):
        start = time.perf_counter()
        assert multiplicity(3003).count == 8
        rec = multiplicity(120)
        assert rec.count == 6
        for pos in [(120, 1), (16, 2), (10, 3)]:
            assert pos in rec.occurrences
        assert [r.t for r in scan_high_multiplicity(10**4, 8)] == [3003]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"census took {elapsed:.1f}s, limit is 5s"


def test_criterion_5_curve_certificates():
    with criterion(5, "certify(2,2): smooth, genus 3; certify(1,1): genus 0, InfiniteFamily"):
        start = time.perf_counter()
        quartic = certify(ShiftPair(2, 2))
        assert quartic.affine_nonsingular is Verdict.YES
        assert quartic.infinity_nonsingular is Verdict.YES
        assert quartic.genus == 3
        conic = certify(ShiftPair(1, 1))
        assert conic.genus == 0
        assert conic.finiteness is Finiteness.INFINITE_FAMILY
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"certification took {elapsed:.1f}s, limit is 10s"


def test_criterion_6_quadratic_factor_sweep():
    with criterion(6, "x^n-(x+1)^r has a real quadratic factor iff n=2r, always x^2-x-1"):
        start = time.perf_counter()
        for n in range(2, 41):
            for r in range(1, n):
                found = quad_factor_test(n, r)
                if n == 2 * r:
                    assert found == GOLDEN_QUAD, (n, r)
                else:
                    assert found is None, (n, r)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.1f}s, limit is 5s"


def test_criterion_7_curve_intersection():
    with criterion(7, "solutions shared by shifts (104,1) and (110,2) up to x=200 include (120,1)"):
        points = intersect_curves(ShiftPair(104, 1), ShiftPair(110, 2), 200)
        assert (120, 1) in points


def test_criterion_8_identity_suites():
    with criterion(8, "ratio identity matches binomial equality on the full box; row expansion holds"):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                shift = ShiftPair(a, b)
                for x in range(0, 601):
                    for y in range(a + 1, x + 1):
                        assert ratio_identity_check(x, y, shift) == equality_check(x, y, shift)
        rng = random.Random(20260826)
        for _ in range(500):
            n = rng.randrange(0, 101)
            k = rng.randrange(0, n + 1) if n else 0
            r = rng.randrange(0, n + 1) if n else 0
            assert row_expansion_check(n, k, r)
