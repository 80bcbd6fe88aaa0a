import math
import random
from fractions import Fraction

import pytest

from pascalrepeats.errors import PreconditionError
from pascalrepeats.ratios import (
    Interval,
    ShiftPair,
    bracket,
    irrationality_check,
    isolate_zeta,
    ratio_identity_check,
    row_expansion_check,
    zeta_poly,
)
from pascalrepeats.search import equality_check

EPS12 = Fraction(1, 10**12)


def test_shift_pair_validation():
    s = ShiftPair(2, 3)
    assert s.degree == 5
    for bad in [(0, 1), (1, 0), (-1, 2), (True, 1), (1, True)]:
        with pytest.raises(PreconditionError):
            ShiftPair(*bad)
    with pytest.raises(PreconditionError):
        ShiftPair(1.0, 1)


def test_interval_basics():
    iv = Interval(Fraction(1), Fraction(2))
    assert iv.width == 1
    assert iv.midpoint == Fraction(3, 2)
    assert iv.lo <= Fraction(3, 2) <= iv.hi
    assert not iv.lo <= Fraction(5, 2) <= iv.hi
    with pytest.raises(PreconditionError):
        Interval(Fraction(2), Fraction(1))


def test_zeta_poly_known_expansions():
    # t^2 - (t+1) and t^3 - (t+1)^2
    assert zeta_poly(ShiftPair(1, 1)).coeffs == (-1, -1, 1)
    assert zeta_poly(ShiftPair(2, 1)).coeffs == (-1, -2, -1, 1)
    assert zeta_poly(ShiftPair(1, 2)).coeffs == (-1, -1, 0, 1)


def test_zeta_poly_single_sign_change_in_coefficients():
    # Descartes: exactly one positive root for every shift
    for a in range(1, 6):
        for b in range(1, 6):
            coeffs = zeta_poly(ShiftPair(a, b)).coeffs
            signs = [c for c in coeffs if c != 0]
            changes = sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)
            assert changes == 1


@pytest.mark.parametrize(
    "a,b,decimal",
    [
        (1, 1, 1.618033988749895),  # golden ratio
        (1, 2, 1.324717957244746),  # plastic number
        (2, 1, 2.147899035704787),
    ],
)
def test_isolate_zeta_frozen_values(a, b, decimal):
    iv = isolate_zeta(ShiftPair(a, b), EPS12)
    assert iv.width <= EPS12
    assert abs(float(iv.midpoint) - decimal) < 1e-11


def test_isolate_zeta_endpoints_straddle_the_root():
    for a, b in [(1, 1), (2, 3), (4, 1), (1, 4)]:
        shift = ShiftPair(a, b)
        p = zeta_poly(shift)
        iv = isolate_zeta(shift, Fraction(1, 1000))
        assert p.sign_at(iv.lo.numerator, iv.lo.denominator) < 0 < p.sign_at(iv.hi.numerator, iv.hi.denominator)


def test_isolate_zeta_refinement_is_nested():
    shift = ShiftPair(2, 2)
    coarse = isolate_zeta(shift, Fraction(1, 100))
    fine = isolate_zeta(shift, Fraction(1, 10**9))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_isolate_zeta_rejects_nonpositive_eps():
    with pytest.raises(PreconditionError):
        isolate_zeta(ShiftPair(1, 1), Fraction(0))


def test_golden_ratio_satisfies_its_polynomial():
    # phi^2 = phi + 1 pinned through the enclosure
    iv = isolate_zeta(ShiftPair(1, 1), EPS12)
    phi = (1 + math.sqrt(5)) / 2
    assert float(iv.lo) < phi < float(iv.hi)


def test_irrationality_check_all_small_shifts():
    for a in range(1, 5):
        for b in range(1, 5):
            witness = irrationality_check(ShiftPair(a, b))
            assert witness.irrational
            assert bool(witness)
            candidates = dict(witness.candidate_values)
            assert set(candidates) == {1, -1}
            assert all(v != 0 for v in candidates.values())


def test_bracket_known_solution_values():
    assert bracket(15, 5, ShiftPair(1, 1)) == (Fraction(3, 2), Fraction(2))
    assert bracket(104, 39, ShiftPair(1, 1)) == (Fraction(8, 5), Fraction(5, 3))


def test_bracket_requires_y_above_a():
    with pytest.raises(PreconditionError):
        bracket(15, 1, ShiftPair(1, 1))
    with pytest.raises(PreconditionError):
        bracket(20, 2, ShiftPair(2, 1))


def test_ratio_identity_matches_equality_on_small_box():
    for a in (1, 2):
        for b in (1, 2):
            shift = ShiftPair(a, b)
            for x in range(0, 150):
                for y in range(a + 1, x + 1):
                    # math.comb oracle: shares no product code with either check
                    expected = x - a >= y + b and math.comb(x, y) == math.comb(x - a, y + b)
                    assert ratio_identity_check(x, y, shift) == expected, (a, b, x, y)
                    assert equality_check(x, y, shift) == expected, (a, b, x, y)


def test_ratio_identity_true_at_known_solutions():
    assert ratio_identity_check(15, 5, ShiftPair(1, 1))
    assert ratio_identity_check(104, 39, ShiftPair(1, 1))
    assert not ratio_identity_check(16, 5, ShiftPair(1, 1))
    assert not ratio_identity_check(104, 40, ShiftPair(1, 1))


def test_ratio_identity_domain():
    with pytest.raises(PreconditionError):
        ratio_identity_check(15, 1, ShiftPair(1, 1))
    with pytest.raises(PreconditionError):
        ratio_identity_check(5, 6, ShiftPair(1, 1))


def test_row_expansion_identity_random():
    rng = random.Random(3002)
    for _ in range(200):
        n = rng.randrange(0, 81)
        k = rng.randrange(0, n + 1) if n else 0
        r = rng.randrange(0, n + 1) if n else 0
        assert row_expansion_check(n, k, r)


def test_row_expansion_rejects_r_above_n():
    with pytest.raises(PreconditionError):
        row_expansion_check(5, 2, 6)


def test_family_bracket_gap_respects_the_convergent_cap():
    # at a family solution the bracket endpoints are consecutive
    # convergents of phi, so the row gap between them must stay under the
    # 3/(2q^2) cap on consecutive-convergent spacing (q = the smaller
    # denominator F_{2i}); the gap itself is exactly 1/(F_{2i} F_{2i+1})
    from pascalrepeats.combinatorics import fibonacci
    from pascalrepeats.search import family_member

    for i in (1, 2, 3, 4):
        m = family_member(i)
        x, y = m.n + 1, m.k + 1
        lo, hi = bracket(x, y, ShiftPair(1, 1))
        assert hi - lo == Fraction(1, fibonacci(2 * i) * fibonacci(2 * i + 1))
        assert hi - lo < Fraction(3, 2 * fibonacci(2 * i) ** 2)

