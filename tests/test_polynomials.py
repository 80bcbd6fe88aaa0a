import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import polynomials
from pascalrepeats.errors import PreconditionError, ZeroPolynomialError
from pascalrepeats.polynomials import (
    BiPoly,
    UniPoly,
    bipoly_resultant,
    format_bipoly,
    format_unipoly,
    isolate_real_roots,
    root_bound,
    unipoly_gcd,
)


def sylvester_resultant(p: UniPoly, q: UniPoly) -> int:
    """Independent oracle: the Sylvester determinant over Fraction.

    Rows of p come first, matching the convention of the production
    subresultant routine. Plain fraction Gaussian elimination; slow but
    unrelated to the code under test.
    """
    m, n = p.degree, q.degree
    assert m >= 0 and n >= 0
    size = m + n
    if size == 0:
        return 1
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for r in range(col + 1, size):
            f = mat[r][col] / inv
            if f:
                for c in range(col, size):
                    mat[r][c] -= f * mat[col][c]
    assert det.denominator == 1
    return int(det)


def y_resultant(p: UniPoly, q: UniPoly) -> int:
    """Res(p, q) by bipoly_resultant, with p and q read as polynomials in y alone."""
    r = bipoly_resultant(*(BiPoly({(0, j): c for j, c in enumerate(g.coeffs)}) for g in (p, q)), "y")
    assert r.degree <= 0
    return r(0)


def divides(d: UniPoly, p: UniPoly) -> bool:
    """True when d divides p exactly over the integers."""
    try:
        p.exact_div(d)
    except ArithmeticError:
        return False
    return True


def random_unipoly(rng: random.Random, max_deg: int, zero_ok: bool = False) -> UniPoly:
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(-9, 10) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-9, 10) if c != 0]))
    p = UniPoly(coeffs)
    if zero_ok and rng.random() < 0.05:
        return UniPoly([])
    return p


# ---------------------------------------------------------------------------
# UniPoly basics
# ---------------------------------------------------------------------------


def test_unipoly_trims_trailing_zeros_and_reports_degree():
    p = UniPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.leading == 2
    assert UniPoly([]).degree == -1
    assert UniPoly([0, 0]).degree == -1


def test_unipoly_is_immutable():
    p = UniPoly([1, 1])
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


def test_unipoly_equality_and_hash():
    assert UniPoly([1, 0, 3]) == UniPoly([1, 0, 3, 0])
    assert hash(UniPoly([5])) == hash(UniPoly.constant(5))
    assert UniPoly([]) != UniPoly([1])


def test_unipoly_arithmetic_agrees_with_evaluation():
    rng = random.Random(2001)
    for _ in range(200):
        p = random_unipoly(rng, 6, zero_ok=True)
        q = random_unipoly(rng, 6, zero_ok=True)
        v = rng.randrange(-12, 13)
        assert (p + q)(v) == p(v) + q(v)
        assert (p - q)(v) == p(v) - q(v)
        assert (p * q)(v) == p(v) * q(v)
        assert (-p)(v) == -p(v)
        assert (3 * p)(v) == 3 * p(v)


def test_unipoly_power():
    p = UniPoly([1, 1])  # x + 1
    assert (p**4).coeffs == (1, 4, 6, 4, 1)
    assert (p**0) == UniPoly.constant(1)
    q = UniPoly([-1, 2])
    for e in range(5):
        assert (q**e)(7) == q(7) ** e


def test_unipoly_sign_at_matches_fraction_evaluation():
    rng = random.Random(2002)
    for _ in range(200):
        p = random_unipoly(rng, 5)
        q = Fraction(rng.randrange(-50, 51), rng.randrange(1, 17))
        exact = sum(c * q**i for i, c in enumerate(p.coeffs))
        want = 0 if exact == 0 else (1 if exact > 0 else -1)
        assert p.sign_at(q.numerator, q.denominator) == want
        # the same point as an unreduced u/w
        k = rng.randrange(1, 2**40)
        assert p.sign_at(q.numerator * k, q.denominator * k) == want


def test_unipoly_derivative_product_rule():
    rng = random.Random(2003)
    for _ in range(50):
        p = random_unipoly(rng, 4)
        q = random_unipoly(rng, 4)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs


def test_unipoly_content_and_primitive_part():
    p = UniPoly([6, -9, 12])
    assert p.content() == 3
    assert p.primitive_part() == UniPoly([2, -3, 4])
    assert UniPoly([]).content() == 0


def test_unipoly_exact_div_roundtrip_and_failure():
    rng = random.Random(2004)
    for _ in range(100):
        p = random_unipoly(rng, 5)
        q = random_unipoly(rng, 4)
        assert (p * q).exact_div(q) == p
    with pytest.raises(ArithmeticError):
        UniPoly([1, 0, 1]).exact_div(UniPoly([1, 1]))  # x^2+1 over x+1


def test_exact_div_detects_planted_factor():
    d = UniPoly([-1, -1, 1])  # x^2 - x - 1
    p = d * UniPoly([3, 0, -2, 1])
    assert p.exact_div(d) == UniPoly([3, 0, -2, 1])
    assert not divides(d, UniPoly([1, 1, 1]))


def test_format_unipoly_readable():
    assert format_unipoly(UniPoly([-1, -1, 1])) == "x^2 - x - 1"
    assert format_unipoly(UniPoly([])) == "0"
    assert format_unipoly(UniPoly([2])) == "2"
    assert format_unipoly(UniPoly([0, -3, 0, 1]), var="t") == "t^3 - 3*t"


# ---------------------------------------------------------------------------
# Resultants against the Sylvester oracle
# ---------------------------------------------------------------------------


def test_resultant_matches_sylvester_on_random_pairs():
    rng = random.Random(2010)
    for _ in range(150):
        p = random_unipoly(rng, 6)
        q = random_unipoly(rng, 6)
        assert y_resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_zero_iff_planted_common_root():
    rng = random.Random(2011)
    for _ in range(60):
        r = rng.randrange(-6, 7)
        common = UniPoly([-r, 1])  # x - r
        p = common * random_unipoly(rng, 4)
        q = common * random_unipoly(rng, 4)
        assert y_resultant(p, q) == 0


def test_resultant_known_values():
    # Res(x-2, x-3) = det [[1,-2],[1,-3]] = -1
    assert y_resultant(UniPoly([-2, 1]), UniPoly([-3, 1])) == -1
    # Res(x^2-1, x^2-4) = (1-4)(1-4) = 9
    assert y_resultant(UniPoly([-1, 0, 1]), UniPoly([-4, 0, 1])) == 9
    # Res(x^2-x-1, derivative) = discriminant sign convention: -(-5) fits
    p = UniPoly([-1, -1, 1])
    assert y_resultant(p, p.derivative()) == sylvester_resultant(p, p.derivative())


def test_resultant_swap_sign_rule():
    rng = random.Random(2012)
    for _ in range(60):
        p = random_unipoly(rng, 5)
        q = random_unipoly(rng, 5)
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert y_resultant(p, q) == sign * y_resultant(q, p)


nonzero_unipolys = st.lists(st.integers(-50, 50), min_size=1, max_size=8).map(UniPoly).filter(bool)


@settings(max_examples=150, deadline=None)
@given(nonzero_unipolys, nonzero_unipolys)
def test_resultant_matches_sylvester_property(p, q):
    assert y_resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_with_constant():
    p = UniPoly([1, 5, -2, 7])
    assert y_resultant(p, UniPoly.constant(3)) == 3**p.degree
    assert y_resultant(UniPoly.constant(4), UniPoly.constant(9)) == 1


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(2013)
    for _ in range(40):
        p1 = random_unipoly(rng, 3)
        p2 = random_unipoly(rng, 3)
        q = random_unipoly(rng, 3)
        assert y_resultant(p1 * p2, q) == y_resultant(p1, q) * y_resultant(p2, q)


# ---------------------------------------------------------------------------
# GCD and squarefree part
# ---------------------------------------------------------------------------


def test_gcd_contains_planted_factor_and_divides_both():
    rng = random.Random(2020)
    for _ in range(80):
        g = random_unipoly(rng, 3).primitive_part()
        if g.leading < 0:
            g = -g
        u = random_unipoly(rng, 3)
        v = random_unipoly(rng, 3)
        d = unipoly_gcd(g * u, g * v)
        assert divides(g, d)  # g | gcd
        assert divides(d, g * u)  # gcd | both
        assert divides(d, g * v)
        assert d.leading > 0


def test_gcd_of_coprime_pair_is_constant():
    assert unipoly_gcd(UniPoly([-1, 1]), UniPoly([1, 1])).degree == 0
    assert unipoly_gcd(UniPoly([2, 0, 2]), UniPoly([4, 2])).degree == 0


def test_gcd_with_zero_is_sign_normalized_other():
    # gcd over Z[x] keeps content; only the sign is normalized
    p = UniPoly([2, -4])
    assert unipoly_gcd(p, UniPoly([])) == UniPoly([-2, 4])
    assert unipoly_gcd(UniPoly([]), p) == UniPoly([-2, 4])


def test_gcd_includes_integer_content():
    assert unipoly_gcd(UniPoly([6, 6]), UniPoly.constant(4)) == UniPoly.constant(2)


# ---------------------------------------------------------------------------
# Real root isolation
# ---------------------------------------------------------------------------


def test_root_bound_contains_all_real_roots():
    p = UniPoly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert root_bound(p) >= 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12), st.integers(-(10**20), 10**20).filter(bool))
@example([0], 1)
@example([7, -7], -3)
def test_root_bound_is_the_cauchy_bound_term_by_term(low, lead):
    p = UniPoly(low + [lead])
    assert root_bound(p) == 1 + max(Fraction(abs(c), abs(lead)) for c in low)


def test_isolation_counts_and_locates_known_roots():
    # (x^2-2)(x^2-3): four irrational roots
    p = UniPoly([-2, 0, 1]) * UniPoly([-3, 0, 1])
    intervals = isolate_real_roots(p, width=Fraction(1, 10**6))
    assert len(intervals) == 4
    expected = sorted([-math.sqrt(3), -math.sqrt(2), math.sqrt(2), math.sqrt(3)])
    for (lo, hi), root in zip(intervals, expected):
        assert hi - lo <= Fraction(1, 10**6)
        assert lo <= Fraction(root).limit_denominator(10**12) <= hi or (float(lo) <= root <= float(hi))


def test_isolation_intervals_are_disjoint_and_sorted():
    p = UniPoly([0, 1]) * UniPoly([-1, 1]) * UniPoly([-100, 1]) * UniPoly([1, 1])
    intervals = isolate_real_roots(p, width=Fraction(1, 1000))
    assert len(intervals) == 4
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 < lo2


def test_isolation_returns_exact_rational_roots():
    # (2x-1)(x-3): rational roots may come back with zero width
    p = UniPoly([-1, 2]) * UniPoly([-3, 1])
    intervals = isolate_real_roots(p, width=Fraction(1, 10**9))
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert hi - lo <= Fraction(1, 10**9)
    assert any(lo <= Fraction(1, 2) <= hi for lo, hi in intervals)
    assert any(lo <= 3 <= hi for lo, hi in intervals)


def test_isolation_handles_multiple_roots_via_squarefree_reduction():
    p = UniPoly([-1, 1]) ** 3 * UniPoly([-5, 1]) ** 2
    intervals = isolate_real_roots(p, width=Fraction(1, 1000))
    assert len(intervals) == 2


def test_isolation_no_real_roots():
    assert isolate_real_roots(UniPoly([1, 0, 1])) == []  # x^2 + 1


def test_isolation_dense_integer_roots():
    p = UniPoly([1])
    for r in range(1, 9):
        p = p * UniPoly([-r, 1])
    intervals = isolate_real_roots(p, width=Fraction(1, 100))
    assert len(intervals) == 8
    for r, (lo, hi) in zip(range(1, 9), intervals):
        assert lo <= r <= hi


def test_isolation_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        isolate_real_roots(UniPoly([]))


def test_isolation_of_constant_is_empty():
    assert isolate_real_roots(UniPoly([7])) == []


def test_isolation_random_products_of_linear_factors():
    rng = random.Random(2030)
    for _ in range(25):
        roots = sorted(rng.sample(range(-30, 31), rng.randrange(1, 6)))
        p = UniPoly([1])
        for r in roots:
            p = p * UniPoly([-r, 1])
        intervals = isolate_real_roots(p, width=Fraction(1, 10**4))
        assert len(intervals) == len(roots)
        for r, (lo, hi) in zip(roots, intervals):
            assert lo <= r <= hi


real_linear_factors = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(1, 8), st.integers(1, 3)), min_size=1, max_size=5
)  # (q*x - p)^m as (p, q, m)
rootless_factors = st.sampled_from([(1,), (1, 0, 1), (3, 1, 1), (1, -1, 1), (4, 0, 4, 0, 1)])


@settings(max_examples=80, deadline=None)
@given(real_linear_factors, rootless_factors, st.integers(1, 200))
def test_isolation_of_products_of_linear_factors(factors, rootless, bits):
    p = UniPoly(rootless)
    for num, den, m in factors:
        p = p * UniPoly([-num, den]) ** m
    width = Fraction(1, 2**bits)
    roots = sorted({Fraction(num, den) for num, den, _ in factors})
    intervals = isolate_real_roots(p, width)
    assert len(intervals) == len(roots)
    for r, (lo, hi) in zip(roots, intervals):
        assert lo <= r <= hi and hi - lo <= width
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        # sorted, with no shared interior point; a shared end is not a root
        assert hi1 <= lo2 and (hi1 < lo2 or p.sign_at(hi1.numerator, hi1.denominator) != 0)


def test_sturm_count_from_leading_coefficients_equals_the_count_at_the_root_bound():
    # isolate_real_roots reads V(-inf) - V(+inf) from the chain's leading terms; at +-root_bound(sf),
    # sf the squarefree part, the chain must give the same count: sf has no real root outside
    rng = random.Random(2031)
    complex_factors = [UniPoly([1, 0, 1]), UniPoly([5, -2, 1]), UniPoly([3, 1, 2]), UniPoly([1, 0, 0, 0, 1])]
    cases = 0
    for _ in range(150):
        p = UniPoly([rng.choice([-1, 1]) * rng.randrange(1, 40)])
        real_roots = set()
        for _ in range(rng.randrange(0, 4)):
            num, den = rng.randrange(-20, 21), rng.randrange(1, 6)
            p = p * UniPoly([-num, den]) ** rng.randrange(1, 4)
            real_roots.add(Fraction(num, den))
        for _ in range(rng.randrange(0, 3)):
            p = p * rng.choice(complex_factors) ** rng.randrange(1, 3)
        random_factor = rng.randrange(3) == 0
        if random_factor:
            p = p * UniPoly([rng.randrange(-50, 51) for _ in range(rng.randrange(2, 7))] + [rng.randrange(1, 9)])
        if p.degree < 1:
            continue
        pp = p.primitive_part()
        chain = list(polynomials._signed_prs(pp, pp.derivative()))
        bound = root_bound(pp.exact_div(chain[-1].primitive_part()))
        count = polynomials._real_root_count(chain)
        assert count == polynomials._variations(chain, -bound) - polynomials._variations(chain, bound), p.coeffs
        assert random_factor or count == len(real_roots)
        cases += 1
    assert cases > 100


# ---------------------------------------------------------------------------
# BiPoly
# ---------------------------------------------------------------------------


def random_bipoly(rng: random.Random, max_deg: int) -> BiPoly:
    p = BiPoly.constant(0)
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    for _ in range(rng.randrange(1, 7)):
        c = rng.randrange(-9, 10)
        p = p + c * x ** rng.randrange(0, max_deg + 1) * y ** rng.randrange(0, max_deg + 1)
    return p


def test_bipoly_arithmetic_agrees_with_evaluation():
    rng = random.Random(2040)
    for _ in range(100):
        p = random_bipoly(rng, 3)
        q = random_bipoly(rng, 3)
        vx, vy = rng.randrange(-8, 9), rng.randrange(-8, 9)
        assert (p + q).evaluate(vx, vy) == p.evaluate(vx, vy) + q.evaluate(vx, vy)
        assert (p - q).evaluate(vx, vy) == p.evaluate(vx, vy) - q.evaluate(vx, vy)
        assert (p * q).evaluate(vx, vy) == p.evaluate(vx, vy) * q.evaluate(vx, vy)


def test_bipoly_partial_derivative_product_rule():
    rng = random.Random(2041)
    for _ in range(40):
        p = random_bipoly(rng, 2)
        q = random_bipoly(rng, 2)
        for var in ("x", "y"):
            assert (p * q).partial(var) == p.partial(var) * q + p * q.partial(var)


def test_bipoly_homogeneous_parts_sum_to_whole():
    rng = random.Random(2042)
    for _ in range(40):
        p = random_bipoly(rng, 3)
        total = BiPoly.constant(0)
        for d in range(p.total_degree + 1):
            total = total + p.homogeneous_part(d)
        assert total == p


def test_bipoly_coefficient_access():
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    p = 3 * x**2 * y - 7 * y + 5
    assert p.coefficient(2, 1) == 3
    assert p.coefficient(0, 1) == -7
    assert p.coefficient(0, 0) == 5
    assert p.coefficient(4, 4) == 0
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1


def test_bipoly_coeffs_in_reconstructs_polynomial():
    rng = random.Random(2043)
    for _ in range(40):
        p = random_bipoly(rng, 3)
        for var in ("x", "y"):
            slices = p.coeffs_in(var)
            vx, vy = rng.randrange(-6, 7), rng.randrange(-6, 7)
            main = vx if var == "x" else vy
            other = vy if var == "x" else vx
            recon = sum(c(other) * main**j for j, c in enumerate(slices))
            assert recon == p.evaluate(vx, vy)


def test_format_bipoly_readable():
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    p = x**2 - 3 * x * y + y**2 - 2 * x + y
    assert format_bipoly(p) == "x^2 - 3*x*y + y^2 - 2*x + y"
    assert format_bipoly(BiPoly.constant(0)) == "0"


def test_bipoly_resultant_eliminating_y_known_case():
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    r = bipoly_resultant(y - x, y + x, "y")
    assert r == UniPoly([0, 2])  # 2x with p-rows-first sign convention


def test_bipoly_resultant_specializes_correctly():
    # when the leading y-coefficient is constant, Res_y(F,G)(x0) equals the
    # univariate resultant of the specialized polynomials
    rng = random.Random(2044)
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    for _ in range(25):
        f = y**3 + rng.randrange(-5, 6) * x * y + BiPoly.constant(rng.randrange(-5, 6))
        g = y**2 + rng.randrange(-5, 6) * x**2 + rng.randrange(-5, 6) * y
        r = bipoly_resultant(f, g, "y")
        for x0 in range(-4, 5):
            fs = UniPoly([c(x0) for c in f.coeffs_in("y")])
            gs = UniPoly([c(x0) for c in g.coeffs_in("y")])
            assert r(x0) == sylvester_resultant(fs, gs)


bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), min_size=1, max_size=7
).map(BiPoly).filter(bool)
_X, _Y = BiPoly.variable("x"), BiPoly.variable("y")


@settings(max_examples=100, deadline=None)
@given(bipolys, bipolys)
# leading coefficients x and x^2 + 1 in y, y^2 and y^3 in x; degrees 2 < 3 in y, 1 < 2 in x
@example(_X * _Y**2 + _Y - 3, (_X**2 + 1) * _Y**3 + _X)
@example((_X**2 + 1) * _Y**3 + _X, _X * _Y**2 + _Y - 3)
def test_bipoly_resultant_specialises_to_sylvester(f, g):
    # Res_var(f, g) at t is the Sylvester determinant of f and g with the
    # other variable set to t, wherever neither leading coefficient in var
    # vanishes at t
    for var in ("x", "y"):
        r = bipoly_resultant(f, g, var)
        fc, gc = f.coeffs_in(var), g.coeffs_in(var)
        for t in range(-3, 4):
            if fc[-1](t) and gc[-1](t):
                fs, gs = UniPoly([c(t) for c in fc]), UniPoly([c(t) for c in gc])
                assert r(t) == sylvester_resultant(fs, gs)


def test_bipoly_resultant_rejects_zero_input():
    y = BiPoly.variable("y")
    with pytest.raises(ZeroPolynomialError):
        bipoly_resultant(BiPoly.constant(0), y, "y")


def test_bipoly_repr_and_json_compatibility():
    # coefficient dictionaries survive a json round trip of the string form
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    p = x * y - 4
    assert json.loads(json.dumps(format_bipoly(p))) == format_bipoly(p)
