import json
import math
from fractions import Fraction

import pytest

from pascalrepeats import curves as curves_mod
from pascalrepeats import polynomials
from pascalrepeats.combinatorics import falling_factorial
from pascalrepeats.curves import (
    Finiteness,
    Interval,
    Verdict,
    affine_singular_check,
    build_curve,
    certify,
    classify_finiteness,
    infinity_singular_check,
    lattice_points_in_box,
    quad_factor_test,
    real_branches,
)
from pascalrepeats.errors import PreconditionError
from pascalrepeats.polynomials import BiPoly, UniPoly, format_bipoly, isolate_real_roots
from pascalrepeats.ratios import ShiftPair
from pascalrepeats.search import equality_check
from test_polynomials import bipoly_at, divides

GOLDEN_QUAD = UniPoly([-1, -1, 1])  # x^2 - x - 1


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------


def test_build_curve_basic_expansion():
    f = build_curve(ShiftPair(1, 1))
    assert format_bipoly(f) == "x^2 - 3*x*y + y^2 - 2*x + y"
    assert f.terms == {(2, 0): 1, (1, 1): -3, (0, 2): 1, (1, 0): -2, (0, 1): 1}


def _product_form(shift: ShiftPair, x: int, y: int) -> int:
    """F(x, y) from its factors: ff(x-y, a+b) - ff(x, a)*(y+1)...(y+b)."""
    right = falling_factorial(x, shift.a) * math.prod(y + q for q in range(1, shift.b + 1))
    return falling_factorial(x - y, shift.degree) - right


def test_build_curve_matches_product_form_pointwise():
    for a, b in [(1, 1), (2, 2), (1, 3), (3, 1)]:
        shift = ShiftPair(a, b)
        f = build_curve(shift)
        for x in range(-5, 16):
            for y in range(-5, 16):
                assert bipoly_at(f, x, y) == _product_form(shift, x, y)


def test_build_curve_is_the_product_form_on_a_determining_grid():
    # F has degree d = a+b in x and in y, so its values on the (d+1) x (d+1)
    # grid 0..d x 0..d determine it: a polynomial of degree <= d in each
    # variable that vanishes on the grid is zero
    for d in range(2, 11):
        for a in range(1, d):
            shift = ShiftPair(a, d - a)
            f = build_curve(shift)
            assert f.degree_in("x") == f.degree_in("y") == d
            for x in range(d + 1):
                for y in range(d + 1):
                    assert bipoly_at(f, x, y) == _product_form(shift, x, y), (shift, x, y)


def test_curve_zeros_are_the_solutions_plus_the_corner_block():
    # for x >= a a curve zero is exactly an equation solution; below that
    # both defining products vanish identically, so the whole corner block
    # 0 <= y <= x < a sits on the curve while the equation is false there
    # (its right side is an out-of-triangle zero)
    for a, b in [(1, 1), (2, 1), (3, 2)]:
        shift = ShiftPair(a, b)
        f = build_curve(shift)
        for x in range(0, 60):
            for y in range(0, x + 1):
                on_curve = bipoly_at(f, x, y) == 0
                if x >= a:
                    assert on_curve == equality_check(x, y, shift)
                else:
                    assert on_curve
                    assert not equality_check(x, y, shift)


def test_top_form_is_the_leading_homogeneous_part():
    for a, b in [(1, 1), (2, 1), (2, 3), (4, 2)]:
        shift = ShiftPair(a, b)
        f = build_curve(shift)
        d = a + b
        assert f.total_degree == d
        # the top form the checks at infinity read off F: (x-y)^d - x^a y^b
        top = {(i, d - i): (-1) ** (d - i) * math.comb(d, i) for i in range(d + 1)}
        top[(a, b)] -= 1
        assert f.homogeneous_part(d) == BiPoly(top)


def test_partial_derivatives_of_the_quadratic_case():
    f = build_curve(ShiftPair(1, 1))
    assert f.partial("x") == BiPoly({(1, 0): 2, (0, 1): -3, (0, 0): -2})
    assert f.partial("y") == BiPoly({(1, 0): -3, (0, 1): 2, (0, 0): 1})


def test_leading_y_coefficient_is_unit():
    # the y-degree-(a+b) coefficient of F is the constant (-1)^(a+b);
    # this is what makes resultant-based elimination lossless
    for a in range(1, 4):
        for b in range(1, 4):
            f = build_curve(ShiftPair(a, b))
            d = a + b
            lead = f.coeffs_in()[d]
            assert lead == UniPoly([(-1) ** d])


def test_partial_top_coefficients_in_y():
    # F_y always carries exactly (a+b)(-1)^(a+b) on y^(a+b-1); F_x carries
    # d(-1)^(d-1) there, with an extra -1 when a=1 (from the x*y^b block),
    # and the total is nonzero either way
    for a in range(1, 4):
        for b in range(1, 4):
            d = a + b
            f = build_curve(ShiftPair(a, b))
            fy_c = f.partial("y").terms[(0, d - 1)]
            assert fy_c == d * (-1) ** d
            fx_c = f.partial("x").terms[(0, d - 1)]
            want = d * (-1) ** (d - 1) - (1 if a == 1 else 0)
            assert fx_c == want
            assert fx_c != 0


# ---------------------------------------------------------------------------
# singularity certificates
# ---------------------------------------------------------------------------


def test_affine_singular_check_smooth_cases():
    for a, b in [(1, 1), (2, 2), (1, 2), (3, 1)]:
        assert affine_singular_check(build_curve(ShiftPair(a, b))) == curves_mod._PRIMES[0]


def test_affine_singular_check_proves_no_singular_curve():
    # y^3 + 2x^3 + y^2 - x^2 has a node and y^3 + y^2 - x^3 a cusp at the origin;
    # both y-leading coefficients are 1, so the check runs its proof at each prime
    node = BiPoly({(0, 3): 1, (3, 0): 2, (0, 2): 1, (2, 0): -1})
    cusp = BiPoly({(0, 3): 1, (0, 2): 1, (3, 0): -1})
    assert affine_singular_check(node) is None
    assert affine_singular_check(cusp) is None


def test_infinity_singular_check_smooth_cases():
    for a, b in [(1, 1), (2, 2), (1, 2), (2, 3)]:
        assert infinity_singular_check(build_curve(ShiftPair(a, b))) is Verdict.YES


def test_top_form_partials_share_no_root_at_infinity():
    # the facts behind infinity_singular_check's one gcd: T_x(1,0) = d, so
    # [1:0] is no common root, and on y = 1 the sum T_x + T_y is
    # -x^(a-1) (a + b x) and gcd(T_x, T_y) is constant
    def on_chart(g: BiPoly) -> UniPoly:
        cs = [0] * (g.total_degree + 1)
        for (i, _), c in g.terms.items():
            cs[i] += c
        return UniPoly(cs)

    for d in range(2, 31):
        for a in range(1, d):
            b = d - a
            f = build_curve(ShiftPair(a, b))
            t = f.homogeneous_part(d)
            assert bipoly_at(t.partial("x"), 1, 0) == d
            tx, ty = on_chart(t.partial("x")), on_chart(t.partial("y"))
            assert tx + ty == UniPoly([0] * (a - 1) + [-a, -b])
            assert tx(0) != 0 and d**d != a**a * b**b
            assert polynomials.unipoly_gcd(tx, ty).degree == 0
            assert infinity_singular_check(f) is Verdict.YES


def test_y_leading_coefficients_are_nonzero_constants():
    # the facts behind certify's modular proof, which reads F and F_y, and
    # the two-eliminant oracle of test_modular_certificate, which reads F_x
    # too: as polynomials in y, F, F_x and F_y keep their degrees d, d-1,
    # d-1 at every x, with constant leading coefficients that neither of
    # the package's primes divides; for a = 1 the x*y^b block adds -1 to F_x's
    for d in range(2, 13):
        for a in range(1, d):
            f = build_curve(ShiftPair(a, d - a))
            leads = [
                (f, d, (-1) ** d),
                (f.partial("x"), d - 1, (-1) ** (d - 1) * d - (a == 1)),
                (f.partial("y"), d - 1, (-1) ** d * d),
            ]
            for g, degree, lead in leads:
                assert g.degree_in("y") == degree
                assert g.coeffs_in()[degree] == UniPoly([lead])
                assert 0 < abs(lead) < min(curves_mod._PRIMES)


def test_classify_finiteness_labels():
    assert classify_finiteness(ShiftPair(1, 2)) is Finiteness.PROVEN_FINITE
    assert classify_finiteness(ShiftPair(3, 1)) is Finiteness.PROVEN_FINITE
    assert classify_finiteness(ShiftPair(1, 1)) is Finiteness.INFINITE_FAMILY
    assert classify_finiteness(ShiftPair(2, 2)) is Finiteness.OPEN


def test_certify_golden_case():
    cert = certify(ShiftPair(1, 1))
    assert cert.curve == build_curve(ShiftPair(1, 1)) and "curve=" not in repr(cert)
    assert cert.affine_nonsingular is Verdict.YES
    assert cert.infinity_nonsingular is Verdict.YES
    assert cert.degree == 2
    assert cert.genus == 0
    assert cert.irreducible is True
    assert cert.finiteness is Finiteness.INFINITE_FAMILY


def test_certify_quartic_case():
    cert = certify(ShiftPair(2, 2))
    assert cert.affine_nonsingular is Verdict.YES
    assert cert.infinity_nonsingular is Verdict.YES
    assert cert.genus == 3
    assert cert.irreducible is True
    assert cert.finiteness is Finiteness.OPEN


def test_certify_cubic_case_is_proven_finite():
    cert = certify(ShiftPair(1, 2))
    assert cert.genus == 1
    assert cert.finiteness is Finiteness.PROVEN_FINITE


def test_certificate_json_dict_is_serializable_and_typed():
    cert = certify(ShiftPair(2, 1))
    d = cert.to_json_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["a"] == 2 and back["b"] == 1
    assert back["affine_nonsingular"] == "yes"
    assert back["genus"] == 1
    assert back["affine_proof"] == {"eliminant": "Res_y(F,F_y)", "prime": curves_mod._PRIMES[0]}
    assert back["affine_proof"]["prime"] == cert.affine_prime and type(cert.affine_prime) is int


def test_genus_follows_degree_formula_when_certified():
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        cert = certify(ShiftPair(a, b))
        if cert.genus is not None:
            d = a + b
            assert cert.genus == (d - 1) * (d - 2) // 2


# ---------------------------------------------------------------------------
# quadratic factor sweep
# ---------------------------------------------------------------------------


def test_quad_factor_found_exactly_on_the_diagonal():
    for r in range(1, 9):
        assert quad_factor_test(2 * r, r) == GOLDEN_QUAD
    for n in range(2, 21):
        for r in range(1, n):
            if n != 2 * r:
                assert quad_factor_test(n, r) is None


def test_quad_factor_rejects_the_negative_discriminant_divisor():
    # x^2 + x + 1 divides x^10 - (x+1)^2 but has no real root, so it can
    # say nothing about zeta and must not be reported
    p = UniPoly([0] * 10 + [1]) - UniPoly([1, 1]) ** 2
    assert divides(UniPoly([1, 1, 1]), p)
    assert quad_factor_test(10, 2) is None


def test_quad_factor_diagonal_witness_divides():
    for r in (1, 2, 5):
        p = UniPoly([0] * (2 * r) + [1]) - UniPoly([1, 1]) ** r
        assert divides(GOLDEN_QUAD, p)


def test_quad_factor_domain():
    with pytest.raises(PreconditionError):
        quad_factor_test(3, 3)
    with pytest.raises(PreconditionError):
        quad_factor_test(5, 0)


# ---------------------------------------------------------------------------
# real branches and lattice points
# ---------------------------------------------------------------------------


def test_real_branches_at_integer_sections():
    branches = real_branches(ShiftPair(1, 1), [0, 5])
    by_y = {y: ivs for y, ivs in branches}
    # y=0: x^2 - 2x = 0 at x in {0, 2}; y=5: x in {2, 15}
    assert [iv for iv in by_y[Fraction(0)]] and len(by_y[Fraction(0)]) == 2
    assert any(iv.lo <= 0 <= iv.hi for iv in by_y[Fraction(0)])
    assert any(iv.lo <= 2 <= iv.hi for iv in by_y[Fraction(0)])
    assert any(iv.lo <= 2 <= iv.hi for iv in by_y[Fraction(5)])
    assert any(iv.lo <= 15 <= iv.hi for iv in by_y[Fraction(5)])


def test_real_branches_width_and_irrational_section():
    width = Fraction(1, 10**10)
    [(_, ivs)] = real_branches(ShiftPair(1, 1), [1], width=width)
    # x^2 - 5x + 2: roots (5 +- sqrt(17))/2
    assert len(ivs) == 2
    for iv in ivs:
        assert iv.width <= width
    lo_root = (5 - math.sqrt(17)) / 2
    hi_root = (5 + math.sqrt(17)) / 2
    assert float(ivs[0].lo) <= lo_root <= float(ivs[0].hi)
    assert float(ivs[1].lo) <= hi_root <= float(ivs[1].hi)
    # the walk halves until the width is met, so a nonpositive one is refused before any section
    for bad in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(PreconditionError, match="width must be positive"):
            next(real_branches(ShiftPair(1, 1), [1], width=bad))


def test_real_branches_accepts_rational_y():
    [(y0, ivs)] = real_branches(ShiftPair(1, 1), [Fraction(1, 2)])
    assert y0 == Fraction(1, 2)
    f = build_curve(ShiftPair(1, 1))
    for iv in ivs:
        mid = iv.midpoint
        # the section changes sign across the enclosure unless it is exact
        val = bipoly_at(f, mid, Fraction(1, 2))
        if iv.width == 0:
            assert val == 0


def test_real_branches_count_bounded_by_degree():
    for a, b in [(1, 1), (2, 1), (2, 2)]:
        for _, ivs in real_branches(ShiftPair(a, b), range(0, 8)):
            assert len(ivs) <= a + b


def _alone(shift: ShiftPair, ys, width: Fraction) -> list[tuple[Fraction, list[Interval]]]:
    """Each section y isolated by itself, without hints: w^deg_y * F(x, u/w) for y = u/w."""
    f = build_curve(shift)
    dy = f.degree_in("y")
    out = []
    for y in map(Fraction, ys):
        section = [0] * (f.degree_in("x") + 1)
        for (i, j), c in f.terms.items():
            section[i] += c * y.numerator**j * y.denominator ** (dy - j)
        out.append((y, [Interval(lo, hi) for lo, hi in isolate_real_roots(UniPoly(section), width)]))
    return out


SWEEPS = [
    ("step 1 from negative y", [Fraction(y) for y in range(-6, 25)]),
    ("step 1/7", [Fraction(-1) + Fraction(i, 7) for i in range(0, 29)]),
    ("step 3", [Fraction(y) for y in range(-9, 61, 3)]),
    ("empty, as plot's reversed range", []),
    ("longer than one block", [Fraction(y) for y in range(-2, curves_mod._BLOCK + 3)]),
]


@pytest.mark.parametrize("name, ys", SWEEPS, ids=[name for name, _ in SWEEPS])
def test_continued_sections_equal_sections_isolated_alone(name, ys, monkeypatch):
    hinted = []
    real = polynomials._bisect

    def recording(sf, u, v, w, wn, wd, hint=None):
        hinted.append(hint is not None)
        return real(sf, u, v, w, wn, wd, hint)

    monkeypatch.setattr(polynomials, "_bisect", recording)
    counts_change = False
    for a in range(1, 6):
        for b in range(1, 7 - a):
            shift = ShiftPair(a, b)
            width = Fraction(1, 10**13) if (a + b) % 2 else Fraction(1, 2**90)
            alone = _alone(shift, ys, width)
            assert list(real_branches(shift, ys, width)) == alone, (shift, name)
            counts = [len(ivs) for _, ivs in alone]
            counts_change |= len(set(counts)) > 1
    assert (any(hinted), counts_change) == ((True, True) if ys else (False, False))


def test_block_chains_are_the_signed_prs_chains_of_each_section(monkeypatch):
    # _sturm_chains forms a block's chains in lockstep: each is _signed_prs's for its section, term
    # for term, also where a section leaves the block and scalar _signed_prs finishes its chain
    scalar = polynomials._signed_prs
    finished = []

    def recording(a, b):
        finished.append((a, b))
        return scalar(a, b)

    monkeypatch.setattr(polynomials, "_signed_prs", recording)
    for a in range(1, 8):
        for b in range(1, 9 - a):
            columns = curves_mod._x_columns(build_curve(ShiftPair(a, b)))
            for ys in (range(-12, 40), [Fraction(-3) + Fraction(i, 7) for i in range(40)]):
                sections = [curves_mod._x_section(columns, y.numerator, y.denominator) for y in map(Fraction, ys)]
                for section, (pp, chain) in zip(sections, polynomials._sturm_chains(sections)):
                    assert pp == section.primitive_part(), (a, b)
                    assert list(map(list, chain)) == list(map(list, scalar(pp.coeffs, pp.derivative().coeffs)))
    assert finished


@pytest.mark.parametrize("shift, ys", [((3, 2), range(0, 81)), ((2, 5), range(-40, 201, 3))])
def test_continued_sections_prove_their_cells_without_halving(shift, ys, monkeypatch):
    # A hinted cell may fall back to halving only where the root count changes among
    # the section and the two before it: there the hints are the last section's roots,
    # too far off for Newton on the whole bracket. (3,2) has 4, 3, 2, 1 roots at
    # y = 0..3 and one above; at y = 42..72 a Newton that stopped on a step of
    # 2^(goal/2) named a cell about 2^19 cells off. (2,5) has 7 roots at y = -4 and -1.
    proved = {}
    real = polynomials._newton_cell

    def recording(sf, u, d, w, k, slo, start):
        cell = real(sf, u, d, w, k, slo, start)
        if start != (1, 2):  # a try without a hint starts from the bracket's middle
            proved.setdefault(y, []).append(cell is not None)
        return cell

    monkeypatch.setattr(polynomials, "_newton_cell", recording)
    sections = real_branches(ShiftPair(*shift), ys, Fraction(1, 10**13))
    counts = []
    for y in ys:
        counts.append(len(next(sections)[1]))  # isolates section y
    assert sorted(proved) == list(ys)[1:]
    changes = {y for i, y in enumerate(ys) if len(set(counts[max(i - 2, 0) : i + 1])) > 1}
    fell_back = {y for y, cells in proved.items() if not all(cells)}
    assert fell_back <= changes and len(changes) <= 6


def _continued_by_fractions(before: list[tuple[Fraction, list[tuple[int, int]]]], y0: Fraction) -> list[Fraction]:
    """The continuation hints as Fractions: r2 + (r2 - r1)(y0 - y2)/(y2 - y1), or the last roots."""
    if not before:
        return []
    y2, r2 = before[-1]
    y1, r1 = before[0]
    if len(r1) != len(r2) or y1 == y2:
        return [Fraction(*r) for r in r2]
    s = (y0 - y2) / (y2 - y1)
    return [Fraction(*b) + (Fraction(*b) - Fraction(*a)) * s for a, b in zip(r1, r2)]


@pytest.mark.parametrize("name, ys", SWEEPS, ids=[name for name, _ in SWEEPS])
def test_integer_continuation_equals_the_fraction_formula(name, ys, monkeypatch):
    # _continued works on unreduced integer pairs; each hint must equal, as a value, what the
    # Fraction formula gives from the same sections, with a positive denominator, also when y falls
    hints = []
    isolate = curves_mod._isolate_chain

    def recording(pp, chain, width, given):
        hints.append(given)
        return isolate(pp, chain, width, given)

    monkeypatch.setattr(curves_mod, "_isolate_chain", recording)
    unreduced = False
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for sweep in (ys, ys[::-1]):
                hints.clear()
                before: list[tuple[Fraction, list[tuple[int, int]]]] = []
                for i, (y0, ivs) in enumerate(real_branches(ShiftPair(a, b), sweep, Fraction(1, 10**13))):
                    assert all(hw > 0 for _, hw in hints[i]), (a, b, y0)
                    assert [Fraction(*h) for h in hints[i]] == _continued_by_fractions(before, y0), (a, b, y0)
                    unreduced |= any(math.gcd(*h) > 1 for h in hints[i])
                    before = before[-1:] + [(y0, [(iv.lo.numerator, iv.lo.denominator) for iv in ivs])]
                assert len(hints) == len(sweep)
    assert unreduced == bool(ys)


def test_sections_from_the_columns_are_f_at_rational_y():
    # _x_section(columns, u, w) = w^deg_y * F(x, u/w), for negative and positive u and several w
    for a in range(1, 6):
        for b in range(1, 7 - a):
            f = build_curve(ShiftPair(a, b))
            columns = curves_mod._x_columns(f)
            for u, w in [(0, 1), (-7, 1), (5, 1), (-7, 3), (1, 2), (13, 4), (-1, 9)]:
                section = curves_mod._x_section(columns, u, w)
                for x in range(-4, 5):
                    assert section(x) == w ** (a + b) * bipoly_at(f, x, Fraction(u, w)), (a, b, u, w, x)


def test_lattice_points_are_the_zeros_of_f_in_a_box_with_negative_coordinates():
    for a in range(1, 6):
        for b in range(1, 7 - a):
            shift = ShiftPair(a, b)
            f = build_curve(shift)
            zeros = [(x, y) for y in range(-6, 9) for x in range(-7, 13) if bipoly_at(f, x, y) == 0]
            assert lattice_points_in_box(shift, (-7, 12), (-6, 8)) == zeros, shift
            assert any(x < 0 or y < 0 for x, y in zeros), shift


def test_lattice_points_in_small_box():
    pts = lattice_points_in_box(ShiftPair(1, 1), (0, 20), (0, 6))
    assert (0, 0) in pts
    assert (2, 0) in pts
    assert (15, 5) in pts
    assert pts == sorted(pts, key=lambda p: (p[1], p[0]))
    # every reported point really is a curve zero
    f = build_curve(ShiftPair(1, 1))
    for x, y in pts:
        assert bipoly_at(f, x, y) == 0


def test_lattice_points_match_equality_inside_triangle():
    shift = ShiftPair(2, 1)
    pts = lattice_points_in_box(shift, (0, 80), (0, 80))
    in_triangle = {(x, y) for x, y in pts if 0 <= y <= x}
    solutions = {
        (x, y)
        for x in range(81)
        for y in range(x + 1)
        if equality_check(x, y, shift)
    }
    corner_block = {(x, y) for x in range(shift.a) for y in range(x + 1)}
    assert in_triangle == solutions | corner_block
    assert solutions.isdisjoint(corner_block)


def test_lattice_points_empty_box():
    assert lattice_points_in_box(ShiftPair(1, 1), (5, 4), (0, 3)) == []
    assert lattice_points_in_box(ShiftPair(1, 1), (0, 3), (7, 2)) == []
