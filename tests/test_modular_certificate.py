"""certify's affine check, affine_singular_check, modulo the package's two primes against the exact path.

The two moduli must be distinct primes below 2^30. At each of them the
kernel's resultant over GF(p) must agree with bipoly_resultant reduced
mod p, and with the Sylvester determinant of test_polynomials, sign
included, and its interpolation at 0..n-1 must give back a polynomial
from its values.

affine_singular_check proves the affine verdict from one eliminant,
R = Res_y(F,F_y): of degree d(d-1) and squarefree mod p, which it tests
as Res(R, R') != 0 mod p. That test must agree with the gcd degree mod p
that it replaced, kept here as the oracle, for every R of degree below
p with a leading coefficient prime to p. It returns the
prime that proved it, and certify keeps that prime as affine_prime. The
two-eliminant proof it replaced, a constant gcd of Res_y(F,F_x) and
Res_y(F,F_y) mod p, is kept here as the oracle, and the two verdicts
must agree for every shift with a+b <= 12 at both primes; every shift
with a+b <= 15, all that the CLI certifies, must be proved at the first
prime. Curves whose y-leading coefficient is a constant and which have
a node or a cusp must not be proved, nor smooth ones that give R a
multiple root (a vertical flex, or two vertical tangents on one line
x = x0); smooth curves without these must be. A node whose x-coordinate
is 1/p must not be proved at p either: there R mod p loses its degree,
and only the degree test refuses it.

A modular proof that fails at the first prime, by a degree drop or a
zero Res(R, R') mod p, must be proved again at the second, with the
same verdicts and the second prime as affine_prime; one that fails at
both must leave the affine verdict inconclusive and print a null
affine proof. A prime that breaks the proof's preconditions proves
nothing and forms no eliminant. certify runs affine_singular_check once
and forms no exact eliminant, and its JSON form runs no check at all.
The y-columns of F and F_y are formed once for both primes, and no
other column is evaluated: no F_x.

The lockstep Euclid over all evaluation points must give what the
per-point loop it replaced gives, that loop being kept here as the
reference, and must hand to the scalar _resultant_mod exactly the
points whose remainder loses its leading coefficient, no other.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pascalrepeats import curves, polynomials
from pascalrepeats.curves import _PRIMES, _affine_nonsingular_mod_p, affine_singular_check, build_curve, certify
from pascalrepeats.polynomials import (
    BiPoly,
    UniPoly,
    _interpolate_mod,
    _inverses_mod,
    _rem_mod,
    _resultant_mod,
    _resultants_mod,
    _trim,
    _values_mod,
    bipoly_resultant,
)
from pascalrepeats.ratios import ShiftPair
from test_polynomials import sylvester_resultant

P1, P2 = _PRIMES


def test_the_moduli_are_distinct_primes_below_2_30():
    assert P1 != P2
    for p in _PRIMES:
        assert 2 < p < 1 << 30
        assert all(p % q for q in range(2, 1 << 15)), p  # (2^15)^2 = 2^30 > p


coefficients = st.integers(-9, 9) | st.integers(-(2**80), 2**80)
leads = coefficients.filter(lambda c: all(c % p for p in _PRIMES))


@st.composite
def constant_lead_in_y(draw) -> BiPoly:
    """A bivariate polynomial of y-degree n >= 1 whose y^n coefficient is a constant that neither prime divides."""
    n = draw(st.integers(1, 4))
    low = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, n - 1)), coefficients, max_size=8))
    return BiPoly({**low, (0, n): draw(leads)})


each_prime = pytest.mark.parametrize("m", _PRIMES, ids=["p1", "p2"])


@each_prime
@settings(max_examples=150, deadline=None)
@given(constant_lead_in_y(), constant_lead_in_y())
@example(BiPoly({(0, 1): 1, (1, 0): 1}), BiPoly({(0, 2): -3, (2, 0): 1}))
def test_resultant_mod_p_is_the_exact_eliminant_mod_p(m, f, g):
    exact = bipoly_resultant(f, g)
    top = f.total_degree * g.total_degree  # Res_y has x-degree at most this
    fc, gc = f.coeffs_in(), g.coeffs_in()
    values = [_resultant_mod([c(x0) for c in fc], [c(x0) for c in gc], m) for x0 in range(top + 1)]
    assert values == [exact(x0) % m for x0 in range(top + 1)]
    assert UniPoly(_interpolate_mod(values, m)) == UniPoly(c % m for c in exact.coeffs)


nonzero_lists = st.lists(coefficients, min_size=1, max_size=7).filter(lambda cs: all(cs[-1] % p for p in _PRIMES))


@each_prime
@settings(max_examples=150, deadline=None)
@given(nonzero_lists, nonzero_lists)
@example([3], [1, 2, 1])
@example([1, 2, 1], [3])
@example([-2, 1], [-2, 1])
def test_resultant_mod_p_keeps_the_sylvester_sign(m, a, b):
    assert _resultant_mod(a, b, m) == sylvester_resultant(UniPoly(a), UniPoly(b)) % m


@each_prime
@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-(2**100), 2**100), max_size=30), st.integers(0, 3))
def test_interpolation_recovers_the_polynomial_from_its_values(m, coeffs, extra):
    p = UniPoly(coeffs)
    values = [p(x0) for x0 in range(p.degree + 1 + extra)]
    assert UniPoly(_interpolate_mod(values, m)) == UniPoly(c % m for c in p.coeffs)


@pytest.fixture
def exact_eliminants(monkeypatch):
    """The exact resultants formed, by bipoly_resultant or its subresultant core, in order."""
    runs = []
    real = polynomials._resultant_lists

    def spy(pa, pb):
        runs.append((pa, pb))
        return real(pa, pb)

    monkeypatch.setattr(polynomials, "_resultant_lists", spy)
    return runs


def test_certify_runs_the_affine_check_once_and_json_prints_its_prime(exact_eliminants, monkeypatch):
    checked = []
    monkeypatch.setattr(curves, "affine_singular_check", lambda f: checked.append(f) or affine_singular_check(f))
    cert = certify(ShiftPair(2, 3))
    assert cert.affine_nonsingular is curves.Verdict.YES and cert.affine_prime == P1
    assert len(checked) == 1 and checked[0] is cert.curve
    payload = cert.to_json_dict()
    assert payload["affine_proof"] == {"eliminant": "Res_y(F,F_y)", "prime": P1}
    assert "eliminants" not in payload
    assert len(checked) == 1 and exact_eliminants == []


def _drop_degree(real, failing, seen):
    def forced(values, m):
        seen.append(m)
        out = real(values, m)
        return out[:-1] if m in failing else out

    return forced


def _common_factor(real, failing, seen):
    def forced(a, b, m):
        seen.append(m)
        return 0 if m in failing else real(a, b, m)

    return forced


@pytest.mark.parametrize("failing", [(P1,), _PRIMES], ids=["p1", "both"])
@pytest.mark.parametrize("name,forced", [("_interpolate_mod", _drop_degree), ("_resultant_mod", _common_factor)])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 1)])
def test_failed_modular_proof_is_inconclusive(a, b, name, forced, failing, exact_eliminants, monkeypatch):
    """A failure at the first prime only is proved at the second; a failure at both is inconclusive."""
    shift = ShiftPair(a, b)
    proved = certify(shift)
    seen = []
    monkeypatch.setattr(curves, name, forced(getattr(curves, name), failing, seen))
    failed = certify(shift)
    assert exact_eliminants == []
    assert list(dict.fromkeys(seen)) == [P1, P2]
    if failing == _PRIMES:
        assert failed.affine_nonsingular is curves.Verdict.INCONCLUSIVE and failed.affine_prime is None
        assert failed.genus is None and failed.irreducible is None
        assert failed.to_json_dict()["affine_proof"] is None
    else:
        verdicts = ("affine_nonsingular", "infinity_nonsingular", "genus", "irreducible", "finiteness")
        assert [getattr(failed, v) for v in verdicts] == [getattr(proved, v) for v in verdicts]
        assert failed.affine_nonsingular is curves.Verdict.YES
        assert (proved.affine_prime, failed.affine_prime) == (P1, P2)
        assert failed.to_json_dict()["affine_proof"] == {"eliminant": "Res_y(F,F_y)", "prime": P2}
    assert failed.infinity_nonsingular is proved.infinity_nonsingular is curves.Verdict.YES
    assert failed.finiteness is proved.finiteness


def _gcd_degree_mod(p: UniPoly, q: UniPoly, m: int) -> int:
    """Degree of gcd(p mod m, q mod m) over GF(m), m prime, by Euclid; -1 if both vanish."""
    a = _trim([c % m for c in p.coeffs])
    b = _trim([c % m for c in q.coeffs])
    while b:
        a, b = b, _rem_mod(a, b, m)
    return len(a) - 1


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


@pytest.mark.parametrize("m", [*_PRIMES, 7], ids=["p1", "p2", "7"])
@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, st.booleans())
@example([0, 1], [1, 1], True)  # x (x + 1)^2
@example([7, 0, 1], [1], False)  # x^2 + 7: squarefree over Z, x^2 mod 7
@example([3, 1], [1, 0, 1], True)  # (x + 3)(x^2 + 1)^2: a repeated factor with no root mod 7
def test_the_resultant_mod_p_is_nonzero_exactly_when_the_gcd_is_constant(m, a, b, square):
    """The squarefree test of the affine proof: with deg R < m and lc(R) prime to m, Res(R, R') != 0 mod m
    exactly when gcd(R, R') mod m is constant."""
    r = UniPoly(a) * UniPoly(b) * (UniPoly(b) if square else UniPoly([1]))
    assume(1 <= r.degree < m and r.leading % m)
    dr = r.derivative()
    assert (_resultant_mod(r.coeffs, dr.coeffs, m) != 0) == (_gcd_degree_mod(r, dr, m) == 0)


def two_eliminant_proof(f: BiPoly, p: int) -> bool:
    """The proof certify ran before R alone: Res_y(f,f_x) and Res_y(f,f_y) mod p of degree d(d-1), with a constant gcd.

    Its preconditions are the one-eliminant proof's, with F_x's y-leading
    coefficient a constant prime to p as well.
    """
    d = f.total_degree
    top = d * (d - 1)
    columns = [g.coeffs_in() for g in (f, f.partial("x"), f.partial("y"))]
    if top >= p or any(g[-1].degree != 0 or g[-1].leading % p == 0 for g in columns):
        return False
    rows_f, rows_fx, rows_fy = ([_values_mod(c, top + 1, p) for c in g] for g in columns)
    res_fx, res_fy = (UniPoly(_interpolate_mod(_resultants_mod(rows_f, rows, p), p)) for rows in (rows_fx, rows_fy))
    return res_fx.degree == res_fy.degree == top and _gcd_degree_mod(res_fx, res_fy, p) == 0


def y_columns(f: BiPoly) -> list[list[UniPoly]]:
    """The coefficients in y of F and F_y, as affine_singular_check forms them for the curve F = f."""
    return [g.coeffs_in() for g in (f, f.partial("y"))]


def proved_at(f: BiPoly, p: int) -> bool:
    return _affine_nonsingular_mod_p(f, p, y_columns(f))


def eliminant_mod(f: BiPoly, p: int) -> list[int] | None:
    """R = Res_y(f, f_y) mod p, ascending, as the proof at p interpolates it; None when the proof forms none."""
    formed = []

    def spy(values, m):
        formed.append(_interpolate_mod(values, m))
        return formed[-1]

    with mock.patch.object(curves, "_interpolate_mod", spy):
        proved_at(f, p)
    assert len(formed) <= 1
    return formed[0] if formed else None


def test_one_eliminant_verdict_is_the_two_eliminant_one_to_degree_12():
    for d in range(2, 13):
        for a in range(1, d):
            f = build_curve(ShiftPair(a, d - a))
            for p in _PRIMES:
                assert proved_at(f, p) == two_eliminant_proof(f, p), (a, d - a, p)


def test_every_shift_the_cli_certifies_is_proved_at_the_first_prime():
    for d in range(2, 16):
        for a in range(1, d):
            assert affine_singular_check(build_curve(ShiftPair(a, d - a))) == P1, (a, d - a)


FOLIUM = {(3, 0): 1, (0, 3): 1, (1, 1): -3}  # x^3 + y^3 - 3xy
NODE = {(0, 3): 1, (3, 0): 2, (0, 2): 1, (2, 0): -1}  # y^3 + 2x^3 + y^2 - x^2, a node at the origin

UNPROVED = {
    "node": NODE,
    "cusp": {(0, 3): 1, (0, 2): 1, (3, 0): -1},  # y^3 + y^2 - x^3, a cusp at the origin
    "vertical flex": {(0, 3): 1, (3, 0): 1, (1, 0): -1},  # y^3 + x^3 - x, smooth, y^3 = 0 on x = 0, 1, -1
    # y^4 - 2y^2 + 1 - x + x^4, smooth, tangent to x = 0 at y = 1 and y = -1
    "two vertical tangents": {(0, 4): 1, (0, 2): -2, (0, 0): 1, (1, 0): -1, (4, 0): 1},
    "nodal folium": FOLIUM,
}
PROVED = {
    "smooth perturbation": {**NODE, (0, 0): 1},  # the node's curve plus 1
    "folium plus 1 + 2x^2 y": {**FOLIUM, (0, 0): 1, (2, 1): 2},
}


@pytest.mark.parametrize("terms", UNPROVED.values(), ids=UNPROVED.keys())
def test_curves_with_a_multiple_root_of_r_are_not_proved(terms):
    f = BiPoly(terms)
    assert f.coeffs_in()[-1].degree == 0
    assert not any(proved_at(f, p) for p in _PRIMES)


@pytest.mark.parametrize("terms", PROVED.values(), ids=PROVED.keys())
def test_smooth_curves_are_proved(terms):
    f = BiPoly(terms)
    assert f.coeffs_in()[-1].degree == 0
    assert all(proved_at(f, p) for p in _PRIMES)


@each_prime
def test_a_node_at_x_one_over_p_is_refused_by_the_degree_test(m):
    """y^2 - (mx - 1)^2, two lines crossing at (1/m, 0): R is a constant times (mx - 1)^2, a nonzero constant mod m."""
    f = BiPoly({(0, 2): 1, (2, 0): -m * m, (1, 0): 2 * m, (0, 0): -1})
    assert UniPoly(eliminant_mod(f, m)).degree == 0
    assert affine_singular_check(f) is None


@pytest.mark.parametrize(
    "f,m,holds",
    [
        (ShiftPair(1, 1), 5, True),  # D = 2 < 5; y-leading constants 1 and 2
        (ShiftPair(1, 1), 3, True),  # as above; F_x's y-leading coefficient -3 is not read
        (ShiftPair(1, 1), 2, False),  # D = 2 is not below 2, which divides F_y's y-leading coefficient 2
        (ShiftPair(2, 3), 19, False),  # x0 = 0..20 repeat mod 19
        (ShiftPair(2, 3), 5, False),  # both: 5 divides d, and x0 = 0..20 repeat
        (BiPoly({(0, 2): 7, (3, 0): -1, (0, 0): 1}), 7, False),  # 7y^2 - x^3 + 1: D = 6 < 7, but 7 divides F's 7
        (BiPoly({(1, 2): 1, (3, 0): 1, (0, 0): 1}), P1, False),  # xy^2 + x^3 + 1: F's y-leading coefficient is x
    ],
    ids=["(1,1)@5", "(1,1)@3", "(1,1)@2", "(2,3)@19", "(2,3)@5", "lead-7y^2@7", "lead-x@p1"],
)
def test_the_proof_runs_only_where_its_preconditions_hold(f, m, holds):
    f = build_curve(f) if isinstance(f, ShiftPair) else f
    assert (eliminant_mod(f, m) is not None) == holds
    assert holds or proved_at(f, m) is False


def test_certify_forms_the_columns_of_f_and_f_y_once_for_both_primes_and_evaluates_no_other(monkeypatch):
    handed, evaluated = [], []
    real_proof, real_values = curves._affine_nonsingular_mod_p, curves._values_mod

    def proof_spy(f, p, columns):
        handed.append((p, columns))
        return real_proof(f, p, columns)

    def values_spy(c, n, p):
        evaluated.append(c)
        return real_values(c, n, p)

    monkeypatch.setattr(curves, "_affine_nonsingular_mod_p", proof_spy)
    monkeypatch.setattr(curves, "_values_mod", values_spy)
    monkeypatch.setattr(curves, "_resultant_mod", _common_factor(curves._resultant_mod, (P1,), []))
    f = build_curve(ShiftPair(2, 3))
    assert certify(ShiftPair(2, 3)).affine_prime == P2
    assert [p for p, _ in handed] == [P1, P2]
    columns = handed[0][1]
    assert columns == y_columns(f) and handed[1][1] is columns
    assert evaluated == 2 * (columns[0] + columns[1])


def per_point_eliminant(f: BiPoly, p: int) -> list[int]:
    """Res_y(f,f_y) mod p, the per-point way: one _resultant_mod per point x0 = 0..d(d-1)."""
    d = f.total_degree
    columns = [g.coeffs_in() for g in (f, f.partial("y"))]
    values = []
    for x0 in range(d * (d - 1) + 1):
        fv, fyv = ([c(x0) for c in col] for col in columns)
        values.append(_resultant_mod(fv, fyv, p))
    return _interpolate_mod(values, p)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (4, 5), (2, 7)])
def test_lockstep_eliminant_is_the_per_point_one(a, b):
    f = build_curve(ShiftPair(a, b))
    for p in _PRIMES:
        assert eliminant_mod(f, p) == per_point_eliminant(f, p)


def test_lockstep_resultants_are_the_per_point_ones_to_degree_12():
    """Every shift with a+b <= 12 at both primes, on the sections of F and F_y that the proof evaluates.

    The values at x0 = 0..D are compared: interpolation from them is one
    to one, and the test above compares whole eliminants.
    """
    for d in range(2, 13):
        n = d * (d - 1) + 1
        for a in range(1, d):
            columns = y_columns(build_curve(ShiftPair(a, d - a)))
            for p in _PRIMES:
                rows_f, rows_fy = ([_values_mod(c, n, p) for c in g] for g in columns)
                per_point = [_resultant_mod(ai, bi, p) for ai, bi in zip(zip(*rows_f), zip(*rows_fy))]
                assert _resultants_mod(rows_f, rows_fy, p) == per_point, (a, d - a, p)


def exit_of(a: list[int], b: list[int], m: int) -> str | None:
    """How the point with sections a and b leaves the lockstep: None when it stays to the end, else "zero" or "scalar".

    It leaves at the first remainder shorter than its nominal length:
    len(b) - 1, or len(a) when a is the shorter. A zero remainder makes
    the resultant 0; any other goes on to the scalar _resultant_mod.
    """
    a, b = [c % m for c in a], [c % m for c in b]
    while len(b) > 1:
        nominal = min(len(a), len(b) - 1)
        r = _rem_mod(a, b, m)
        if len(r) < nominal:
            return "scalar" if r else "zero"
        a, b = b, r
    return None


def lockstep_run(a: list[list[int]], b: list[list[int]], m: int) -> tuple[list[int], int]:
    """_resultants_mod's values and the number of _resultant_mod calls it made."""
    with mock.patch.object(polynomials, "_resultant_mod", wraps=_resultant_mod) as scalar:
        return _resultants_mod(a, b, m), scalar.call_count


@st.composite
def lockstep_rows(draw, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Two polynomials' coefficient rows over 1-12 points mod m, of 1-7 coefficients each, leading rows nonzero."""
    n = draw(st.integers(1, 12))
    residues = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    units = st.lists(st.integers(1, m - 1), min_size=n, max_size=n)
    return tuple(draw(st.lists(residues, max_size=6)) + [draw(units)] for _ in range(2))


@pytest.mark.parametrize("m", [7, 101])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lockstep_resultants_are_the_per_point_ones_at_small_primes(m, data):
    a, b = data.draw(lockstep_rows(m))
    before = [row[:] for row in a], [row[:] for row in b]
    points = list(zip(zip(*a), zip(*b)))
    values, calls = lockstep_run(a, b, m)
    assert (a, b) == before
    assert values == [_resultant_mod(ai, bi, m) for ai, bi in points]
    assert calls == sum(exit_of(ai, bi, m) == "scalar" for ai, bi in points)


@pytest.mark.parametrize(
    "a,b,ends",
    [
        ([[1], [2], [1]], [[1], [1]], ["zero"]),  # (y+1)^2 and y+1
        # y(y+1)^2 and y(y+1); y^3 + 1 and y^2, remainder 1; y^3 + 2 and y^2 + 1 to the end
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0], [1, 1, 1]], [[0, 0, 1], [1, 0, 0], [1, 1, 1]], ["zero", "scalar", None]),
        ([[1], [1], [0], [1]], [[1], [0], [0], [1]], ["scalar"]),  # y^3 + y + 1 and y^3 + 1: odd degrees, sign -1
    ],
)
def test_points_leave_the_lockstep_on_their_own(a, b, ends):
    m = 7
    points = list(zip(zip(*a), zip(*b)))
    assert [exit_of(ai, bi, m) for ai, bi in points] == ends
    values, calls = lockstep_run(a, b, m)
    assert values == [_resultant_mod(ai, bi, m) for ai, bi in points]
    assert calls == ends.count("scalar")


def test_the_scalar_fallback_is_reached_on_the_curves():
    """(1,3) at x0 = 1 leaves with a zero remainder; (2,7) sends one point, x0 = 6, to _resultant_mod at each prime."""
    f = build_curve(ShiftPair(1, 3))
    for p in _PRIMES:
        rows_f, rows_fy = ([_values_mod(c, 2, p)[1:] for c in g] for g in y_columns(f))
        assert exit_of([r[0] for r in rows_f], [r[0] for r in rows_fy], p) == "zero"
        assert lockstep_run(rows_f, rows_fy, p) == ([0], 0)
    f = build_curve(ShiftPair(2, 7))
    n = 9 * 8 + 1
    for p in _PRIMES:
        rows_f, rows_fy = ([_values_mod(c, n, p) for c in g] for g in y_columns(f))
        ends = [exit_of(ai, bi, p) for ai, bi in zip(zip(*rows_f), zip(*rows_fy))]
        assert ends.count("scalar") == 1 and ends[6] == "scalar"
        assert lockstep_run(rows_f, rows_fy, p)[1] == 1


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([7, 101, P1]).flatmap(lambda m: st.tuples(st.just(m), st.lists(st.integers(1, m - 1), min_size=1))))
def test_batch_inverses_are_the_inverses(case):
    m, row = case
    assert [u * v % m for u, v in zip(row, _inverses_mod(row, m))] == [1] * len(row)
