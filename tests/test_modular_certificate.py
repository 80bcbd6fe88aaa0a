"""certify's affine verdict modulo the package's two primes against the exact path.

The two moduli must be distinct primes below 2^30. At each of them the
kernel's resultant over GF(p) must agree with bipoly_resultant reduced
mod p, and with the Sylvester determinant of test_polynomials, sign
included, and its interpolation at 0..n-1 must give back a polynomial
from its values. A modular proof that fails at the first prime, by a
degree drop or a nonconstant gcd mod p, must be proved again at the
second; one that fails at both must leave the affine verdict
inconclusive without calling affine_singular_check. A prime that breaks
the proof's preconditions proves nothing and forms no eliminant.
certify forms no exact eliminant; each JSON form of a certificate forms
them once, from the curve it certified.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import curves
from pascalrepeats.curves import build_curve, certify
from pascalrepeats.polynomials import (
    _PRIMES,
    BiPoly,
    UniPoly,
    _interpolate_mod,
    _resultant_mod,
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
def exact_checks(monkeypatch):
    """The curves affine_singular_check runs on, in order."""
    runs = []
    real = curves.affine_singular_check

    def spy(f):
        runs.append(f)
        return real(f)

    monkeypatch.setattr(curves, "affine_singular_check", spy)
    return runs


def test_certify_forms_no_eliminant_and_each_json_form_forms_them_once(exact_checks):
    shift = ShiftPair(2, 3)
    cert = certify(shift)
    assert cert.affine_nonsingular is curves.Verdict.YES and exact_checks == []
    payload = cert.to_json_dict()
    assert exact_checks == [build_curve(shift)]
    assert exact_checks[0] is cert.curve
    assert cert.to_json_dict() == payload and len(exact_checks) == 2
    assert exact_checks[1] is cert.curve
    exact = curves.affine_singular_check(cert.curve)
    assert payload["eliminants"] == [
        {
            "eliminated": "y",
            "res_fx": [str(c) for c in exact.res_fx.coeffs],
            "res_fy": [str(c) for c in exact.res_fy.coeffs],
            "common_factor": ["1"],
        }
    ]


def _drop_degree(real, failing, seen):
    def forced(values, m):
        seen.append(m)
        out = real(values, m)
        return out[:-1] if m in failing else out

    return forced


def _common_factor(real, failing, seen):
    def forced(p, q, m):
        seen.append(m)
        return 1 if m in failing else real(p, q, m)

    return forced


@pytest.mark.parametrize("failing", [(P1,), _PRIMES], ids=["p1", "both"])
@pytest.mark.parametrize("name,forced", [("_interpolate_mod", _drop_degree), ("_gcd_degree_mod", _common_factor)])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 1)])
def test_failed_modular_proof_is_inconclusive(a, b, name, forced, failing, exact_checks, monkeypatch):
    """A failure at the first prime only is proved at the second; a failure at both is inconclusive."""
    shift = ShiftPair(a, b)
    proved = certify(shift)
    seen = []
    monkeypatch.setattr(curves, name, forced(getattr(curves, name), failing, seen))
    failed = certify(shift)
    assert exact_checks == []
    assert list(dict.fromkeys(seen)) == [P1, P2]
    if failing == _PRIMES:
        assert failed.affine_nonsingular is curves.Verdict.INCONCLUSIVE
        assert failed.genus is None and failed.irreducible is None
    else:
        assert failed == proved and failed.affine_nonsingular is curves.Verdict.YES
    assert failed.infinity_nonsingular is proved.infinity_nonsingular is curves.Verdict.YES
    assert failed.finiteness is proved.finiteness


@pytest.mark.parametrize(
    "a,b,m,holds",
    [
        (1, 1, 5, True),  # D = 2 < 5; y-leading constants 1, -3 and 2
        (1, 1, 3, False),  # 3 divides F_x's y-leading coefficient -3
        (2, 3, 19, False),  # x0 = 0..20 repeat mod 19
        (2, 3, 5, False),  # both: 5 divides d, and x0 = 0..20 repeat
    ],
)
def test_the_proof_runs_only_where_its_preconditions_hold(a, b, m, holds, monkeypatch):
    formed = []
    real = curves._eliminants_mod

    def spy(f, p):
        formed.append(p)
        return real(f, p)

    monkeypatch.setattr(curves, "_eliminants_mod", spy)
    proved = curves._affine_nonsingular_mod_p(build_curve(ShiftPair(a, b)), m)
    assert formed == ([m] if holds else [])
    assert holds or proved is False
