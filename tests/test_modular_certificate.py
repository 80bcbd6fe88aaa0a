"""certify's affine verdict modulo P = 2^61 - 1 against the exact path.

The kernel's resultant over GF(P) must agree with bipoly_resultant
reduced mod P, and with the Sylvester determinant of test_polynomials,
sign included, and its interpolation at 0..n-1 must give back a
polynomial from its values. A modular proof that fails, by a degree
drop or a nonconstant gcd mod P, must hand the verdict to
affine_singular_check and give the same certificate. A proved
certificate forms the exact eliminants only when they are read, from
the curve it certified.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import curves
from pascalrepeats.curves import build_curve, certify
from pascalrepeats.polynomials import (
    BiPoly,
    UniPoly,
    _interpolate_mod,
    _resultant_mod,
    bipoly_resultant,
)
from pascalrepeats.ratios import ShiftPair
from test_polynomials import sylvester_resultant

P = (1 << 61) - 1

coefficients = st.integers(-9, 9) | st.integers(-(2**80), 2**80)
leads = coefficients.filter(lambda c: c % P)


@st.composite
def constant_lead_in_y(draw) -> BiPoly:
    """A bivariate polynomial of y-degree n >= 1 whose y^n coefficient is a constant that P does not divide."""
    n = draw(st.integers(1, 4))
    low = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, n - 1)), coefficients, max_size=8))
    return BiPoly({**low, (0, n): draw(leads)})


@settings(max_examples=150, deadline=None)
@given(constant_lead_in_y(), constant_lead_in_y())
@example(BiPoly({(0, 1): 1, (1, 0): 1}), BiPoly({(0, 2): -3, (2, 0): 1}))
def test_resultant_mod_p_is_the_exact_eliminant_mod_p(f, g):
    exact = bipoly_resultant(f, g, "y")
    top = f.total_degree * g.total_degree  # Res_y has x-degree at most this
    fc, gc = f.coeffs_in("y"), g.coeffs_in("y")
    values = [_resultant_mod([c(x0) for c in fc], [c(x0) for c in gc]) for x0 in range(top + 1)]
    assert values == [exact(x0) % P for x0 in range(top + 1)]
    assert UniPoly(_interpolate_mod(values)) == UniPoly(c % P for c in exact.coeffs)


nonzero_lists = st.lists(coefficients, min_size=1, max_size=7).filter(lambda cs: cs[-1] % P)


@settings(max_examples=150, deadline=None)
@given(nonzero_lists, nonzero_lists)
@example([3], [1, 2, 1])
@example([1, 2, 1], [3])
@example([-2, 1], [-2, 1])
def test_resultant_mod_p_keeps_the_sylvester_sign(a, b):
    assert _resultant_mod(a, b) == sylvester_resultant(UniPoly(a), UniPoly(b)) % P


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-(2**100), 2**100), max_size=30), st.integers(0, 3))
def test_interpolation_recovers_the_polynomial_from_its_values(coeffs, extra):
    p = UniPoly(coeffs)
    values = [p(x0) for x0 in range(p.degree + 1 + extra)]
    assert UniPoly(_interpolate_mod(values)) == UniPoly(c % P for c in p.coeffs)


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


def test_proved_certificate_forms_the_exact_eliminants_once_when_read(exact_checks):
    shift = ShiftPair(2, 3)
    cert = certify(shift)
    assert cert.affine_nonsingular is curves.Verdict.YES and exact_checks == []
    payload = cert.to_json_dict()
    assert exact_checks == [build_curve(shift)]
    assert exact_checks[0] is cert.curve
    assert cert.to_json_dict() == payload and len(exact_checks) == 1
    assert payload["eliminants"] == [
        {
            "eliminated": "y",
            "res_fx": [str(c) for c in cert.eliminants.res_fx.coeffs],
            "res_fy": [str(c) for c in cert.eliminants.res_fy.coeffs],
            "common_factor": ["1"],
        }
    ]


def _drop_degree(real):
    return lambda values: real(values)[:-1]


def _common_factor(real):
    return lambda p, q: 1


@pytest.mark.parametrize("name,forced", [("_interpolate_mod", _drop_degree), ("_gcd_degree_mod", _common_factor)])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 1)])
def test_failed_modular_proof_falls_back_to_the_exact_check(a, b, name, forced, exact_checks, monkeypatch):
    shift = ShiftPair(a, b)
    proved = certify(shift)
    payload = proved.to_json_dict()
    exact_checks.clear()
    monkeypatch.setattr(curves, name, forced(getattr(curves, name)))
    fallback = certify(shift)
    assert exact_checks == [build_curve(shift)]
    assert exact_checks[0] is fallback.curve
    assert fallback == proved and fallback.to_json_dict() == payload
    assert len(exact_checks) == 1  # the JSON read the report the fallback formed
