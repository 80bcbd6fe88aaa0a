"""unipoly_gcd's modular shortcut against an exact remainder-sequence reference.

unipoly_gcd proves a constant gcd modulo P = 2^61 - 1 and runs its
primitive remainder sequence only when that proof fails. The reference
below is a primitive pseudo-remainder sequence with its own arithmetic,
so no code of the package enters it. The certificates of every shift
with a+b <= 8 must come out identical with the reference in place of
unipoly_gcd, in both elimination directions. The same sweep checks
certify's modular proof against the exact path: the eliminants it
interpolates mod P are the exact ones reduced mod P, and the certificate
and its whole JSON payload are those of the exact path.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import curves
from pascalrepeats import polynomials
from pascalrepeats.curves import build_curve, certify
from pascalrepeats.polynomials import UniPoly, bipoly_resultant, unipoly_gcd
from pascalrepeats.ratios import ShiftPair

P = (1 << 61) - 1


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    c = math.gcd(*p)
    return [x // c for x in p]


def _prem(u: list[int], v: list[int]) -> list[int]:
    r = list(u)
    while len(r) >= len(v):
        lead, shift = r[-1], len(r) - len(v)
        r = [c * v[-1] for c in r]
        for j, c in enumerate(v):
            r[shift + j] -= lead * c
        _trim(r)
    return r


def reference_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """gcd in Z[x] with positive leading coefficient, by a primitive remainder sequence."""
    a, b = list(p.coeffs), list(q.coeffs)
    if not a or not b:
        g = a or b
        return UniPoly(g if not g or g[-1] > 0 else [-c for c in g])
    content = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _prem(a, b)
        a, b = b, _primitive(r) if r else r
    sign = 1 if a[-1] > 0 else -1
    return UniPoly(sign * content * c for c in a)


@pytest.fixture
def prs_runs(monkeypatch):
    """Count the exact remainder sequences unipoly_gcd starts."""
    runs = []
    real = polynomials._signed_prs

    def spy(a, b):
        runs.append((a, b))
        return real(a, b)

    monkeypatch.setattr(polynomials, "_signed_prs", spy)
    return runs


small = st.lists(st.integers(-30, 30), min_size=1, max_size=7)


@settings(max_examples=150, deadline=None)
@given(small, small, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@example([0, 1], [2, 3], [1])
@example([1, 0, 1], [1, 1], [-3, 0, 2, 1])
def test_gcd_matches_reference_on_planted_factors(u, v, g):
    if not any(g):
        g = [1]
    p, q = UniPoly(u) * UniPoly(g), UniPoly(v) * UniPoly(g)
    assert unipoly_gcd(p, q) == reference_gcd(p, q)


def test_constant_gcd_mod_p_skips_the_remainder_sequence(prs_runs):
    p = UniPoly([1, 0, 1]) * UniPoly([6, 4])
    q = UniPoly([-2, 1]) * UniPoly([4, 0, 6])
    assert unipoly_gcd(p, q) == reference_gcd(p, q) == UniPoly([2])
    assert prs_runs == []


def test_common_factor_mod_p_falls_back_to_the_exact_sequence(prs_runs):
    # x(x+1) and (x+P)(x+2) are coprime over Z, but x + P = x mod P
    p = UniPoly([0, 1]) * UniPoly([1, 1])
    q = UniPoly([P, 1]) * UniPoly([2, 1])
    assert unipoly_gcd(p, q) == reference_gcd(p, q) == UniPoly([1])
    assert len(prs_runs) == 1


def test_leading_coefficient_divisible_by_p_falls_back(prs_runs):
    p = UniPoly([1, 0, P])
    q = UniPoly([1, 1])
    assert unipoly_gcd(p, q) == reference_gcd(p, q) == UniPoly([1])
    assert unipoly_gcd(q, p) == UniPoly([1])
    assert len(prs_runs) == 2


def test_nonconstant_gcd_runs_the_exact_sequence(prs_runs):
    g = UniPoly([-1, 0, 3])
    p, q = g * UniPoly([5, 1]), g * UniPoly([2, 0, 7])
    assert unipoly_gcd(p, q) == reference_gcd(p, q) == g
    assert len(prs_runs) == 1


SHIFTS = [(a, d - a) for d in range(2, 9) for a in range(1, d)]


def assert_certificate_matches_reference(a: int, b: int) -> None:
    """Certificate and both directions' common factors equal the reference's."""
    known: dict[tuple[UniPoly, UniPoly], UniPoly] = {}

    def reference(p: UniPoly, q: UniPoly) -> UniPoly:
        if (p, q) not in known:
            known[p, q] = reference_gcd(p, q)
        return known[p, q]

    shift = ShiftPair(a, b)
    f = build_curve(shift)
    fx, fy = f.partial("x"), f.partial("y")
    for var in ("y", "x"):
        res_fx, res_fy = bipoly_resultant(f, fx, var), bipoly_resultant(f, fy, var)
        assert unipoly_gcd(res_fx, res_fy) == reference(res_fx, res_fy), (a, b, var)
        if var == "y":
            reduced = tuple([c % P for c in r.coeffs] for r in (res_fx, res_fy))
            assert curves._eliminants_mod(f) == reduced, (a, b)
    proved = certify(shift)
    fast = proved.to_json_dict()
    real_gcd, real_proof = curves.unipoly_gcd, curves._affine_nonsingular_mod_p
    curves.unipoly_gcd = reference
    curves._affine_nonsingular_mod_p = lambda f: False
    try:
        exact = certify(shift)
        assert exact == proved and exact.to_json_dict() == fast, (a, b)
    finally:
        curves.unipoly_gcd, curves._affine_nonsingular_mod_p = real_gcd, real_proof


@pytest.mark.parametrize("a,b", SHIFTS)
def test_certificate_matches_the_exact_gcd_reference(a, b):
    assert_certificate_matches_reference(a, b)
