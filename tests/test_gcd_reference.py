"""unipoly_gcd against an exact remainder-sequence reference.

unipoly_gcd runs one primitive remainder sequence, with no modular
test. The reference below is a primitive pseudo-remainder sequence with
its own arithmetic, so no code of the package enters it. The gcds must
agree on planted common factors and on the exact eliminants
Res_y(F,F_x) and Res_y(F,F_y) of every shift with a+b <= 7, in y and
in x, the latter from the curve with x and y swapped. The same sweep, to a+b <= 8, checks certify's affine check
against the exact path: the eliminant Res_y(F,F_y) it interpolates mod
either prime is the exact one reduced mod that prime, it proves the
verdict at the first prime exactly when the reference gcd of that
exact eliminant and its derivative is constant, and the certificate,
infinity verdict included, and its whole JSON payload are the same
with the reference in place of unipoly_gcd.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import curves
from pascalrepeats.curves import _PRIMES, build_curve, certify
from pascalrepeats.polynomials import UniPoly, bipoly_resultant, unipoly_gcd
from pascalrepeats.ratios import ShiftPair
from test_modular_certificate import eliminant_mod
from test_polynomials import swap_xy

P = _PRIMES[0]


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


small = st.lists(st.integers(-30, 30), min_size=1, max_size=7)


@settings(max_examples=150, deadline=None)
@given(small, small, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@example([0, 1], [2, 3], [1])
@example([1, 0, 1], [1, 1], [-3, 0, 2, 1])
@example([6, 4, 6, 4], [-8, 4, -12, 6], [1])  # (x^2 + 1)(4x + 6) and (x - 2)(6x^2 + 4): a constant gcd, 2
@example([0, 1, 1], [2 * P, P + 2, 1], [1])  # x(x + 1) and (x + P)(x + 2): coprime, with a common root mod P
@example([1, 0, P], [1, 1], [1])  # a leading coefficient P
@example([5, 1], [2, 0, 7], [-1, 0, 3])
def test_gcd_matches_reference_on_planted_factors(u, v, g):
    if not any(g):
        g = [1]
    p, q = UniPoly(u) * UniPoly(g), UniPoly(v) * UniPoly(g)
    assert unipoly_gcd(p, q) == reference_gcd(p, q)


SHIFTS = [(a, d - a) for d in range(2, 9) for a in range(1, d)]
MAX_EXACT_GCD_DEGREE = 7  # with the seven shifts of a+b = 8 as well, this file took 4.2 s against 2.1 s on 2 CPUs


def assert_certificate_matches_reference(a: int, b: int) -> None:
    """Certificate, and both directions' common factors up to a+b = 7, equal the reference's."""
    known: dict[tuple[UniPoly, UniPoly], UniPoly] = {}

    def reference(p: UniPoly, q: UniPoly) -> UniPoly:
        if (p, q) not in known:
            known[p, q] = reference_gcd(p, q)
        return known[p, q]

    shift = ShiftPair(a, b)
    f = build_curve(shift)
    fx, fy = f.partial("x"), f.partial("y")
    res_fy = bipoly_resultant(f, fy)
    if a + b <= MAX_EXACT_GCD_DEGREE:
        for var, (g, g_x, g_y) in (("y", (f, fx, fy)), ("x", map(swap_xy, (f, fx, fy)))):
            res_gx, res_gy = bipoly_resultant(g, g_x), bipoly_resultant(g, g_y)
            assert unipoly_gcd(res_gx, res_gy) == reference(res_gx, res_gy), (a, b, var)
    for p in _PRIMES:
        assert eliminant_mod(f, p) == [c % p for c in res_fy.coeffs], (a, b, p)
    squarefree = reference(res_fy, res_fy.derivative()).degree == 0
    proved = certify(shift)
    assert (proved.affine_prime == P) == (proved.affine_nonsingular is curves.Verdict.YES) == squarefree, (a, b)
    fast = proved.to_json_dict()
    real_gcd = curves.unipoly_gcd
    curves.unipoly_gcd = reference
    try:
        exact = certify(shift)
        assert exact == proved and exact.to_json_dict() == fast, (a, b)
    finally:
        curves.unipoly_gcd = real_gcd


@pytest.mark.parametrize("a,b", SHIFTS)
def test_certificate_matches_the_exact_gcd_reference(a, b):
    assert_certificate_matches_reference(a, b)
