"""Integer real-root isolation against the earlier Fraction path.

The reference below is the isolation that used Fraction arithmetic for
its Sturm chain (field remainders, Fraction Horner evaluation) and for
its bisection (reduced Fraction midpoints). The integer kernel must
return the same endpoints, bit for bit, from isolate_real_roots and
isolate_zeta. The squarefree part comes from a gcd over Q here, so no
integer remainder sequence of the package enters the reference. The
reference splits its brackets at reduced Fractions; the package holds
them as integer numerators over one denominator, and divides by the
chain's last term only when it is not a constant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import polynomials
from pascalrepeats.polynomials import UniPoly, isolate_real_roots
from pascalrepeats.ratios import ShiftPair, isolate_zeta, zeta_poly


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _frac_divmod(u: list[Fraction], v: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    quot = [Fraction(0)] * max(len(u) - dv, 0)
    while len(r) - 1 >= dv and r:
        q = r[-1] / lv
        shift = len(r) - 1 - dv
        quot[shift] = q
        r = r[:-1]
        for j in range(dv):
            r[shift + j] -= q * v[j]
        _trim(r)
    return quot, r


def _frac_rem(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    return _frac_divmod(u, v)[1]


def _squarefree(p: list[Fraction]) -> list[Fraction]:
    a, b = p, [i * c for i, c in enumerate(p) if i > 0]
    while b:
        a, b = b, _frac_rem(a, b)
    return _frac_divmod(p, a)[0]


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    p1 = [i * c for i, c in enumerate(p) if i > 0]
    chain = [p, p1]
    while chain[-1] and len(chain[-1]) > 1:
        rem = _frac_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [q for q in chain if q]


def _eval_frac(q: list[Fraction], v: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(q):
        acc = acc * v + c
    return acc


def _sign_at(p: list[Fraction], q: Fraction) -> int:
    v = _eval_frac(p, q)
    return (v > 0) - (v < 0)


def _variations(chain: list[list[Fraction]], v: Fraction) -> int:
    signs = [s for s in (_sign_at(q, v) for q in chain) if s]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _root_bound(p: list[Fraction]) -> Fraction:
    return 1 + max(abs(c / p[-1]) for c in p[:-1])


def _split_point(sf: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    den = 2
    while True:
        for j in sorted(range(1, den, 2), key=lambda j: abs(2 * j - den)):
            m = lo + (hi - lo) * Fraction(j, den)
            if _sign_at(sf, m) != 0:
                return m
        den *= 2


def _bisect(sf: list[Fraction], lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    slo = _sign_at(sf, lo)
    while hi - lo > width:
        m = (lo + hi) / 2
        sm = _sign_at(sf, m)
        if sm == 0:
            return m, m
        if sm == slo:
            lo = m
        else:
            hi = m
    return lo, hi


def reference_isolate(p: UniPoly, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    if p.degree < 1:
        return []
    sf = _squarefree([Fraction(c) for c in p.coeffs])
    if len(sf) < 2:
        return []
    chain = _sturm_chain(sf)
    bound = _root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def walk(lo: Fraction, hi: Fraction, nroots: int) -> None:
        if nroots == 0:
            return
        if nroots == 1:
            out.append(_bisect(sf, lo, hi, width))
            return
        m = _split_point(sf, lo, hi)
        left = _variations(chain, lo) - _variations(chain, m)
        walk(lo, m, left)
        walk(m, hi, nroots - left)

    walk(-bound, bound, _variations(chain, -bound) - _variations(chain, bound))
    return sorted(out)


def reference_zeta(shift: ShiftPair, eps: Fraction) -> tuple[Fraction, Fraction]:
    p = [Fraction(c) for c in zeta_poly(shift).coeffs]
    return _bisect(p, Fraction(1), Fraction(2**shift.degree), eps)


# One bisection step costs about deg^2 * bits^2 word operations, so the
# finest widths are drawn for low degrees only: draws reach 2^-3000 at
# degree 1 (degree 2 for zeta), and about 2^-115 (2^-430 for zeta) at
# degree 14; the explicit examples add 2^-3000 at degree 2.
@st.composite
def widths(draw, degree: int, roots: int) -> Fraction:
    bits = draw(st.integers(1, min(3000, int(6000 / (degree * math.sqrt(roots))))))
    if draw(st.booleans()):
        return Fraction(1, 2**bits)
    return Fraction(1, 10 ** max(1, bits * 3 // 10))


linear = st.tuples(st.integers(-40, 40), st.integers(1, 9), st.integers(1, 3))  # (q*x - p)^m as (p, q, m)
no_real_root = st.sampled_from([(1,), (1, 0, 1), (1, 1, 1), (5, -2, 1), (2, 0, 3, 0, 1)])


@st.composite
def polys(draw) -> tuple[UniPoly, Fraction]:
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-60, 60), min_size=2, max_size=15))
        p = UniPoly(coeffs)
        if p.degree < 1:
            p = UniPoly([coeffs[0] or 1, 1])
    else:
        p = UniPoly(draw(no_real_root))
        for num, den, m in draw(st.lists(linear, min_size=1, max_size=5)):
            if p.degree + m <= 14:
                p = p * UniPoly([-num, den]) ** m
    return p, draw(widths(p.degree, max(p.degree, 1)))


@settings(max_examples=60, deadline=None)
@given(polys())
@example((UniPoly([6, 2]), Fraction(1, 2)))  # root -3 is the third midpoint: [m, m]
@example((UniPoly([-1, 3]) * UniPoly([-2, 3]), Fraction(1, 2)))  # enclosures meet at the split point 1/2
@example((UniPoly([-2, 0, 1]), Fraction(1, 2**3000)))
@example((UniPoly([-1, 2]) ** 3 * UniPoly([1, 0, 1]), Fraction(1, 10**900)))
@example((UniPoly(range(1, 16)), Fraction(1, 2**100)))
def test_isolate_real_roots_matches_fraction_reference(case):
    p, width = case
    assert isolate_real_roots(p, width) == reference_isolate(p, width)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 13).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 14 - a))).flatmap(
    lambda ab: st.tuples(st.just(ab), widths(sum(ab), 1))))
@example(((1, 1), Fraction(1, 2**3000)))
@example(((1, 1), Fraction(1, 10**900)))
@example(((7, 7), Fraction(1, 2)))
def test_isolate_zeta_matches_fraction_reference(case):
    (a, b), eps = case
    iv = isolate_zeta(ShiftPair(a, b), eps)
    assert (iv.lo, iv.hi) == reference_zeta(ShiftPair(a, b), eps)


def _linear(num: int, den: int) -> UniPoly:
    return UniPoly([-num, den])  # den*x - num, the root num/den


def _product(factors) -> UniPoly:
    out = UniPoly([1])
    for f in factors:
        out = out * f
    return out


SHORTCUT_CASES = [
    # squarefree: the chain ends in the constant 1, and sf is pp
    (_product(_linear(k, 1) for k in (1, 2, 3)), [1]),
    # squarefree with a complex pair: the chain ends in -1, and sf is pp, not -pp
    (_linear(1, 1) * _linear(2, 1) * UniPoly([1, 0, 1]), [-1]),
    (UniPoly([-5, 3, 0, 1]) * 6, [-1]),
    # (x-1)^2 (x^2+1)^2 (x+3): a repeated real root and a repeated complex pair; the chain
    # ends in gcd(pp, pp') = -(x-1)(x^2+1), and pp is divided by it
    (_linear(1, 1) ** 2 * UniPoly([1, 0, 1]) ** 2 * _linear(-3, 1), [1, -1, 1, -1]),
    # (3x-2)^3 (x^2+x+1)^2 (7x+1): the chain ends in -(3x-2)^2 (x^2+x+1)
    (_linear(2, 3) ** 3 * UniPoly([1, 1, 1]) ** 2 * _linear(-1, 7), [-4, 8, -1, 3, -9]),
]


@pytest.mark.parametrize("p, last", SHORTCUT_CASES, ids=[f"chain ends in {last}" for _, last in SHORTCUT_CASES])
def test_a_constant_last_term_skips_the_division_and_changes_no_enclosure(p, last, monkeypatch):
    pp = p.primitive_part()
    *_, end = polynomials._signed_prs(pp.coeffs, pp.derivative().coeffs)
    assert list(end) == last
    divisions = []
    real = UniPoly.exact_div

    def counting(self, other):
        divisions.append(other)
        return real(self, other)

    monkeypatch.setattr(UniPoly, "exact_div", counting)
    for width in (Fraction(1, 2), Fraction(1, 10**13), Fraction(1, 2**200)):
        divisions.clear()
        got = isolate_real_roots(p, width)
        assert divisions == ([] if len(last) == 1 else [UniPoly(last).primitive_part()])
        assert got == reference_isolate(p, width)


CLOSE_ROOTS = [
    # x and ten roots k/1000 beside it: 0 is the first split point's candidate, so den grows
    UniPoly([0, 1]) * _product(_linear(k, 1000) for k in range(1, 11)),
    # dyadic roots 1 + k/2^20, which split points can land on
    _product(_linear(2**20 + k, 2**20) for k in range(8)),
    # sqrt(2) between two rationals 10^-6 apart, and -sqrt(2)
    UniPoly([-2, 0, 1]) * _linear(1414213, 10**6) * _linear(1414214, 10**6),
    # a repeated cluster: (x - 1/3)^2 (x - 1/3 - 10^-9)^2 (x - 1/3 + 10^-9)
    _linear(1, 3) ** 2 * _linear(10**9 + 3, 3 * 10**9) ** 2 * _linear(10**9 - 3, 3 * 10**9),
]


@pytest.mark.parametrize("p", CLOSE_ROOTS, ids=["k/1000", "dyadic", "sqrt 2", "repeated cluster"])
def test_the_dyadic_walk_separates_close_rational_roots_as_the_fraction_walk(p):
    for width in (Fraction(1, 2), Fraction(1, 10**13), Fraction(1, 10**40)):
        assert isolate_real_roots(p, width) == reference_isolate(p, width)
