"""bisect_root's Newton cell against plain halving.

bisect_root halves its bracket 64 times, then lets an integer Newton
iteration name the cell that further halving would end in and proves it
with two sign tests. The reference below is the plain halving loop, in
integers over a doubling denominator, that ran before: the two must
return the same endpoints, bit for bit, including the [m, m] of a root
that is a midpoint. Cases: zeta_poly of random shifts, squarefree
products with rational roots, and brackets whose root sits near an end.

With a hint (u, w), a guess u/w at the root, bisect_root starts Newton
from the hint on the whole bracket before any halving; it must still
return what plain halving does, whatever the hint: at the root, on a
grid root, next to an end, outside the bracket, or far off.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats import polynomials
from pascalrepeats.polynomials import UniPoly, bisect_root
from pascalrepeats.ratios import ShiftPair, zeta_poly


def plain_halving(sf: UniPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    w = math.lcm(lo.denominator, hi.denominator)
    u, v = lo.numerator * (w // lo.denominator), hi.numerator * (w // hi.denominator)
    slo = sf.sign_at(u, w)
    while (v - u) * width.denominator > width.numerator * w:
        m = u + v
        w *= 2
        sm = sf.sign_at(m, w)
        if sm == 0:
            return Fraction(m, w), Fraction(m, w)
        if sm == slo:
            u, v = m, 2 * v
        else:
            u, v = 2 * u, m
    return Fraction(u, w), Fraction(v, w)


# Plain halving costs about deg^2 * bits^3 / 3 word operations, so the
# finest widths are drawn for low degrees: 2^-3000 up to degree 3, about
# 2^-1000 at degree 12 and 2^-860 at degree 14.
@st.composite
def widths(draw, degree: int, scale: Fraction = Fraction(1)) -> Fraction:
    bits = draw(st.integers(1, min(3000, 12000 // degree)))
    if draw(st.booleans()):
        return scale / 2**bits
    return scale / 10 ** max(1, bits * 3 // 10)


@st.composite
def zeta_cases(draw):
    """zeta_poly on [1, 2^d], or on a bracket with one end close to the root."""
    a = draw(st.integers(1, 13))
    b = draw(st.integers(1, 14 - a))
    p = zeta_poly(ShiftPair(a, b))
    lo, hi = Fraction(1), Fraction(2 ** (a + b))
    end = draw(st.sampled_from(["none", "lo", "hi"]))
    if end != "none":
        near = plain_halving(p, lo, hi, Fraction(1, 2 ** draw(st.integers(1, 90))))
        lo, hi = (near[0], hi) if end == "lo" else (lo, near[1])
    return p, lo, hi, draw(widths(p.degree))


@st.composite
def rooted_rational_cases(draw):
    """A squarefree product of linear factors; a bracket [r - i*h, r + (N-i)*h] round one root r; then r.

    N = 2^e puts r on the dyadic grid of the bracket, so halving may end on
    it as [r, r]; i = 1 or N - 1 puts r next to an end.
    """
    roots = draw(st.lists(st.fractions(-40, 40, max_denominator=64), min_size=1, max_size=8, unique=True))
    p = UniPoly([1])
    for r in roots:
        p = p * UniPoly([-r.numerator, r.denominator])
    if draw(st.booleans()) and p.degree <= 12:
        p = p * UniPoly(draw(st.sampled_from([(1, 0, 1), (1, 1, 1), (5, -2, 1)])))
    roots.sort()
    at = draw(st.integers(0, len(roots) - 1))
    r = roots[at]
    gaps = [r - roots[at - 1]] if at > 0 else []
    gaps += [roots[at + 1] - r] if at + 1 < len(roots) else []
    e = draw(st.integers(1, 60))
    n = 2**e if draw(st.booleans()) else draw(st.integers(2, 2**e + 1))
    i = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    h = min(gaps + [Fraction(1)]) / (n + 1)
    lo, hi = r - i * h, r + (n - i) * h
    return p, lo, hi, draw(widths(p.degree, hi - lo)), r


def rational_root_cases():
    return rooted_rational_cases().map(lambda case: case[:4])


@settings(max_examples=40, deadline=None)
@given(zeta_cases())
@example((zeta_poly(ShiftPair(1, 1)), Fraction(1), Fraction(4), Fraction(1, 2**3000)))
@example((zeta_poly(ShiftPair(2, 10)), Fraction(1), Fraction(2**12), Fraction(1, 10**300)))
@example((zeta_poly(ShiftPair(7, 7)), Fraction(1), Fraction(2**14), Fraction(1, 2**860)))
def test_zeta_cells_match_plain_halving(case):
    p, lo, hi, width = case
    assert bisect_root(p, lo, hi, width) == plain_halving(p, lo, hi, width)


@settings(max_examples=60, deadline=None)
@given(rational_root_cases())
@example((UniPoly([-1, 3]), Fraction(0), Fraction(1), Fraction(1, 2**3000)))  # 1/3 is never a midpoint
@example((UniPoly([-3, 2**70]), Fraction(0), Fraction(1), Fraction(1, 2**200)))  # midpoint at level 70
@example((UniPoly([-1, 2**65]) * UniPoly([1, 0, 1]), Fraction(0), Fraction(1), Fraction(1, 2**64)))  # not yet
def test_rational_roots_match_plain_halving(case):
    p, lo, hi, width = case
    assert bisect_root(p, lo, hi, width) == plain_halving(p, lo, hi, width)


CASES = [
    (zeta_poly(ShiftPair(2, 10)), Fraction(1), Fraction(2**12), Fraction(1, 10**300)),
    (zeta_poly(ShiftPair(1, 1)), Fraction(1), Fraction(4), Fraction(1, 2**1000)),
    (UniPoly([-7, 2**90]) * UniPoly([1, 1, 1]), Fraction(-1), Fraction(1), Fraction(1, 2**200)),
    (UniPoly([-7, 2**150]), Fraction(0), Fraction(1), Fraction(1, 2**200)),
]
CASE_IDS = ["zeta(2,10)", "zeta(1,1)", "7/2^90", "7/2^150"]


@pytest.mark.parametrize("offset", [-5, -2, -1, 1, 3, None])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_wrong_newton_index_is_moved_or_falls_back_to_halving(case, offset, monkeypatch):
    real = polynomials._newton_index

    def off(*args):
        j = real(*args)
        return None if offset is None or j is None else j + offset

    monkeypatch.setattr(polynomials, "_newton_index", off)
    p, lo, hi, width = case
    assert bisect_root(p, lo, hi, width) == plain_halving(p, lo, hi, width)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_newton_cell_replaces_the_fine_halvings(case, monkeypatch):
    calls = []
    real = UniPoly.sign_at

    def counted(self, u, w=1):
        calls.append(w)
        return real(self, u, w)

    monkeypatch.setattr(UniPoly, "sign_at", counted)
    p, lo, hi, width = case
    bisect_root(p, lo, hi, width)
    assert len(calls) <= 1 + 64 + 2 * polynomials._CELL_TRIES  # lo, the seed halvings, the cell tests


def _hints(lo: Fraction, hi: Fraction, root: Fraction) -> list[tuple[int, int]]:
    """Hints (u, w) round a bracket: at the root (also not in lowest terms), a hair off it,
    next to lo and hi, on and outside both ends, at the middle and far off toward an end."""
    span = hi - lo
    points = [
        root,
        root + span / 2**90,
        root - span / 2**40,
        lo + span / 2**60,
        hi - span / 2**60,
        lo,
        hi,
        lo - 1,
        hi + span,
        (lo + hi) / 2,
        lo + span / 1000,
    ]
    return [(root.numerator * 3, root.denominator * 3)] + [(q.numerator, q.denominator) for q in points]


@settings(max_examples=15, deadline=None)
@given(zeta_cases())
@example((zeta_poly(ShiftPair(1, 1)), Fraction(1), Fraction(4), Fraction(1, 2**3000)))
@example((zeta_poly(ShiftPair(2, 10)), Fraction(1), Fraction(2**12), Fraction(1, 10**300)))
def test_hinted_zeta_cells_match_plain_halving(case):
    p, lo, hi, width = case
    expected = plain_halving(p, lo, hi, width)
    root = plain_halving(p, lo, hi, (hi - lo) / 2**100)[0]
    for hint in _hints(lo, hi, root):
        assert bisect_root(p, lo, hi, width, hint) == expected, hint


@settings(max_examples=25, deadline=None)
@given(rooted_rational_cases())
@example((UniPoly([-1, 3]), Fraction(0), Fraction(1), Fraction(1, 2**3000), Fraction(1, 3)))
@example((UniPoly([-3, 2**70]), Fraction(0), Fraction(1), Fraction(1, 2**200), Fraction(3, 2**70)))  # grid root
@example((UniPoly([-3, 2**70]), Fraction(0), Fraction(1), Fraction(1, 2**60), Fraction(3, 2**70)))  # off the grid
@example((UniPoly([-1, 2**65]) * UniPoly([1, 0, 1]), Fraction(0), Fraction(1), Fraction(1, 2**64), Fraction(1, 2**65)))
def test_hinted_rational_roots_match_plain_halving(case):
    p, lo, hi, width, root = case
    expected = plain_halving(p, lo, hi, width)
    for hint in _hints(lo, hi, root):
        assert bisect_root(p, lo, hi, width, hint) == expected, hint


@pytest.mark.parametrize("offset", [-5, -1, 1, 3, None])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_wrong_newton_index_from_a_hint_is_moved_or_falls_back_to_halving(case, offset, monkeypatch):
    real = polynomials._newton_index

    def off(*args):
        j = real(*args)
        return None if offset is None or j is None else j + offset

    monkeypatch.setattr(polynomials, "_newton_index", off)
    p, lo, hi, width = case
    expected = plain_halving(p, lo, hi, width)
    root = sum(expected) / 2
    assert bisect_root(p, lo, hi, width, (root.numerator, root.denominator)) == expected


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_a_good_hint_proves_its_cell_without_halving(case, monkeypatch):
    p, lo, hi, width = case
    expected = plain_halving(p, lo, hi, width)
    root = sum(expected) / 2
    calls = []
    real = UniPoly.sign_at

    def counted(self, u, w=1):
        calls.append(w)
        return real(self, u, w)

    monkeypatch.setattr(UniPoly, "sign_at", counted)
    assert bisect_root(p, lo, hi, width, (root.numerator, root.denominator)) == expected
    # the sign at lo, then the cell tests, all on the one level-k grid: no halving ran
    assert len(calls) <= 1 + 2 * polynomials._CELL_TRIES and len(set(calls[1:])) == 1
