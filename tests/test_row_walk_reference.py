"""The row walk against the window bisection it replaced.

The row walk finds each row's crossing, the least x >= y+a+b where the
product form's left side reaches its right side, by exponential search
from a guess extrapolated from the two rows before, and reads the row's
solution off it; search walks its first rows and proves blocks of rows
above them. The reference below is the solver that ran before: the
zeta window of every row y > a bisected on the product sides, and a
gallop from y+a+b for rows y <= a. The crossing itself is checked against
its definition on the binomials, C(x-a,y+b) >= C(x,y), from math.comb.
Whatever the guess, the walk must return the same crossing, and a row's
solution must be the one the reference finds. The last row whose
crossing is at most a bound, where intersect stops, is checked against
the crossings themselves.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats.combinatorics import falling_factorial
from pascalrepeats.ratios import ShiftPair, isolate_zeta
from pascalrepeats.search import candidate_window, search

search_mod = importlib.import_module("pascalrepeats.search")

Y_BOX = 3000


def reference_sides(x: int, y: int, shift: ShiftPair) -> tuple[int, int]:
    left = falling_factorial(x - y, shift.degree)
    right = falling_factorial(x, shift.a) * falling_factorial(y + shift.b, shift.b)
    return left, right


def reference_solve_row(y: int, shift: ShiftPair, lo: int, hi: int | None) -> int | None:
    """The solution x of row y with lo <= x <= hi, or None; hi=None means unbounded."""
    lo = max(lo, y + shift.degree)
    if hi is None:
        hi, step = lo, 1
        while True:
            left, right = reference_sides(hi, y, shift)
            if left >= right:
                break
            lo, hi, step = hi + 1, hi + step, 2 * step
    while lo <= hi:
        mid = (lo + hi) // 2
        left, right = reference_sides(mid, y, shift)
        if left == right:
            return mid
        if left < right:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def reference_row(y: int, shift: ShiftPair, zeta) -> int | None:
    lo, hi = candidate_window(y, shift, zeta) if y > shift.a else (0, None)
    return reference_solve_row(y, shift, lo, hi)


def reference_search(shift: ShiftPair, y_max: int) -> list[tuple[int, int]]:
    zeta = isolate_zeta(shift, Fraction(1, y_max + shift.b))
    out = []
    for y in range(y_max + 1):
        x = reference_row(y, shift, zeta)
        if x is not None:
            out.append((x, y))
    return out


def comb_crossing(y: int, shift: ShiftPair) -> int:
    """Least x >= y+a+b with C(x-a,y+b) >= C(x,y), by galloping and bisecting on math.comb."""
    a, b = shift.a, shift.b

    def reached(x: int) -> bool:
        return math.comb(x - a, y + b) >= math.comb(x, y)

    lo = y + a + b
    if reached(lo):
        return lo
    below, step = lo, 1
    while not reached(below + step):
        below, step = below + step, 2 * step
    top = below + step
    while top - below > 1:
        mid = (below + top) // 2
        if reached(mid):
            top = mid
        else:
            below = mid
    return top


@lru_cache(maxsize=None)
def box_zeta(a: int, b: int):
    return isolate_zeta(ShiftPair(a, b), Fraction(1, Y_BOX + b))


GUESSES = ("far_below", "lo", "near", "far_above")


@settings(max_examples=400, deadline=None)
@given(
    a=st.integers(1, 8),
    b=st.integers(1, 8),
    y=st.integers(0, Y_BOX),
    kind=st.sampled_from(GUESSES),
    offset=st.integers(-5, 5),
)
@example(a=1, b=1, y=272, kind="near", offset=0)
@example(a=1, b=1, y=0, kind="far_below", offset=0)
@example(a=8, b=1, y=8, kind="lo", offset=0)
@example(a=8, b=8, y=9, kind="far_above", offset=0)
@example(a=2, b=3, y=Y_BOX, kind="near", offset=5)
def test_crossing_is_the_reference_whatever_the_guess(a, b, y, kind, offset):
    shift = ShiftPair(a, b)
    m = comb_crossing(y, shift)
    solution = reference_row(y, shift, box_zeta(a, b))
    assert solution is None or solution == m
    guess = {
        "far_below": -(10**6),
        "lo": y + a + b,
        "near": m + offset,
        "far_above": m + 10**6,
    }[kind]
    assert search_mod._row_crossing(y, shift, guess) == (m, solution == m)


@lru_cache(maxsize=None)
def box_crossing(a: int, b: int, y: int) -> int:
    return comb_crossing(y, ShiftPair(a, b))


def assert_last_row(a: int, b: int, x_max: int) -> None:
    # x_max >= y+a+b, and C(x-a,y+b) >= C(x,y) holds from the crossing on, so m_y <= x_max
    # exactly when it holds at x_max
    passing = [y for y in range(x_max - a - b + 1) if math.comb(x_max - a, y + b) >= math.comb(x_max, y)]
    assert passing == list(range(len(passing)))  # a prefix of the rows
    assert search_mod._last_row(ShiftPair(a, b), x_max) == len(passing) - 1


@settings(max_examples=100, deadline=None)
@given(a=st.integers(1, 8), b=st.integers(1, 8), data=st.data())
def test_last_row_is_the_greatest_row_crossing_by_x_max(a, b, data):
    kind = data.draw(st.sampled_from(("below", "on", "any")))
    if kind == "below":
        x_max = data.draw(st.integers(0, a + b - 1))
    elif kind == "on":
        x_max = box_crossing(a, b, data.draw(st.integers(0, 100)))
    else:
        x_max = data.draw(st.integers(0, 300))
    assert_last_row(a, b, x_max)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (8, 1), (1, 8)])
def test_last_row_at_the_first_crossings(a, b):
    # row 0 crosses at a+b, where C(a+b,0) = C(b,b) = 1; one below it no row crosses
    for x_max in (a + b - 1, a + b, box_crossing(a, b, 1), box_crossing(a, b, 272)):
        assert_last_row(a, b, x_max)


def test_search_is_the_reference_sweep():
    for a in range(1, 7):
        for b in range(1, 7):
            shift = ShiftPair(a, b)
            got = [(s.x, s.y) for s in search(shift, 2000)]
            assert got == reference_search(shift, 2000), (a, b)
