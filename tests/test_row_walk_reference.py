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
solution must be the one the reference finds.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from functools import lru_cache

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


GUESSES = ("far_below", "lo", "near", "far_above", "beyond_hi")


@settings(max_examples=400, deadline=None)
@given(
    a=st.integers(1, 8),
    b=st.integers(1, 8),
    y=st.integers(0, Y_BOX),
    kind=st.sampled_from(GUESSES),
    offset=st.integers(-5, 5),
    hi_offset=st.integers(-3, 3),
)
@example(a=1, b=1, y=272, kind="near", offset=0, hi_offset=0)
@example(a=1, b=1, y=0, kind="far_below", offset=0, hi_offset=-3)
@example(a=8, b=1, y=8, kind="lo", offset=0, hi_offset=0)
@example(a=8, b=8, y=9, kind="far_above", offset=0, hi_offset=-1)
@example(a=2, b=3, y=Y_BOX, kind="beyond_hi", offset=5, hi_offset=3)
def test_crossing_is_the_reference_whatever_the_guess(a, b, y, kind, offset, hi_offset):
    shift = ShiftPair(a, b)
    m = comb_crossing(y, shift)
    solution = reference_row(y, shift, box_zeta(a, b))
    assert solution is None or solution == m
    hi = m + hi_offset
    guess = {
        "far_below": -(10**6),
        "lo": y + a + b,
        "near": m + offset,
        "far_above": m + 10**6,
        "beyond_hi": hi + 1 + abs(offset),
    }[kind]
    assert search_mod._row_crossing(y, shift, None, guess) == (m, solution == m)
    want = (m, solution == m) if m <= hi else None
    assert search_mod._row_crossing(y, shift, hi, guess) == want


def test_search_is_the_reference_sweep():
    for a in range(1, 7):
        for b in range(1, 7):
            shift = ShiftPair(a, b)
            got = [(s.x, s.y) for s in search(shift, 2000)]
            assert got == reference_search(shift, 2000), (a, b)
