"""Finding all solutions of C(x,y) = C(x-a,y+b) up to a bound.

Everything is integer arithmetic on the cleared-denominator product form

    ff(x-y, a+b)  =  ff(x, a) * ff(y+b, b),   ff(s, L) = s(s-1)...(s-L+1),

that is (x-y)...(x-y-a-b+1) = x...(x-a+1) * (y+1)...(y+b), with each
ff one `math.perm` call (`combinatorics.falling_factorial`). It is
equivalent to the binomial equation whenever x >= y >= 0 and
x-a >= y+b >= 0, and decides the remaining cases by sign alone.

One row solver finds every solution. Below x = y+a+b the right-hand
binomial vanishes, so no solution exists there. From x = y+a+b on, the
ratio of the left side to the right side is R(x) = C(x-a,y+b)/C(x,y),
and with X = x+1

    R(x+1)/R(x) - 1 = (bX + ay) / ((X-y-a-b) X) > 0,

so R increases strictly in x and each row has at most one solution: it
can only be the row's crossing m_y, the least x >= y+a+b with
left >= right, and it is one exactly when left = right there. The
crossing is found by exponential search from a guess (`_row_crossing`);
any guess gives the same m_y, and a good one makes the search short.
One walk (`_row_solutions`) guesses each row's crossing from the rows
before it, for `search` and for `census.intersect_curves`. An exhaustive
brute sweep is kept as the correctness oracle. A solution's value C(x,y)
is formed only within a bit budget (`_check_value_bits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import perm
from typing import Iterator

from .combinatorics import binomial, falling_factorial, fibonacci
from .errors import PreconditionError
from .ratios import Interval, ShiftPair, bracket, zeta_poly


@dataclass(frozen=True)
class Solution:
    """One equality C(x,y) = C(x-a,y+b) = value; trivial means value <= 1."""

    shift: ShiftPair
    x: int
    y: int
    value: int
    trivial: bool

    def key(self) -> tuple[int, int]:
        return (self.y, self.x)


@dataclass(frozen=True)
class FamilyMember:
    """Member i of the Fibonacci family: C(n+1,k+1) = C(n,k+2) = value."""

    i: int
    n: int
    k: int
    value: int


def equality_check(x: int, y: int, shift: ShiftPair) -> bool:
    """Exact test of C(x,y) = C(x-a,y+b) without computing either side."""
    if x < y or y < 0:
        # through Decimal, which Python's int-to-string digit limit does not apply to
        raise PreconditionError(f"equality_check needs x >= y >= 0, got x={Decimal(x)}, y={Decimal(y)}")
    if x - shift.a < y + shift.b:
        # right side is 0 while C(x,y) >= 1
        return False
    right = falling_factorial(x, shift.a) * falling_factorial(y + shift.b, shift.b)
    return falling_factorial(x - y, shift.degree) == right


def candidate_window(y: int, shift: ShiftPair, zeta: Interval) -> tuple[int, int]:
    """Integer range sure to contain every solution x for this y (y > a).

    Inverting the bracket inequalities: any solution satisfies
    zeta < (x-y)/(y-a+1) and (x-a-y-b+1)/(y+b) < zeta, so
    x > zeta*(y-a+1) + y and x < zeta*(y+b) + y + a + b - 1.
    """
    if y <= shift.a:
        raise PreconditionError(f"candidate_window needs y > a, got y={y}, a={shift.a}")
    # ceil and floor of the two bounds, in integers over each endpoint's denominator
    p, q = zeta.lo.numerator, zeta.lo.denominator
    lo = -(-(p * (y - shift.a + 1) + q * y) // q)
    p, q = zeta.hi.numerator, zeta.hi.denominator
    hi = (p * (y + shift.b) + q * (y + shift.degree - 1)) // q
    return lo, hi


# The bound of _check_value_bits is 87,840 bits for family member 6 (220,628 bits), which
# passes, and 602,069 for member 7 (about 1.5 million bits and 20 s to form), which does not.
_MAX_VALUE_BITS = 1 << 18


def _check_value_bits(x: int, y: int) -> None:
    """Refuse to form C(x,y), x >= y >= 0, when it surely has over _MAX_VALUE_BITS bits.

    With k = min(y, x-y) >= 1, C(x,y) = C(x,k) is the product of
    (x-i)/(k-i) for i < k, each at least x/k, so it has at least
    k*log2(x/k) >= k*((x//k).bit_length() - 1) bits.
    """
    k = min(y, x - y)
    if k and k * ((x // k).bit_length() - 1) > _MAX_VALUE_BITS:
        raise PreconditionError(f"a solution value over {_MAX_VALUE_BITS} bits is not formed")


def _make_solution(x: int, y: int, shift: ShiftPair) -> Solution:
    _check_value_bits(x, y)
    value = binomial(x, y)
    return Solution(shift, x, y, value, value <= 1)


def _row_crossing(y: int, shift: ShiftPair, hi: int | None, guess: int) -> tuple[int, bool] | None:
    """Row y's crossing up to hi and whether it solves; hi=None means unbounded.

    The crossing is the least x >= y+a+b, x <= hi, with
    ff(x-y, a+b) >= ff(x, a) * ff(y+b, b); it is a solution exactly when
    the two sides are equal there. None means no x up to hi qualifies.
    On x >= y+a+b the sides' ratio R(x) = C(x-a,y+b)/C(x,y) increases
    strictly (module docstring), so the predicate is false below the
    crossing and true from it on, and the answer does not depend on the
    guess. From the guess, clamped into the range, the search gallops by
    1, 2, 4, ... away from the side the predicate names until it brackets
    the crossing, then bisects the last step. Unbounded, the gallop ends
    because R grows without bound. Every argument of `perm` is
    nonnegative here, and ff(y+b, b) is taken once per row. The sides'
    difference is written out at each probe: a helper call per probe
    costs more than the two `perm` calls.
    """
    a, b = shift.a, shift.b
    d = a + b
    lo = y + d
    if hi is not None and lo > hi:
        return None
    row = perm(y + b, b)
    x = guess if guess > lo else lo
    if hi is not None and x > hi:
        x = hi
    gap = perm(x - y, d) - perm(x, a) * row  # left - right
    # below: greatest x known false (lo - 1 when none is); top: least known true
    step = 1
    if gap >= 0:
        below, top, top_gap = lo - 1, x, gap
        while top > lo:
            x = max(top - step, lo)
            gap = perm(x - y, d) - perm(x, a) * row
            if gap < 0:
                below = x
                break
            top, top_gap, step = x, gap, 2 * step
    else:
        below = x
        while True:
            if below == hi:
                return None
            x = below + step if hi is None else min(below + step, hi)
            gap = perm(x - y, d) - perm(x, a) * row
            if gap >= 0:
                top, top_gap = x, gap
                break
            below, step = x, 2 * step
    while top - below > 1:
        x = (below + top) // 2
        gap = perm(x - y, d) - perm(x, a) * row
        if gap >= 0:
            top, top_gap = x, gap
        else:
            below = x
    return top, top_gap == 0


def _row_solutions(shift: ShiftPair, y_max: int, x_max: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (x, y) for each row 0..y_max whose crossing, up to x_max, solves.

    The first row's guess is y+a+b, the second's one above the first
    crossing, and every later row's 2*m_(y-1) - m_(y-2). Crossings never
    decrease in y: with R_y the ratio R of row y, for x >= y+1+a+b
    R_(y+1)(x)/R_y(x) = (x-y-a-b)(y+1) / ((x-y)(y+b+1)) < 1, so
    R_y(m_(y+1)) > R_(y+1)(m_(y+1)) >= 1 and m_y <= m_(y+1). The walk
    therefore stops at the first row with no crossing up to x_max.
    """
    last = prev = None  # crossings of the two rows before
    for y in range(y_max + 1):
        if prev is not None:
            guess = 2 * last - prev
        else:
            guess = y + shift.degree if last is None else last + 1
        crossing = _row_crossing(y, shift, x_max, guess)
        if crossing is None:
            return
        x, equal = crossing
        last, prev = x, last
        if equal:
            yield x, y


def search(shift: ShiftPair, y_max: int) -> list[Solution]:
    """Every solution with 0 <= y <= y_max, in increasing y; a row holds at most one."""
    if y_max < 1:
        raise PreconditionError(f"search needs y_max >= 1, got {y_max}")
    return [_make_solution(x, y, shift) for x, y in _row_solutions(shift, y_max)]


def brute_search(shift: ShiftPair, x_max: int) -> list[Solution]:
    """Exhaustive sweep over 0 <= y <= x <= x_max; the oracle for search."""
    out = []
    for x in range(0, x_max + 1):
        for y in range(0, x + 1):
            if equality_check(x, y, shift):
                out.append(_make_solution(x, y, shift))
    return sorted(out, key=Solution.key)


def _family_nk(i: int) -> tuple[int, int]:
    if i < 1:
        raise PreconditionError(f"family index must be >= 1, got {i}")
    f_23 = fibonacci(2 * i + 3)
    n = fibonacci(2 * i + 2) * f_23 - 1
    k = fibonacci(2 * i) * f_23 - 1
    return n, k


def family_member(i: int) -> FamilyMember:
    """Member i with its exact value C(n+1,k+1).

    The value has on the order of F_{2i+2}F_{2i+3} digits worth of factors,
    and the cost of forming it grows about 30-fold per step: on 2 CPUs
    member i=6 (220,628 bits) takes about 0.7 s and i=7 about 20 s.
    family_verify checks the defining identity without ever forming the
    value.
    """
    n, k = _family_nk(i)
    return FamilyMember(i, n, k, binomial(n + 1, k + 1))


def family_verify(i_max: int) -> bool:
    """Check C(n+1,k+1) = C(n,k+2) for every member i <= i_max.

    Uses the product-form equality at (x,y) = (n+1,k+1) with shift (1,1),
    which is equivalent and needs only word-sized products.
    """
    if i_max < 1:
        raise PreconditionError(f"family_verify needs i_max >= 1, got {i_max}")
    one_one = ShiftPair(1, 1)
    for i in range(1, i_max + 1):
        n, k = _family_nk(i)
        if not equality_check(n + 1, k + 1, one_one):
            return False
    return True


def convergent_bracket_check(i: int) -> bool:
    """Bracket endpoints at family member i are consecutive Fibonacci quotients.

    At (x,y) = (n+1,k+1) the bracket is (F_{2i+2}/F_{2i+1}, F_{2i+1}/F_{2i})
    after reduction, and the endpoints straddle the golden ratio (checked by
    the exact sign of t^2 - t - 1, no floating point).
    """
    n, k = _family_nk(i)
    shift = ShiftPair(1, 1)
    lo, hi = bracket(n + 1, k + 1, shift)
    f0, f1, f2 = fibonacci(2 * i), fibonacci(2 * i + 1), fibonacci(2 * i + 2)
    p = zeta_poly(shift)
    return lo == Fraction(f2, f1) and hi == Fraction(f1, f0) and p.sign_at(f2, f1) < 0 < p.sign_at(f1, f0)
