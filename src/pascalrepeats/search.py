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

so R increases strictly in x and each row has at most one solution,
found by exact bisection on the product sides. The bracket for the
bisection: for y > a the zeta window (any solution satisfies
x ~ zeta * y within O(a+b)); for y <= a a gallop upward from y+a+b.
An exhaustive brute sweep is kept as the correctness oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial, falling_factorial, fibonacci
from .errors import PreconditionError
from .ratios import Interval, ShiftPair, bracket, zeta_poly, isolate_zeta


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


def _product_sides(x: int, y: int, shift: ShiftPair) -> tuple[int, int]:
    left = falling_factorial(x - y, shift.degree)
    right = falling_factorial(x, shift.a) * falling_factorial(y + shift.b, shift.b)
    return left, right


def equality_check(x: int, y: int, shift: ShiftPair) -> bool:
    """Exact test of C(x,y) = C(x-a,y+b) without computing either side."""
    if x < y or y < 0:
        raise PreconditionError(f"equality_check needs x >= y >= 0, got x={x}, y={y}")
    if x - shift.a < y + shift.b:
        # right side is 0 while C(x,y) >= 1
        return False
    left, right = _product_sides(x, y, shift)
    return left == right


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


def _make_solution(x: int, y: int, shift: ShiftPair) -> Solution:
    value = binomial(x, y)
    return Solution(shift, x, y, value, value <= 1)


def _solve_row(y: int, shift: ShiftPair, lo: int, hi: int | None) -> int | None:
    """The solution x of row y with lo <= x <= hi, or None; hi=None means unbounded.

    Only x >= y+a+b can solve (below it C(x-a,y+b) = 0 < C(x,y)), and there
    left/right = C(x-a,y+b)/C(x,y) strictly increases in x, so equality is an
    exact bisection on the product sides. Without an upper end the routine
    first gallops (steps 1, 2, 4, ...) to an x with left >= right, which
    exists because the ratio grows without bound.
    """
    lo = max(lo, y + shift.degree)
    if hi is None:
        hi, step = lo, 1
        while True:
            left, right = _product_sides(hi, y, shift)
            if left >= right:
                break
            lo, hi, step = hi + 1, hi + step, 2 * step
    while lo <= hi:
        mid = (lo + hi) // 2
        left, right = _product_sides(mid, y, shift)
        if left == right:
            return mid
        if left < right:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _search_range(args: tuple[ShiftPair, int, int, Interval]) -> list[Solution]:
    shift, y_lo, y_hi, zeta = args
    out = []
    for y in range(y_lo, y_hi + 1):
        lo, hi = candidate_window(y, shift, zeta) if y > shift.a else (0, None)
        x = _solve_row(y, shift, lo, hi)
        if x is not None:
            out.append(_make_solution(x, y, shift))
    return out


def search(shift: ShiftPair, y_max: int, workers: int = 1) -> list[Solution]:
    """Every solution with 0 <= y <= y_max, sorted by (y, x).

    The zeta interval is refined until width*(y_max+b) <= 1 so the window
    width stays O(a+b). Workers > 1 split the y-range into contiguous
    chunks, one process each, never more processes than usable CPUs;
    each chunk is pure and the merge is a deterministic sort.
    """
    if y_max < 1:
        raise PreconditionError(f"search needs y_max >= 1, got {y_max}")
    if workers < 1:
        raise PreconditionError(f"search needs workers >= 1, got {workers}")
    zeta = isolate_zeta(shift, Fraction(1, y_max + shift.b))
    args = [(shift, lo, hi, zeta) for lo, hi in _chunk_ranges(y_max, workers)]
    if len(args) == 1:
        results = [_search_range(args[0])]
    else:
        from multiprocessing import Pool  # here, so that a serial search never loads it

        with Pool(processes=len(args)) as pool:
            results = pool.map(_search_range, args)
    merged = [s for part in results for s in part]
    return sorted(merged, key=Solution.key)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_ranges(y_max: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ranges covering 0..y_max, one per process.

    There are at most as many ranges as workers asked for, rows, and CPUs
    this process may run on.
    """
    n = y_max + 1
    parts = max(1, min(workers, n, _usable_cpus()))
    size, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        end = start + size - 1 + (1 if i < extra else 0)
        out.append((start, end))
        start = end + 1
    return out


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
