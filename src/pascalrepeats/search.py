"""Finding all solutions of C(x,y) = C(x-a,y+b) up to a bound.

Everything is integer arithmetic on the cleared-denominator product form

    ff(x-y, a+b)  =  ff(x, a) * ff(y+b, b),   ff(s, L) = s(s-1)...(s-L+1),

that is (x-y)...(x-y-a-b+1) = x...(x-a+1) * (y+1)...(y+b), with each
ff one `math.perm` call (`combinatorics.falling_factorial`). It is
equivalent to the binomial equation whenever x >= y >= 0 and
x-a >= y+b >= 0, and decides the remaining cases by sign alone.

Each row holds at most one solution. Below x = y+a+b the right-hand
binomial vanishes, so no solution exists there. From x = y+a+b on, the
ratio of the left side to the right side is R(x) = C(x-a,y+b)/C(x,y),
and with X = x+1

    R(x+1)/R(x) - 1 = (bX + ay) / ((X-y-a-b) X) > 0,

so R increases strictly in x, and a solution can only be the row's
crossing m_y, the least x >= y+a+b with left >= right; it is one exactly
when left = right there. The crossing is found by exponential search
from a guess (`_row_crossing`); any guess gives the same m_y, and a good
one makes the search short. One walk (`_row_solutions`) guesses each
row's crossing from the rows before it. Both `search` and
`census.intersect_curves` run the tube below, which starts with the walk.

The same holds for real x. Write F(x,y) = left - right. For real
x > y+a+b-1 every factor of both sides is positive, and

    d/dx log(left/right) = sum_(i<a+b) 1/(x-y-i) - sum_(i<a) 1/(x-i) > 0,

since each of the first a terms is at least its partner 1/(x-i) and b
positive terms remain. log(left/right) tends to -inf as x falls to
y+a+b-1 and to +inf as x grows, so row y has exactly one real crossing
phi(y) > y+a+b-1, with F < 0 left of it and F > 0 right of it. Then
m_y = ceil(phi(y)), and row y holds a solution iff phi(y) is an integer.
As phi(y) = (1+zeta)y + c + O(1/y), over a block of rows phi stays in a
thin strip about a line.

Above its first rows (`_TUBE_START`, more for large a+b), `search`
covers the rows in blocks [y0, y1] that double in size
(`_tube_solutions`). For each block it takes two lines
L(y) = (P*y + Q_L)/M and U(y) = (P*y + Q_U)/M with M = 2^k, and proves
L(y) < phi(y) < U(y) for every real y in the block by three exact
checks (`_block_solutions`):

  - L(y) > y+a+b-1 at y0 and at y1, hence on the whole block;
  - M^(a+b) * F(L(y), y) has no root in [y0, y1] and is negative there,
    so L(y) < phi(y);
  - M^(a+b) * F(U(y), y) has no root in [y0, y1] and is positive there,
    so U(y) > phi(y).

Along a line every factor of the product form, times M, is linear in y.
After the Moebius map y = (y0 + y1*t)/(1+t), which takes t in [0, +inf]
onto [y0, y1], each factor f becomes (f(y0) + f(y1)*t)/(1+t), so
(1+t)^(a+b) * M^(a+b) * F is a difference of two products of such
linear terms (`_line_sign`). Its sign on t >= 0 is settled by Descartes'
rule of signs: coefficients of one sign, with nonzero ends, leave it no
root there (Vincent's theorem, as used by Collins and Akritas, 1976).
When the rule is inconclusive, the proof fails.

In a proved block a solution can lie only on a row where an integer
fits strictly between L and U. With W = Q_U - Q_L < M, those are the
rows with (P*y + Q_L) mod M > M - W, and the integer is floor(L(y)) + 1.
A Euclid-like recursion finds the least such row from any start in
O(k) steps (`_least_row`), and `equality_check` decides each candidate.

The lines come from phi at y0, at y1 and at the middle row, each taken
to 2^-k by `bisect_root` on [m_y - 1, m_y], with k = 2*bits(y1) + 24:
the chord through the ends, widened on both sides by twice the sagitta
at the middle row and by the rounding. The choice affects only the
cost; correctness rests on the three checks, and no float enters. A
failed proof halves the block, and a block of fewer than 16 rows is
walked. So `search` costs O(log y_max) block proofs plus its candidate
rows, and the walk remains both its fallback and its reference.

An exhaustive brute sweep is kept as the correctness oracle. A
solution's value C(x,y) is formed only within a bit budget
(`_check_value_bits`), and `equality_check` forms its products only
within another (`_MAX_PRODUCT_BITS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import perm
from typing import Iterable, Iterator

from .combinatorics import binomial, falling_factorial, fibonacci
from .errors import PreconditionError
from .polynomials import UniPoly, bisect_root
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


# Each product equality_check forms has at most (a+b)*bits(x) bits; on 2 CPUs a 2^20-bit
# math.perm takes about 0.15 s, and the cache records of the benchmark stay under 2^12 bits.
_MAX_PRODUCT_BITS = 1 << 20


def equality_check(x: int, y: int, shift: ShiftPair) -> bool:
    """Exact test of C(x,y) = C(x-a,y+b) without computing either side.

    The sides ff(x-y, a+b) and ff(x, a)*ff(y+b, b) have at most
    (a+b)*bits(x) bits when x-a >= y+b; a test past _MAX_PRODUCT_BITS is
    refused before any product is formed.
    """
    if x < y or y < 0:
        # through Decimal, which Python's int-to-string digit limit does not apply to
        raise PreconditionError(f"equality_check needs x >= y >= 0, got x={Decimal(x)}, y={Decimal(y)}")
    if x - shift.a < y + shift.b:
        # right side is 0 while C(x,y) >= 1
        return False
    if shift.degree * x.bit_length() > _MAX_PRODUCT_BITS:
        raise PreconditionError(f"equality_check does not form products of over {_MAX_PRODUCT_BITS} bits")
    right = falling_factorial(x, shift.a) * falling_factorial(y + shift.b, shift.b)
    return falling_factorial(x - y, shift.degree) == right


def candidate_window(y: int, shift: ShiftPair, zeta: Interval) -> tuple[int, int]:
    """Integer range sure to contain every solution x for this y (y > a).

    Inverting the bracket inequalities: any solution satisfies
    zeta < (x-y)/(y-a+1) and (x-a-y-b+1)/(y+b) < zeta, so
    x > zeta*(y-a+1) + y and x < zeta*(y+b) + y + a + b - 1.

    No solver calls it; only tests do. It stays public because the
    benchmark's trace table (LAYER_STATS in perfbench/run.py, checked by
    tests/test_traced_names.py) names it, and tracing fails on a name the
    package no longer defines. Delete it together with the unused
    `search --workers`, which the benchmark's search_pool op passes, once
    the benchmark names neither (ROADMAP item 2).
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
# passes, and 602,069 for member 7 (1,512,263 bits), which does not. Member 7 takes about 0.4 s
# to form on 2 CPUs, but its 455,237 decimal digits take about 3.8 s to print by cli._digits
# (member 6's 66,416 take 0.08 s; the time grows about quadratically), so the bound stays.
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


def _row_crossing(y: int, shift: ShiftPair, guess: int) -> tuple[int, bool]:
    """Row y's crossing, the least x >= y+a+b with left >= right, and whether left = right there.

    The predicate is false below the crossing and true from it on (module
    docstring), so the answer does not depend on the guess. From the
    guess, raised to y+a+b, the search gallops by 1, 2, 4, ... away from
    the side the predicate names until it brackets the crossing, which it
    does because R grows without bound, then bisects the last step. Every
    argument of `perm` is nonnegative, and ff(y+b, b) is taken once per
    row. The sides' difference is written out at each probe: a helper
    call per probe costs more than the two `perm` calls.
    """
    a, b, d = shift.a, shift.b, shift.degree
    lo = y + d
    row = perm(y + b, b)
    x = guess if guess > lo else lo
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
        while gap < 0:
            below, x, step = x, x + step, 2 * step
            gap = perm(x - y, d) - perm(x, a) * row
        top, top_gap = x, gap
    while top - below > 1:
        x = (below + top) // 2
        gap = perm(x - y, d) - perm(x, a) * row
        if gap >= 0:
            top, top_gap = x, gap
        else:
            below = x
    return top, top_gap == 0


def _row_solutions(shift: ShiftPair, y_max: int, y_lo: int = 0) -> Iterator[tuple[int, int]]:
    """Yield (x, y) for each row y_lo..y_max whose crossing solves.

    The first row's guess is y+a+b, the second's one above the first
    crossing, and every later row's 2*m_(y-1) - m_(y-2). Crossings never
    decrease in y: with R_y the ratio R of row y, for x >= y+1+a+b
    R_(y+1)(x)/R_y(x) = (x-y-a-b)(y+1) / ((x-y)(y+b+1)) < 1, so
    R_y(m_(y+1)) > R_(y+1)(m_(y+1)) >= 1 and m_y <= m_(y+1).
    """
    last = prev = None  # crossings of the two rows before
    for y in range(y_lo, y_max + 1):
        if prev is not None:
            guess = 2 * last - prev
        else:
            guess = y + shift.degree if last is None else last + 1
        x, equal = _row_crossing(y, shift, guess)
        last, prev = x, last
        if equal:
            yield x, y


def _last_row(shift: ShiftPair, x_max: int) -> int:
    """The greatest row y whose crossing m_y is at most x_max >= 0, or -1 if there is none.

    m_y >= y+a+b, so y <= x_max-a-b. For such y, x_max >= y+a+b, and R
    increases in x on x >= y+a+b, so m_y <= x_max exactly when
    ff(x_max-y, a+b) >= ff(x_max, a) * ff(y+b, b). At fixed x_max the
    left side falls in y and the right side rises, so the rows that pass
    form a prefix of 0..x_max-a-b, and bisection finds its end.
    """
    a, b, d = shift.a, shift.b, shift.degree
    lo, hi = -1, x_max - d  # row lo passes (-1 stands for none); rows above hi fail
    while hi > lo:
        y = (lo + hi + 1) // 2
        if perm(x_max - y, d) >= perm(x_max, a) * perm(y + b, b):
            lo = y
        else:
            hi = y - 1
    return lo


_TUBE_START = 256  # rows below it are walked; the first block has this many rows
# A block's proof costs about (a+b)^2 big-integer products and walking a row three C-level
# perm calls; on 2 CPUs they break even at blocks of about 32*(a+b) rows.
_TUBE_ROWS_PER_DEGREE = 32
_TUBE_MIN_ROWS = 16  # a block with fewer rows is walked
_TUBE_GUARD_BITS = 24  # bits of the lines beyond twice the bit length of the block's last row


def _linear_product(pairs: Iterable[tuple[int, int]]) -> UniPoly:
    """The product of the linear polynomials u + v*t, ascending coefficients."""
    out = [1]
    for u, v in pairs:
        out = [u * out[0]] + [u * out[i] + v * out[i - 1] for i in range(1, len(out))] + [v * out[-1]]
    return UniPoly(out)


def _crossing_point(y: int, shift: ShiftPair, guess: int, bits: int) -> tuple[int, int]:
    """Row y's integer crossing m and about 2^bits * phi(y), for the real crossing phi(y) in [m-1, m]."""
    m, equal = _row_crossing(y, shift, guess)
    if equal:
        return m, m << bits
    left = _linear_product((-y - i, 1) for i in range(shift.degree))
    right = _linear_product((-i, 1) for i in range(shift.a)) * perm(y + shift.b, shift.b)
    lo, _ = bisect_root(left - right, Fraction(m - 1), Fraction(m), Fraction(1, 1 << bits))
    return m, (lo.numerator << bits) // lo.denominator


def _line_sign(shift: ShiftPair, p: int, q: int, big_m: int, y0: int, y1: int) -> int:
    """The proved sign of F((p*y + q)/big_m, y) on every real y in [y0, y1], or 0.

    Each factor of the product form, times big_m, is linear in y; after
    y = (y0 + y1*t)/(1+t) it is (f(y0) + f(y1)*t)/(1+t). Both sides have
    a+b factors, so H(t) = (1+t)^(a+b) * big_m^(a+b) * F is the difference
    of two products of (f(y0) + f(y1)*t), and H(0) and the t^(a+b)
    coefficient are the values at y0 and y1. By Descartes' rule of signs,
    H keeps the sign of H(0) on all of [0, +inf] when H(0) != 0, H has
    degree a+b, and no two coefficients have opposite signs. Otherwise
    the rule is inconclusive, and 0 fails the block's proof.
    """
    a, b, d = shift.a, shift.b, shift.degree

    def ends(u: int, v: int) -> tuple[int, int]:  # the factor u*y + v at y0 and y1
        return u * y0 + v, u * y1 + v

    left = _linear_product(ends(p - big_m, q - big_m * i) for i in range(d))
    right = _linear_product(
        [ends(p, q - big_m * i) for i in range(a)] + [ends(big_m, big_m * j) for j in range(1, b + 1)]
    )
    c = (left - right).coeffs
    if len(c) != d + 1 or min(c) < 0 < max(c):
        return 0
    return (c[0] > 0) - (c[0] < 0)


def _least_row(p: int, q: int, m: int, lo: int, hi: int) -> int | None:
    """Least z >= 0 with lo <= (p*z + q) mod m <= hi, for 0 <= lo <= hi < m; None if none.

    Subtracting q turns the target into a cyclic range for p*z mod m; one
    that wraps past m-1 holds 0, and z = 0. Otherwise, with 0 <= p < m:
    if lo = 0, z = 0. If p > m/2, mirror: p*z mod m lies in [lo, hi]
    (lo >= 1) exactly when (m-p)*z mod m lies in [m-hi, m-lo]. If a
    multiple p*z lies in [lo, hi] itself, the least is z = ceil(lo/p).
    Otherwise [lo, hi] lies strictly between two multiples of p, and the
    least z has p*z = m*w + v with v in [lo, hi] and w >= 1 least such
    that some multiple of p lies in [m*w + lo, m*w + hi], that is with
    (-m)*w mod p in [lo mod p, hi mod p]: the same problem with (p, m)
    replaced by ((-m) mod p, p), at most half the modulus. Then
    z = ceil((m*w + lo)/p).
    """
    lo, hi = (lo - q) % m, (lo - q) % m + hi - lo
    if hi >= m:
        return 0
    p %= m
    frames = []
    while True:
        if lo == 0:
            z = 0
            break
        if p == 0:
            return None
        if 2 * p > m:
            p, lo, hi = m - p, m - hi, m - lo
        z = -(-lo // p)
        if p * z <= hi:
            break
        frames.append((m, lo, p))
        p, m, lo, hi = -m % p, p, lo % p, hi % p
    for m, lo, p in reversed(frames):
        z = -(-(m * z + lo) // p)
    return z


def _rows_between(p: int, q_lo: int, q_hi: int, m: int, y0: int, y1: int) -> Iterator[tuple[int, int]]:
    """(x, y) for each row y0..y1 with an integer x strictly between (p*y + q_lo)/m and (p*y + q_hi)/m.

    For 1 < q_hi - q_lo = w < m there is at most one such x, floor of the
    lower end plus one, and it exists exactly when (p*y + q_lo) mod m > m - w.
    """
    w = q_hi - q_lo
    y = y0
    while True:
        z = _least_row(p, p * y + q_lo, m, m - w + 1, m - 1)
        if z is None or y + z > y1:
            return
        y += z
        yield (p * y + q_lo) // m + 1, y
        y += 1


def _block_solutions(shift: ShiftPair, y0: int, y1: int, known: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """The solutions in rows y0..y1 from a proved tube, or None when the proof fails.

    known holds the rows and integer crossings found so far, most recent
    last; each new crossing is guessed from the last two and appended.
    """
    d = shift.degree
    k = 2 * y1.bit_length() + _TUBE_GUARD_BITS
    big_m = 1 << k
    ym = (y0 + y1) // 2
    scaled = []  # about big_m * phi(y) at y0, ym and y1
    for y in (y0, ym, y1):
        guess = y + d
        if len(known) > 1:
            (ya, ma), (yb, mb) = known[-2:]
            guess = mb + (mb - ma) * (y - yb) // (yb - ya)
        m, phi = _crossing_point(y, shift, guess, k)
        known.append((y, m))
        scaled.append(phi)
    f0, fm, f1 = scaled
    p = (f1 - f0) // (y1 - y0)
    q = f0 - p * y0
    margin = 2 * abs(fm - p * ym - q) + 4 * (y1 - y0) + 32
    q_lo, q_hi = q - margin, q + margin
    width = q_hi - q_lo
    if width >= big_m or any(p * y + q_lo <= big_m * (y + d - 1) for y in (y0, y1)):
        return None
    if _line_sign(shift, p, q_lo, big_m, y0, y1) != -1 or _line_sign(shift, p, q_hi, big_m, y0, y1) != 1:
        return None
    return [(x, y) for x, y in _rows_between(p, q_lo, q_hi, big_m, y0, y1) if equality_check(x, y, shift)]


def _tube_solutions(shift: ShiftPair, y_max: int, y_start: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (x, y) for each solution row 0..y_max: rows below y_start walked, then proved blocks."""
    if y_start is None:
        y_start = max(_TUBE_START, _TUBE_ROWS_PER_DEGREE * shift.degree)
    yield from _row_solutions(shift, min(y_max, y_start - 1))
    known: list[tuple[int, int]] = []
    y0, size = y_start, y_start
    while y0 <= y_max:
        y1 = min(y0 + size - 1, y_max)
        if y1 - y0 + 1 < _TUBE_MIN_ROWS:
            found = _row_solutions(shift, y1, y_lo=y0)
        else:
            found = _block_solutions(shift, y0, y1, known)
            if found is None:
                size = (y1 - y0 + 1) // 2
                continue
        yield from found
        y0, size = y1 + 1, 2 * size


def search(shift: ShiftPair, y_max: int) -> list[Solution]:
    """Every solution with 0 <= y <= y_max, in increasing y; a row holds at most one."""
    if y_max < 1:
        raise PreconditionError(f"search needs y_max >= 1, got {y_max}")
    return [_make_solution(x, y, shift) for x, y in _tube_solutions(shift, y_max)]


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

    The value has on the order of F_{2i+2}F_{2i+3} bits, about 6.9 times
    more per step. `binomial` forms these central values from their prime
    factorisation: on 2 CPUs member i=5 (32,183 bits) takes about 2 ms,
    i=6 (220,628 bits) about 20 ms and i=7 (1,512,263 bits) about 0.4 s,
    where math.comb takes 14-19 ms, 0.4-0.54 s and 17 s. family_verify
    checks the defining identity without ever forming the value.
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
