"""Pascal-triangle multiplicity counting and curve-pair intersections.

N(t) counts the pairs (n,k) with C(n,k) = t. Every t >= 3 has the two
edge occurrences (t,1) and (t,t-1). The interior occurrences (n,k) and
(n,n-k), 2 <= k <= n/2, are found column by column: C(n,k) strictly
increases in n for fixed k, so a column holds t at most once, and only
columns with C(2k,k) <= t can hold it at all. `multiplicity` steps each
column up from a row where one exact `math.comb` is at most t, found by a
float estimate of the row or else by an exact k-th root (see
`_interior_occurrences`).

`scan_high_multiplicity` never calls `multiplicity`: every position it
visits is kept, so each value's record is known as it is met. It tallies
the columns above one streamed column row by row, walks the streamed
column in increasing n, settles column 2 by an integer square root where
it is not the streamed column, and finishes the values met only in the
tally in one pass. (The repeated values it finds are the collisions
C(n,k) = C(m,l) studied by Blokhuis, Brouwer and de Weger, "Binomial
collisions and near collisions", INTEGERS, 2017.)
`intersect_curves` filters the solutions of one shift, found by the proved
tube of `search`, by the equation of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .ratios import ShiftPair
from .search import _last_row, _tube_solutions, equality_check


@dataclass(frozen=True)
class MultiplicityRecord:
    """t with its exact multiplicity and every occurrence, sorted by (n,k)."""

    t: int
    count: int
    occurrences: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.t),
            "count": self.count,
            "occurrences": [[str(n), str(k)] for n, k in self.occurrences],
        }


def _kth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0 and k >= 1, exactly.

    Newton's integer iteration r <- ((k-1)r + x // r^(k-1)) // k, from any
    r > 0, lands at or above the floor of the root (by the AM-GM
    inequality), and from any r above the floor it strictly decreases r;
    so after one step the iteration decreases until it reaches the floor,
    where it stops decreasing. The seed 2^(log2(x)/k), taken in floating
    point to 53 significant bits and rounded up, lies within a relative
    2^-40 or so of the root, so a few steps suffice. (A seed far below
    the root would overshoot to about x/k and descend slowly.)
    """
    if x < 2 or k == 1:
        return x
    e = math.log2(x) / k
    m = max(int(e) - 52, 0)
    r = (int(2.0 ** (e - m)) + 1) << m
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# a column's float start is tried while its row estimate is below 2^50, where the float's error
# is a few rows at most (see _float_start)
_MAX_SEED_LOG = 50 * math.log(2)


def _float_start(t: int, log_t: float, k: int, central: int) -> tuple[int, int] | None:
    """A start (n0, C(n0,k)) for column k with 2k <= n0 and C(n0,k) <= t, from a float; or None.

    Takes log_t = ln t and central = C(2k,k) <= t. Every row with
    C(n,k) >= t has n > (k!*t)^(1/k) + (k-1)/2 (see
    `_interior_occurrences`). n0 is the floor of the float
    exp((ln t + ln k!)/k) + (k-1)/2, tried only while that is below 2^50,
    or 2k if it is not above 2k, where C(2k,k) is central. n0 is returned
    only if its exact C(n0,k) <= t, so the float never decides an answer.
    Its relative error, from ln t, lgamma and exp, is about 2^-48, so
    below 2^50 it is a few rows off at most, and below 2^40 a hundredth
    of a row. For most t, n0 is then the row just below the start of
    `_bracket_start`: one step more, but no k-th root of k!*t.
    """
    e = (log_t + math.lgamma(k + 1)) / k
    if e >= _MAX_SEED_LOG:
        return None
    n = int(math.exp(e) + (k - 1) / 2)
    if n <= 2 * k:
        return 2 * k, central
    c = math.comb(n, k)
    return (n, c) if c <= t else None


def _bracket_start(t: int, k: int) -> tuple[int, int]:
    """A start (n0, C(n0,k)) for column k, for C(2k,k) <= t, from an exact k-th root.

    With r = floor((k!*t)^(1/k)) from `_kth_root`, every row with
    C(n,k) >= t has n > r + (k-1)/2, so n >= r + (k+1)//2, and
    n0 = max(2k, r + (k+1)//2) is at or below the least such row, which
    is at most r+k, since k!*C(r+k,k) >= (r+1)^k > k!*t. C(n0,k) may
    exceed t, when n0 is that least row and t is not in the column.
    """
    n = max(2 * k, _kth_root(math.factorial(k) * t, k) + (k + 1) // 2)
    return n, math.comb(n, k)


def _interior_occurrences(t: int) -> list[tuple[int, int]]:
    """Every (n,k) with C(n,k) = t and 2 <= k <= n/2, in increasing k.

    Column k is searched upward from a start row n0 >= 2k at or below
    n*, the least row of the column with C(n*,k) >= t: C(n+1,k) =
    C(n,k)*(n+1)/(n+1-k) is stepped up the strictly increasing column
    until C(n,k) >= t, which is at n*, and t is in the column exactly when
    C(n*,k) = t. Every such start gives the same answer; the start sets
    only the number of steps. `_float_start` is used when it has a start,
    which its exact C(n0,k) <= t puts at or below n*, else
    `_bracket_start`, which the bound below puts there.

    Both starts rest on one bound. For 2 <= k <= n, k!*C(n,k) =
    n(n-1)...(n-k+1) is a product of k distinct factors in [n-k+1, n]
    whose mean is n-(k-1)/2, so by the AM-GM inequality, strict because
    the factors differ, (n-k+1)^k <= k!*C(n,k) < (n-(k-1)/2)^k. A row
    with C(n,k) >= t thus has n > (k!*t)^(1/k) + (k-1)/2. The steps are
    few: (k!*t)^(1/k) falls short of n-(k-1)/2 by only about k^2/(24n).
    The central C(2k,k) that ends the column loop is carried from column
    to column.
    """
    out = []
    log_t = math.log(t)
    k = 2
    central = 6  # C(2k,k)
    while central <= t:
        n, c = _float_start(t, log_t, k, central) or _bracket_start(t, k)
        while c < t:
            n += 1
            c = c * n // (n - k)
        if c == t:
            out.append((n, k))
        central = central * 2 * (2 * k + 1) // (k + 1)
        k += 1
    return out


def _record(t: int, interior: list[tuple[int, int]]) -> MultiplicityRecord:
    """The record of t from its interior positions (n,k), 2 <= k <= n/2: those, their mirrors and the edges."""
    ordered = tuple(sorted({(t, 1), (t, t - 1), *interior, *[(n, n - k) for n, k in interior]}))
    return MultiplicityRecord(t, len(ordered), ordered)


def multiplicity(t: int) -> MultiplicityRecord:
    """Exact N(t) with occurrence witnesses; t must be at least 2."""
    if t <= 1:
        raise PreconditionError(f"multiplicity needs t >= 2, got {t} (t=1 occurs infinitely often)")
    return _record(t, _interior_occurrences(t))


def _column_two(v: int) -> int:
    """The row n >= 4 with C(n,2) = v, or 0 if there is none: C(n,2) = v means (2n-1)^2 = 8v+1."""
    s = math.isqrt(8 * v + 1)
    if s * s != 8 * v + 1 or s < 7:
        return 0
    return (s + 1) // 2


def _interior_count(interior: list[tuple[int, int]]) -> int:
    """Interior occurrences of the positions (n,k), 2 <= k <= n/2: 2 each, 1 for a central n = 2k."""
    return sum(1 if n == 2 * k else 2 for n, k in interior)


def _held_entries(t_max: int, first: int) -> dict[int, list[tuple[int, int]]]:
    """Every C(n,k) <= t_max with first <= k <= n/2, as value -> its positions (n,k), in increasing n.

    Row n holds C(n,first) < ... < C(n,n//2), each from the one before by
    C(n,k+1) = C(n,k)(n-k)/(k+1); the rows end where C(n,first) exceeds
    t_max, so they number about (first! * t_max)^(1/first).
    """
    held: dict[int, list[tuple[int, int]]] = {}
    n = 2 * first
    v = math.comb(n, first)
    while v <= t_max:
        for k in range(first, n // 2 + 1):
            if v > t_max:
                break
            held.setdefault(v, []).append((n, k))
            v = v * (n - k) // (k + 1)
        n += 1
        v = math.comb(n, first)
    return held


# The largest t_max a census scan accepts. For m_min >= 5 the time grows with the streamed
# column 3, about (6 * t_max)^(1/3) values, and the memory with the values held, about
# (24 * t_max)^(1/4): at 10^16 the scan holds 29,685 values of columns k >= 4, and on 2 CPUs a
# CLI scan took 0.41-0.58 s with a peak RSS of 25 MB for its 7 records (10^15: 0.34 s, 21 MB;
# 10^17: 1.13 s, 30 MB). For m_min <= 4 every C(n,2) is a record, so the output sets the time:
# at 2*10^9 the scan holds 3,240 values of columns k >= 3 and returns 66,476 records (m_min 3;
# 66,461 for 4), and a CLI scan took 0.87-1.11 s in text or csv and 2.5-2.7 s in json, at a
# peak RSS of 70 MB.
_MAX_SCAN_T_LOW_M = 2 * 10**9
_MAX_SCAN_T = 10**16


def scan_high_multiplicity(t_max: int, m_min: int) -> list[MultiplicityRecord]:
    """All t <= t_max with N(t) >= m_min, ascending, each with its positions.

    A value with i interior occurrences has N(t) = i + 2, and each column
    k >= 2 holds a value at most once, adding 2 interior occurrences (1 at
    the central n = 2k). Every position is kept as it is visited, so no
    column is searched twice.
    - m_min >= 5: a hit has 3 or more interior occurrences, so it lies in
      two columns, one of them k >= 3. The columns k >= 4 are held, value
      -> positions, by `_held_entries`. Column 3 is streamed in
      increasing n: each C(n,3) takes its held positions out and settles
      column 2 by `_column_two`; a C(n,3) in neither has N(t) <= 4 and
      is passed over. The held values left, which column 3 does not hold,
      settle column 2 in one pass at the end.
    - m_min <= 4: every C(n,2) with n >= 5 is a hit on its own, and so is
      C(4,2) = 6 when m_min = 3. The columns k >= 3 are held, column 2 is
      streamed, each C(n,2) taking its held positions out, and the held
      values left are the hits outside column 2.
    The hits are sorted by t and each record is formed from its
    positions, their mirrors and the two edges. Before the tally a scan
    refuses a t_max above _MAX_SCAN_T_LOW_M (2*10^9) when m_min <= 4 and
    above _MAX_SCAN_T (10^16) otherwise.
    """
    if t_max < 2:
        raise PreconditionError(f"scan_high_multiplicity needs t_max >= 2, got {t_max}")
    if m_min < 3:
        raise PreconditionError(f"scan_high_multiplicity needs m_min >= 3, got {m_min}")
    low = m_min <= 4
    if t_max > (_MAX_SCAN_T_LOW_M if low else _MAX_SCAN_T):
        bound = "m_min <= 4 needs t_max <= 2*10^9" if low else "m_min >= 5 needs t_max <= 10^16"
        raise PreconditionError(f"census scan with {bound}")
    s = 2 if low else 3  # the streamed column
    held = _held_entries(t_max, s + 1)
    hits = []
    n = 2 * s
    v = math.comb(n, s)
    while v <= t_max:
        interior = held.pop(v, [])
        if not low and (m := _column_two(v)):
            interior.append((m, 2))
        if interior or low:  # alone in the triangle's interior, a C(n,3) has N(t) <= 4
            interior.append((n, s))
            if _interior_count(interior) + 2 >= m_min:
                hits.append((v, interior))
        n += 1
        v = v * n // (n - s)
    for v, interior in held.items():
        if not low and (m := _column_two(v)):
            interior.append((m, 2))
        if _interior_count(interior) + 2 >= m_min:
            hits.append((v, interior))
    hits.sort()
    return [_record(t, interior) for t, interior in hits]


def intersect_curves(s1: ShiftPair, s2: ShiftPair, x_max: int) -> list[tuple[int, int]]:
    """Points (x,y), 0 <= y <= x <= x_max, solving both shift equations, in increasing y.

    The first shift's solutions are crossings, which never decrease in y,
    so those with x <= x_max lie in the rows up to `_last_row`. The tube of
    `search` finds them, and those that solve the second shift are kept. A
    nontrivial hit is a value at three or more places in the triangle.
    """
    if s1 == s2:
        raise PreconditionError("intersect_curves needs two distinct shifts")
    if x_max < 1:
        raise PreconditionError(f"intersect_curves needs x_max >= 1, got {x_max}")
    return [(x, y) for x, y in _tube_solutions(s1, _last_row(s1, x_max)) if equality_check(x, y, s2)]
