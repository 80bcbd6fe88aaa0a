"""Pascal-triangle multiplicity counting and curve-pair intersections.

N(t) counts the pairs (n,k) with C(n,k) = t. Every t >= 3 has the two
edge occurrences (t,1) and (t,t-1). The interior occurrences (n,k) and
(n,n-k), 2 <= k <= n/2, are found column by column: C(n,k) strictly
increases in n for fixed k, so a column holds t at most once, and only
columns with C(2k,k) <= t can hold it at all. Within a column an exact
k-th root brackets n to at most k/2 candidates, and C(n,k) is stepped up
the bracket from one `math.comb` (see `_interior_occurrences`).

`scan_high_multiplicity` tallies the columns k >= 3 row by row, which
visits O(t_max^(1/3)) rows, and settles column 2 by arithmetic.
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


def _interior_occurrences(t: int) -> list[tuple[int, int]]:
    """Every (n,k) with C(n,k) = t and 2 <= k <= n-2.

    Column k is searched on a bracket of at most k/2 rows. For 2 <= k <= n,
    k!*C(n,k) = n(n-1)...(n-k+1) is a product of k distinct factors in
    [n-k+1, n] whose mean is n-(k-1)/2, so by the AM-GM inequality, strict
    because the factors differ, (n-k+1)^k <= k!*C(n,k) < (n-(k-1)/2)^k. If
    C(n,k) = t, let r be the integer floor((k!*t)^(1/k)): then
    n > (k!*t)^(1/k) + (k-1)/2 >= r + (k-1)/2, so the integer n is at least
    r + (k+1)//2; and n-k+1 is an integer at most (k!*t)^(1/k), so
    n-k+1 <= r. With n >= 2k for the upper half of the row, n lies in
    [max(2k, r + (k+1)//2), r+k-1]. One `math.comb` at the bottom of that
    bracket, then C(n+1,k) = C(n,k)*(n+1)/(n+1-k) up the strictly
    increasing column until C(n,k) >= t, settles it. The stepping ends by
    row r+k, because k!*C(r+k,k) >= (r+1)^k > k!*t; the same bound with
    C(2k,k) <= t gives 2k < r+k, so the bracket is never empty. The steps
    are few: (k!*t)^(1/k) falls short of n-(k-1)/2 by only about
    k^2/(24n), so for n well above k the first row is already the one.
    k! and the central C(2k,k) that ends the column loop are carried from
    column to column.
    """
    out = []
    k = 2
    fact = 2  # k!
    central = 6  # C(2k,k)
    while central <= t:
        r = _kth_root(fact * t, k)
        n = max(2 * k, r + (k + 1) // 2)
        c = math.comb(n, k)
        while c < t:
            n += 1
            c = c * n // (n - k)
        if c == t:
            out.append((n, k))
            if n != 2 * k:
                out.append((n, n - k))
        central = central * 2 * (2 * k + 1) // (k + 1)
        k += 1
        fact *= k
    return out


def multiplicity(t: int) -> MultiplicityRecord:
    """Exact N(t) with occurrence witnesses; t must be at least 2."""
    if t <= 1:
        raise PreconditionError(f"multiplicity needs t >= 2, got {t} (t=1 occurs infinitely often)")
    occ = {(t, 1), (t, t - 1)}
    occ.update(_interior_occurrences(t))
    ordered = tuple(sorted(occ))
    return MultiplicityRecord(t, len(ordered), ordered)


def _column_two(v: int) -> int:
    """Interior occurrences of v in column 2: (n,2) and (n,n-2) for C(n,2) = v, n >= 4.

    C(n,2) = v means (2n-1)^2 = 8v+1, so at most one n qualifies; at n = 4
    the two positions coincide.
    """
    s = math.isqrt(8 * v + 1)
    if s * s != 8 * v + 1:
        return 0
    n = (s + 1) // 2
    return 0 if n < 4 else 1 if n == 4 else 2


# the largest t_max a census scan accepts, where the former column-by-column estimate of
# the values it holds (floor((k!*t_max)^(1/k)) - k for each column k >= 3 with
# C(2k,k) <= t_max, plus isqrt(2*t_max) + 1 for column 2) first exceeded 65,536; the
# estimate never decreases in t_max. With m_min 4 or less column 2 counts, and every C(n,2)
# is a record: at the limit a CLI scan took 2.65-3.5 s on 2 CPUs for 65,454 records. With
# m_min 5 or more column 2 does not count, and the limit took 0.15-0.19 s for 7 records.
_MAX_SCAN_T_LOW_M = 1_938_714_180
_MAX_SCAN_T = 31_500_106_239_178


def scan_high_multiplicity(t_max: int, m_min: int) -> list[MultiplicityRecord]:
    """All t <= t_max with N(t) >= m_min, ascending.

    A value with i interior occurrences has multiplicity i + 2. The
    interior entries C(n,k) <= t_max with 3 <= k <= n/2 are tallied row by
    row with C(n,k+1) = C(n,k)(n-k)/(k+1); since C(n,3) <= t_max these rows
    number O(t_max^(1/3)). Column 2 is settled by arithmetic instead:
    C(n,2) strictly increases in n, so column 2 holds a value at most once
    and adds at most 2 interior occurrences (1 at n = 4, where (4,2) is its
    own mirror), which `_column_two` finds by an integer square root.
    For m_min >= 5 a value needs at least 3 interior occurrences, so at
    least one lies in a column k >= 3 and the value is already in the
    tally. For m_min <= 4 every C(n,2) with n >= 5 qualifies on its own, and
    so does C(4,2) = 6 when m_min = 3; only then are the values of column 2
    added to the candidates. Before the tally a scan refuses a t_max above
    _MAX_SCAN_T_LOW_M (1,938,714,180) when m_min <= 4 and above
    _MAX_SCAN_T (31,500,106,239,178) otherwise, so that it holds at most
    65,536 values.
    """
    if t_max < 2:
        raise PreconditionError(f"scan_high_multiplicity needs t_max >= 2, got {t_max}")
    if m_min < 3:
        raise PreconditionError(f"scan_high_multiplicity needs m_min >= 3, got {m_min}")
    if t_max > (_MAX_SCAN_T_LOW_M if m_min <= 4 else _MAX_SCAN_T):
        raise PreconditionError("census scan would hold more than 65536 values")
    tally: dict[int, int] = {}
    n = 6
    v = 20  # C(n,3)
    while v <= t_max:
        for k in range(3, n // 2 + 1):
            if v > t_max:
                break
            tally[v] = tally.get(v, 0) + (1 if n == 2 * k else 2)
            v = v * (n - k) // (k + 1)
        n += 1
        v = n * (n - 1) * (n - 2) // 6
    values = set(tally)
    if m_min <= 4:
        # every C(n,2) <= t_max with n >= 4, i.e. (2n-1)^2 <= 8*t_max + 1
        values.update(n * (n - 1) // 2 for n in range(4, (math.isqrt(8 * t_max + 1) + 1) // 2 + 1))
    hits = sorted(t for t in values if tally.get(t, 0) + _column_two(t) + 2 >= m_min)
    return [multiplicity(t) for t in hits]


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
